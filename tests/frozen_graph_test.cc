// Tests for the FrozenGraph CSR snapshot (src/graph/frozen_graph.*):
// neighbor-sequence equality with the source view on random networks,
// Freeze() on both view implementations (in-memory and disk-backed),
// edge-weight and point-range lookups, the validator's rejection of a
// corrupted snapshot, identical Dijkstra traversal counters over view
// and snapshot, snapshot ownership across Network mutation, and the
// per-algorithm frozen-vs-live bit-identity of every engine (each run
// once with a null snapshot and once with &frozen).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/optics.h"
#include "core/validate.h"
#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"
#include "graph/network_store.h"
#include "netclus.h"

namespace netclus {
namespace {

// A generated network + uniform points + in-memory view + snapshot.
struct Scenario {
  GeneratedNetwork gen;
  PointSet points;
  std::optional<InMemoryNetworkView> view;
  FrozenGraph frozen;

  Scenario(NodeId nodes, PointId n_points, uint64_t seed) {
    gen = GenerateRoadNetwork({nodes, 1.3, 0.3, seed});
    points =
        std::move(GenerateUniformPoints(gen.net, n_points, seed + 1)).value();
    view.emplace(gen.net, points);
    frozen = std::move(view->Freeze()).value();
  }
};

// The property the whole refactor rests on: for every node, the CSR row
// replays the view's neighbor iteration exactly — same ids, same
// weights, same order.
void ExpectSameNeighborSequences(const NetworkView& view,
                                 const FrozenGraph& frozen) {
  ASSERT_EQ(frozen.num_nodes(), view.num_nodes());
  size_t half_edges = 0;
  for (NodeId n = 0; n < view.num_nodes(); ++n) {
    std::vector<std::pair<NodeId, double>> from_view;
    view.ForEachNeighbor(
        n, [&](NodeId m, double w) { from_view.emplace_back(m, w); });
    std::vector<std::pair<NodeId, double>> from_csr;
    frozen.ForEachNeighbor(
        n, [&](NodeId m, double w) { from_csr.emplace_back(m, w); });
    EXPECT_EQ(from_csr, from_view) << "node " << n;
    EXPECT_EQ(frozen.degree(n), from_view.size()) << "node " << n;
    half_edges += from_view.size();
  }
  EXPECT_EQ(frozen.num_half_edges(), half_edges);
}

TEST(FrozenGraphTest, NeighborSequencesMatchViewOnRandomNetworks) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    Scenario s(150, 200, seed);
    ExpectSameNeighborSequences(*s.view, s.frozen);
    EXPECT_TRUE(s.frozen.has_point_ranges());
  }
}

TEST(FrozenGraphTest, EdgeWeightMatchesViewBothDirections) {
  Scenario s(120, 80, 21);
  for (const auto& [u, v, w] : s.gen.net.Edges()) {
    EXPECT_EQ(s.frozen.EdgeWeight(u, v), w);
    EXPECT_EQ(s.frozen.EdgeWeight(v, u), w);
    EXPECT_TRUE(s.frozen.HasEdge(u, v));
  }
  // Absent edges (including out-of-range and self loops) are negative.
  EXPECT_LT(s.frozen.EdgeWeight(0, 0), 0.0);
  EXPECT_FALSE(s.frozen.HasEdge(0, 0));
}

TEST(FrozenGraphTest, EdgePointRangesMatchViewPointGroups) {
  Scenario s(100, 160, 31);
  size_t groups = 0;
  s.view->ForEachPointGroup(
      [&](NodeId u, NodeId v, PointId first, uint32_t count) {
        ++groups;
        EXPECT_EQ(s.frozen.EdgePointRange(u, v),
                  std::make_pair(first, count));
        EXPECT_EQ(s.frozen.EdgePointRange(v, u),
                  std::make_pair(first, count));
      });
  ASSERT_GT(groups, 0u);
  // An edge with no points reports an empty range.
  for (const auto& [u, v, w] : s.gen.net.Edges()) {
    auto [first, count] = s.frozen.EdgePointRange(u, v);
    if (count == 0) {
      EXPECT_EQ(first, kInvalidPointId);
      return;  // found one: done
    }
  }
}

TEST(FrozenGraphTest, FromAdjacencyCarriesNoPointRanges) {
  std::vector<std::vector<std::pair<NodeId, double>>> adj(3);
  adj[0] = {{1, 2.0}, {2, 5.0}};
  adj[1] = {{0, 2.0}};
  adj[2] = {{0, 5.0}};
  FrozenGraph g = FrozenGraph::FromAdjacency(adj);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_half_edges(), 4u);
  EXPECT_EQ(g.EdgeWeight(0, 2), 5.0);
  EXPECT_FALSE(g.has_point_ranges());
  EXPECT_EQ(g.EdgePointRange(0, 1).second, 0u);
}

TEST(FrozenGraphTest, FreezeOnDiskViewMatchesInMemoryFreeze) {
  Scenario s(140, 180, 41);
  auto bundle = std::move(DiskNetworkBundle::Create(
                              s.gen.net, s.points, 64 * 4096, 4096,
                              NodePlacement::kConnectivity, 1)
                              .value());
  Result<FrozenGraph> disk_frozen = bundle->view().Freeze();
  ASSERT_TRUE(disk_frozen.ok()) << disk_frozen.status().ToString();
  ExpectSameNeighborSequences(bundle->view(), disk_frozen.value());
  ExpectSameNeighborSequences(*s.view, disk_frozen.value());
  EXPECT_TRUE(
      ValidateFrozenGraph(bundle->view(), disk_frozen.value()).ok());
}

TEST(FrozenGraphTest, ValidatorAcceptsFaithfulSnapshot) {
  Scenario s(110, 130, 51);
  EXPECT_TRUE(ValidateFrozenGraph(*s.view, s.frozen).ok());
}

TEST(FrozenGraphTest, ValidatorRejectsCorruptedWeight) {
  Scenario s(110, 130, 52);
  ASSERT_GT(s.frozen.num_half_edges(), 0u);
  s.frozen.CorruptHalfEdgeForTest(s.frozen.num_half_edges() / 2, 0, -3.5);
  Status st = ValidateFrozenGraph(*s.view, s.frozen);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal()) << st.ToString();
}

TEST(FrozenGraphTest, NetworkEdgeWeightSurvivesMutation) {
  // Network::EdgeWeight serves from a cached FromAdjacency snapshot;
  // AddEdge must invalidate it so lookups never go stale.
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.5).ok());
  net.Freeze();
  EXPECT_EQ(net.EdgeWeight(0, 1), 1.5);
  ASSERT_TRUE(net.AddEdge(1, 2, 2.5).ok());  // invalidates the snapshot
  EXPECT_EQ(net.EdgeWeight(1, 2), 2.5);
  EXPECT_EQ(net.EdgeWeight(0, 1), 1.5);
  EXPECT_LT(net.EdgeWeight(0, 2), 0.0);
}

TEST(FrozenGraphTest, HeldSnapshotSurvivesAddEdge) {
  // The ownership rule behind RCU epochs: AddEdge drops only the
  // network's own reference to the cached snapshot. A caller-held
  // shared_ptr keeps the old CSR alive and unchanged, while the next
  // Freeze() builds a fresh snapshot reflecting the mutation.
  Network net(4);
  ASSERT_TRUE(net.AddEdge(0, 1, 1.5).ok());
  std::shared_ptr<const FrozenGraph> old_snap = net.Freeze();
  ASSERT_NE(old_snap, nullptr);
  EXPECT_EQ(old_snap->EdgeWeight(0, 1), 1.5);

  ASSERT_TRUE(net.AddEdge(1, 2, 2.5).ok());
  // The held snapshot still describes the pre-mutation adjacency.
  EXPECT_EQ(old_snap->EdgeWeight(0, 1), 1.5);
  EXPECT_LT(old_snap->EdgeWeight(1, 2), 0.0);
  EXPECT_EQ(old_snap.use_count(), 1);  // network dropped its reference

  std::shared_ptr<const FrozenGraph> new_snap = net.Freeze();
  ASSERT_NE(new_snap, nullptr);
  EXPECT_NE(new_snap, old_snap);
  EXPECT_EQ(new_snap->EdgeWeight(1, 2), 2.5);
  EXPECT_EQ(old_snap->EdgeWeight(0, 1), 1.5);
}

// Multi-source SSSP over the snapshot settles the same nodes in the
// same order with the same heap traffic as over the live view.
TEST(FrozenGraphTest, DijkstraCountersIdenticalOverViewAndSnapshot) {
  Scenario s(200, 100, 61);
  std::vector<DijkstraSource> sources = {DijkstraSource{0, 0.0},
                                         DijkstraSource{5, 1.25}};
  TraversalWorkspace ws(s.view->num_nodes());

  TraversalCounters before_view = LocalTraversalCounters();
  DijkstraDistances(*s.view, sources, &ws);
  TraversalCounters view_delta = LocalTraversalCounters() - before_view;
  std::vector<double> view_dist(s.view->num_nodes());
  for (NodeId n = 0; n < s.view->num_nodes(); ++n) {
    view_dist[n] = ws.scratch.Get(n);
  }

  TraversalCounters before_frozen = LocalTraversalCounters();
  DijkstraDistances(s.frozen, sources, &ws);
  TraversalCounters frozen_delta = LocalTraversalCounters() - before_frozen;

  EXPECT_EQ(frozen_delta.settled_nodes, view_delta.settled_nodes);
  EXPECT_EQ(frozen_delta.heap_pushes, view_delta.heap_pushes);
  EXPECT_EQ(frozen_delta.heap_pops, view_delta.heap_pops);
  for (NodeId n = 0; n < s.view->num_nodes(); ++n) {
    EXPECT_EQ(ws.scratch.Get(n), view_dist[n]) << "node " << n;
  }
}

// Per-algorithm frozen-vs-live equivalence: each engine run over the
// live view (null snapshot) and over the snapshot must agree bit for bit.
class FrozenRunFixture : public ::testing::Test {
 protected:
  void SetUp() override { s_.emplace(90, 140, 71); }
  std::optional<Scenario> s_;
};

TEST_F(FrozenRunFixture, KMedoidsFrozenIdentical) {
  KMedoidsOptions options;
  options.k = 5;
  options.seed = 72;
  Result<KMedoidsResult> live = KMedoidsCluster(*s_->view, options, nullptr);
  Result<KMedoidsResult> frozen =
      KMedoidsCluster(*s_->view, options, &s_->frozen);
  ASSERT_TRUE(live.ok() && frozen.ok());
  EXPECT_EQ(frozen.value().clustering.assignment,
            live.value().clustering.assignment);
  EXPECT_EQ(frozen.value().medoids, live.value().medoids);
  EXPECT_EQ(frozen.value().cost, live.value().cost);
}

TEST_F(FrozenRunFixture, EpsLinkFrozenIdentical) {
  EpsLinkOptions options;
  options.eps = 3.0;
  options.min_sup = 3;
  Result<Clustering> live = EpsLinkCluster(*s_->view, options, nullptr);
  Result<Clustering> frozen = EpsLinkCluster(*s_->view, options, &s_->frozen);
  ASSERT_TRUE(live.ok() && frozen.ok());
  EXPECT_EQ(frozen.value().assignment, live.value().assignment);
  EXPECT_EQ(frozen.value().num_clusters, live.value().num_clusters);
}

TEST_F(FrozenRunFixture, SingleLinkFrozenIdentical) {
  SingleLinkOptions options;
  options.delta = 1.0;
  Result<SingleLinkResult> live =
      SingleLinkCluster(*s_->view, options, nullptr);
  Result<SingleLinkResult> frozen =
      SingleLinkCluster(*s_->view, options, &s_->frozen);
  ASSERT_TRUE(live.ok() && frozen.ok());
  const auto& lm = live.value().dendrogram.merges();
  const auto& fm = frozen.value().dendrogram.merges();
  ASSERT_EQ(fm.size(), lm.size());
  for (size_t i = 0; i < lm.size(); ++i) {
    EXPECT_EQ(fm[i].a, lm[i].a);
    EXPECT_EQ(fm[i].b, lm[i].b);
    EXPECT_EQ(fm[i].distance, lm[i].distance);
  }
}

TEST_F(FrozenRunFixture, DbscanFrozenIdenticalSerialAndParallel) {
  DbscanOptions options;
  options.eps = 3.0;
  options.min_pts = 3;
  for (uint32_t threads : {1u, 4u}) {
    options.num_threads = threads;
    Result<Clustering> live = DbscanCluster(*s_->view, options, nullptr);
    Result<Clustering> frozen =
        DbscanCluster(*s_->view, options, &s_->frozen);
    ASSERT_TRUE(live.ok() && frozen.ok());
    EXPECT_EQ(frozen.value().assignment, live.value().assignment)
        << "threads = " << threads;
  }
}

TEST_F(FrozenRunFixture, OpticsIdentical) {
  OpticsOptions options;
  options.eps = 3.0;
  options.min_pts = 3;
  Result<OpticsResult> live = OpticsOrder(*s_->view, options);
  Result<OpticsResult> frozen = OpticsOrder(*s_->view, options, &s_->frozen);
  ASSERT_TRUE(live.ok() && frozen.ok());
  EXPECT_EQ(frozen.value().order, live.value().order);
  EXPECT_EQ(frozen.value().reachability, live.value().reachability);
  EXPECT_EQ(frozen.value().core_distance, live.value().core_distance);
}

// RunClustering freezes internally; with validation on, every algorithm
// passes ValidateFrozenGraph plus its own output audit end to end.
TEST_F(FrozenRunFixture, RunClusteringValidatesSnapshotForAllAlgorithms) {
  for (Algorithm a : {Algorithm::kKMedoids, Algorithm::kEpsLink,
                      Algorithm::kSingleLink, Algorithm::kDbscan}) {
    ClusterSpec spec;
    spec.algorithm = a;
    spec.validate = true;
    spec.kmedoids.k = 4;
    spec.kmedoids.seed = 73;
    spec.eps_link.eps = 3.0;
    spec.dbscan.eps = 3.0;
    spec.single_link.delta = 1.0;
    spec.cut_distance = 3.0;
    Result<ClusterOutput> out = RunClustering(*s_->view, spec);
    EXPECT_TRUE(out.ok()) << AlgorithmName(a) << ": "
                          << out.status().ToString();
  }
}

}  // namespace
}  // namespace netclus
