// serve_read and serve_write: the query service in steady state.
//
// One process holds the whole stack: a QueryServer (2 workers, ε-Link
// re-clustering every epoch) behind a TcpServer on loopback, driven by
// blocking QueryClient connections in closed loops — every client in
// this repository blocks on each reply. serve_write adds a durable
// mutation log with a short checkpoint interval and one writer thread
// that applies a mutation and waits for it to become visible, again in
// a closed loop (there is no mutation frame on the wire, so the writer
// uses the in-process API).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"
#include "graph/text_io.h"
#include "index/distance_cache.h"
#include "netclus.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "net/wire.h"
#include "server/query.h"
#include "server/query_server.h"
#include "server/wal.h"
#include "storage/paged_file.h"
#include "workloads.h"

namespace perfbench {
namespace {

using netclus::NetworkUpdate;
using netclus::ObjectId;
using netclus::QueryKind;
using netclus::QueryRequest;
using netclus::QueryResponse;

constexpr uint32_t kWorkers = 2;
/// serve_read's connections: four, or one per core when there are
/// fewer. With only two, the cores sit idle between hand-offs and every
/// request pays the hypervisor's wake-up latency, which swung run-to-run
/// throughput by ~10% on a shared 4-vCPU host (four: ~5%).
/// serve_write has one reader connection.
int ReadClients() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}
constexpr size_t kHotPairs = 2048;
constexpr uint32_t kNearestK = 8;
constexpr size_t kWarmupQueries = 2000;  // per client
/// Served responses each reader keeps (a uniform reservoir sample of its
/// window) for the inline replay. Bounded, like every other record the
/// loops keep, so the benchmark's own memory does not grow with the
/// throughput it measures and `peak_rss_mb` stays the program's.
constexpr size_t kKeptPerReader = 4096;
constexpr size_t kMutations = 4000;
constexpr uint64_t kCheckpointEvery = 16;
constexpr uint32_t kWalPageSize = 4096;  // the page size the server uses
/// Requests of the fixed prefix replayed one layer at a time.
constexpr size_t kReplayQueries = 20000;
/// Mutations of the fixed prefix replayed one layer at a time.
constexpr size_t kReplayMutations = 3 * kCheckpointEvery;
constexpr uint64_t kWriterRequestBase = uint64_t{1} << 40;

// --- generated request and mutation streams ----------------------------

using Pair = std::pair<ObjectId, ObjectId>;

/// Objects of each generated cluster (label >= 0), boot ObjectIds.
std::vector<std::vector<ObjectId>> ClusterMembers(
    const netclus::PointSet& points) {
  int max_label = -1;
  for (int l : points.labels()) max_label = std::max(max_label, l);
  std::vector<std::vector<ObjectId>> members(max_label + 1);
  for (netclus::PointId p = 0; p < points.size(); ++p) {
    if (points.label(p) >= 0) members[points.label(p)].push_back(p);
  }
  return members;
}

class StreamMaker {
 public:
  StreamMaker(const netclus::PointSet& points, double max_intra_gap,
              uint64_t seed)
      : members_(ClusterMembers(points)),
        num_points_(points.size()),
        range_eps_(0.5 * max_intra_gap) {
    for (const auto& m : members_) {
      clustered_.insert(clustered_.end(), m.begin(), m.end());
    }
    netclus::Rng rng(netclus::Rng::DeriveSeed(seed, 2));
    for (size_t i = 0; i < kHotPairs; ++i) hot_.push_back(FreshPair(&rng));
  }

  const std::vector<Pair>& hot_pairs() const { return hot_; }

  /// One request of the read mix: 40% nearest-k, 30% range, 20%
  /// membership, 10% point distance within one generated cluster (half
  /// of those from the hot-pair list).
  QueryRequest Draw(netclus::Rng* rng) const {
    const uint64_t r = rng->NextBounded(100);
    const ObjectId center = rng->NextBounded(num_points_);
    if (r < 40) return QueryRequest::NearestObject(center, kNearestK);
    if (r < 70) return QueryRequest::Range(center, range_eps_);
    if (r < 90) return QueryRequest::ClusterMembership(center);
    const Pair p = rng->NextBounded(2) == 0
                       ? hot_[rng->NextBounded(hot_.size())]
                       : FreshPair(rng);
    return QueryRequest::PointDistance(p.first, p.second);
  }

 private:
  Pair FreshPair(netclus::Rng* rng) const {
    // Uniform over clustered objects, partner uniform in the same
    // cluster (weighting clusters by size).
    size_t idx = rng->NextBounded(clustered_.size());
    size_t c = 0;
    while (idx >= members_[c].size()) idx -= members_[c++].size();
    const auto& m = members_[c];
    return {m[idx], m[rng->NextBounded(m.size())]};
  }

  std::vector<std::vector<ObjectId>> members_;
  std::vector<ObjectId> clustered_;
  netclus::PointId num_points_;
  double range_eps_;
  std::vector<Pair> hot_;
};

/// One connection's requests, drawn one at a time from its own seeded
/// generator: a stream costs no memory however long the run, and a
/// stream made again from the same seed replays the same requests.
class RequestStream {
 public:
  RequestStream(const StreamMaker* maker, uint64_t seed)
      : maker_(maker), rng_(seed) {}

  QueryRequest Next() {
    ++position_;
    return maker_->Draw(&rng_);
  }
  /// Requests drawn so far.
  uint64_t position() const { return position_; }

 private:
  const StreamMaker* maker_;
  netclus::Rng rng_;
  uint64_t position_ = 0;
};

/// Connection `c`'s stream seed.
uint64_t StreamSeed(uint64_t seed, size_t c) {
  return netclus::Rng::DeriveSeed(seed, 10 + c);
}

uint64_t EdgeKey(netclus::NodeId a, netclus::NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// 90% AddPoint on a random existing edge, 10% AddEdge between two
/// nodes two hops apart (a shortcut 20% shorter than the path).
std::vector<NetworkUpdate> MakeMutations(const netclus::Network& net,
                                         uint64_t seed, size_t n) {
  const std::vector<netclus::Edge> edges = net.Edges();
  netclus::Rng rng(netclus::Rng::DeriveSeed(seed, 3));
  std::unordered_set<uint64_t> added;
  std::vector<NetworkUpdate> out;
  out.reserve(n);
  while (out.size() < n) {
    if (rng.NextBounded(10) != 0) {
      const netclus::Edge& e = edges[rng.NextBounded(edges.size())];
      out.push_back(
          NetworkUpdate::AddPoint(e.u, e.v, rng.NextDouble() * e.weight, -1));
      continue;
    }
    const netclus::NodeId u = rng.NextBounded(net.num_nodes());
    const auto& nu = net.neighbors(u);
    if (nu.empty()) continue;
    const auto [w, uw] = nu[rng.NextBounded(nu.size())];
    const auto& nw = net.neighbors(w);
    const auto [v, wv] = nw[rng.NextBounded(nw.size())];
    if (v == u || net.HasEdge(u, v) || !added.insert(EdgeKey(u, v)).second) {
      continue;
    }
    out.push_back(NetworkUpdate::AddEdge(u, v, 0.8 * (uw + wv)));
  }
  return out;
}

/// What the request and mutation streams are drawn from. It comes from
/// a parse of the dataset that is freed on return, before any server
/// starts, so the parse does not count in peak_rss_mb.
struct StreamInputs {
  StreamMaker maker;
  std::vector<NetworkUpdate> muts;
};

netclus::Result<StreamInputs> LoadStreamInputs(const Args& args,
                                               const World& world,
                                               bool writes) {
  NETCLUS_ASSIGN_OR_RETURN(auto parsed,
                           netclus::LoadNetworkFile(world.dataset_path));
  return StreamInputs{
      StreamMaker(parsed.second, world.max_intra_gap, args.seed),
      writes ? MakeMutations(parsed.first, args.seed, kMutations)
             : std::vector<NetworkUpdate>{}};
}

// --- the served stack ----------------------------------------------------

/// The ε-Link spec the server re-clusters every epoch with (eps = the
/// generator's max_intra_gap, min_sup 3).
netclus::ClusterSpec ServingClusterSpec(double max_intra_gap) {
  netclus::EpsLinkOptions opts;
  opts.eps = max_intra_gap;
  opts.min_sup = 3;
  return netclus::MakeSpec(opts);
}

struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<netclus::QueryServer> server;
  std::unique_ptr<netclus::TcpServer> tcp;
  std::vector<std::unique_ptr<netclus::QueryClient>> clients;

  void Stop() {
    clients.clear();
    if (tcp != nullptr) tcp->Stop();
    tcp.reset();
    if (server != nullptr) server->Stop();
    server.reset();
  }
  ~Stack() { Stop(); }
};

std::string WalPath(const Args& args) { return args.workdir + "/wal.log"; }

void RemoveWalFiles(const std::string& wal) {
  std::error_code ec;
  for (const char* suffix : {"", ".ckpt.a", ".ckpt.b"}) {
    std::filesystem::remove(wal + suffix, ec);
  }
}

/// One set-up: parse the dataset, start the server, the TCP front end
/// and the client connections. Returns the seconds until the first
/// request can be issued.
netclus::Result<double> StartStack(const Args& args, const World& world,
                                   bool writes, int num_clients,
                                   Tracer* tracer, Stack* stack,
                                   double* parse_seconds) {
  const double t0 = NowSeconds();
  auto parsed = [&] {
    Tracer::Scope span(tracer, "graph.text_parse");
    return netclus::LoadNetworkFile(world.dataset_path);
  }();
  NETCLUS_RETURN_IF_ERROR(parsed.status());
  *parse_seconds = NowSeconds() - t0;

  const double t1 = NowSeconds();
  netclus::QueryServerOptions opts;
  opts.num_workers = kWorkers;
  opts.cluster_spec = ServingClusterSpec(world.max_intra_gap);
  if (writes) {
    opts.wal_path = WalPath(args);
    opts.wal_checkpoint_every = kCheckpointEvery;
  }
  {
    Tracer::Scope span(tracer, "server.start");
    NETCLUS_ASSIGN_OR_RETURN(
        stack->server,
        netclus::QueryServer::Start(std::move(parsed.value().first),
                                    std::move(parsed.value().second), opts));
  }
  {
    Tracer::Scope span(tracer, "net.start");
    NETCLUS_ASSIGN_OR_RETURN(
        stack->tcp, netclus::TcpServer::Start(stack->server.get(),
                                              netclus::TcpServerOptions{}));
  }
  netclus::ClientOptions copts;
  copts.port = stack->tcp->port();
  for (int c = 0; c < num_clients; ++c) {
    Tracer::Scope span(tracer, "net.connect");
    NETCLUS_ASSIGN_OR_RETURN(auto client, netclus::QueryClient::Connect(copts));
    stack->clients.push_back(std::move(client));
  }
  return *parse_seconds + (NowSeconds() - t1);
}

// --- closed loops ----------------------------------------------------------

struct Sample {
  QueryRequest req;
  QueryResponse resp;
};

/// One second of one reader's window.
struct SecondStats {
  uint64_t completed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct ReaderResult {
  /// Indexed by whole seconds since the window's start.
  std::vector<SecondStats> seconds;
  std::vector<Sample> kept;
  uint64_t completed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void ReaderLoop(netclus::QueryClient* client, RequestStream* stream,
                double window_start, double t_end, Tracer* tracer,
                uint64_t request_base, ReaderResult* out) {
  const uint64_t retries_before = client->stats().retries;
  out->seconds.assign(static_cast<size_t>(t_end - window_start) + 2, {});
  out->kept.reserve(kKeptPerReader);
  netclus::Rng reservoir(request_base);
  std::vector<double> second_ms;  // latencies of the current second
  second_ms.reserve(1 << 16);
  size_t current = 0;
  auto close_second = [&] {
    if (second_ms.empty()) return;
    out->seconds[current] = {second_ms.size(), Percentile(second_ms, 0.5),
                             Percentile(second_ms, 0.99)};
    second_ms.clear();
  };
  while (NowSeconds() < t_end) {
    const uint64_t id = request_base + stream->position();
    const QueryRequest req = stream->Next();
    const double t0 = NowSeconds();
    auto r = [&] {
      Tracer::Scope span(tracer, "net.client_execute", id);
      return client->Execute(req);
    }();
    const double t1 = NowSeconds();
    ++out->attempted;
    if (!r.ok()) {
      ++out->failed;
    } else {
      const size_t second = std::min(static_cast<size_t>(t1 - window_start),
                                     out->seconds.size() - 1);
      if (second != current) {
        close_second();
        current = second;
      }
      second_ms.push_back((t1 - t0) * 1e3);
      ++out->completed;
      if (out->kept.size() < kKeptPerReader) {
        out->kept.push_back({req, std::move(r.value())});
      } else if (const uint64_t slot = reservoir.NextBounded(out->completed);
                 slot < kKeptPerReader) {
        out->kept[slot] = {req, std::move(r.value())};
      }
    }
  }
  close_second();
  out->failed += client->stats().retries - retries_before;
}

struct WriterResult {
  std::vector<double> visible_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t add_edges = 0;  ///< acknowledged AddEdge mutations
  size_t next = 0;         ///< mutations acknowledged in total
};

void WriterLoop(netclus::QueryServer* server,
                const std::vector<NetworkUpdate>& muts, size_t start,
                double t_end, Tracer* tracer, WriterResult* out) {
  size_t j = start;
  while (NowSeconds() < t_end && j < muts.size()) {
    const double t0 = NowSeconds();
    netclus::Status applied, flushed;
    {
      Tracer::Scope span(tracer, "bench.update", kWriterRequestBase + j);
      {
        Tracer::Scope s(tracer, "server.apply_update");
        applied = server->ApplyUpdate(muts[j]);
      }
      Tracer::Scope s(tracer, "server.flush");
      flushed = server->Flush();
    }
    const double t1 = NowSeconds();
    ++out->attempted;
    if (!applied.ok() || !flushed.ok()) {
      // The mutation stream is built so that every mutation applies; a
      // refusal desynchronizes the replay model, so stop writing.
      ++out->failed;
      break;
    }
    out->visible_ms.push_back((t1 - t0) * 1e3);
    if (muts[j].kind == NetworkUpdate::Kind::kAddEdge) ++out->add_edges;
    ++j;
  }
  out->next = j;
}

struct Window {
  std::vector<ReaderResult> readers;
  WriterResult writer;
  double start = 0.0;
  double elapsed = 0.0;

  /// Queries completed in each whole second of the window, all readers
  /// together.
  std::vector<double> Rates() const {
    std::vector<double> rates(static_cast<size_t>(elapsed), 0.0);
    for (const ReaderResult& r : readers) {
      for (size_t b = 0; b < rates.size(); ++b) {
        rates[b] += r.seconds[b].completed;
      }
    }
    return rates;
  }
  // The host's interference comes in bursts of seconds and only ever
  // slows a second down. The serving figures are therefore read from
  // the window's quiet seconds: what the service does while the host
  // leaves it alone. On a shared 4-vCPU host this halved their
  // run-to-run spread against the median second.

  /// Queries completed in the window's 90th-percentile second.
  double SustainedRate() const { return Percentile(Rates(), 0.9); }
  /// `field` (a second's p50 or p99) in the 10th-percentile second over
  /// every reader's whole seconds.
  double QuietSeconds(double SecondStats::*field) const {
    return Percentile(SecondValues(field), 0.1);
  }
  // The same figures from the median second, and the share of seconds
  // that ran at less than half the sustained rate: a stall of the
  // program's own (a background thread, a reclamation pause) shows in
  // these even when it spares the quiet seconds.
  double MedianRate() const { return Median(Rates()); }
  double MedianSecond(double SecondStats::*field) const {
    return Median(SecondValues(field));
  }
  double SlowSecondsPct() const {
    const std::vector<double> rates = Rates();
    const double sustained = Percentile(rates, 0.9);
    size_t slow = 0;
    for (double r : rates) slow += r < 0.5 * sustained;
    return rates.empty() ? 0.0 : 100.0 * slow / rates.size();
  }
  std::vector<double> SecondValues(double SecondStats::*field) const {
    std::vector<double> v;
    for (const ReaderResult& r : readers) {
      for (size_t b = 0; b < static_cast<size_t>(elapsed); ++b) {
        if (r.seconds[b].completed > 0) v.push_back(r.seconds[b].*field);
      }
    }
    return v;
  }
  uint64_t Completed() const {
    uint64_t n = 0;
    for (const ReaderResult& r : readers) n += r.completed;
    return n;
  }
};

/// Runs the readers (and the writer, when `muts` is non-null) for
/// `seconds`, continuing each stream where the previous window left it.
Window RunWindow(Stack* stack, std::vector<RequestStream>* streams,
                 const std::vector<NetworkUpdate>* muts,
                 size_t* mut_position, double seconds, Tracer* tracer,
                 bool alternate_tracing) {
  Window w;
  w.readers.resize(streams->size());
  const double start = NowSeconds();
  w.start = start;
  const double t_end = start + seconds;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams->size(); ++c) {
    threads.emplace_back([&, c] {
      ReaderLoop(stack->clients[c].get(), &(*streams)[c], start, t_end, tracer,
                 (uint64_t{c} << 32) + 1, &w.readers[c]);
    });
  }
  if (muts != nullptr) {
    threads.emplace_back([&] {
      WriterLoop(stack->server.get(), *muts, *mut_position, t_end, tracer,
                 &w.writer);
    });
  }
  if (alternate_tracing) {
    // Tracing is on in the odd seconds only, so traced and untraced
    // seconds see the same host conditions.
    for (int sec = 1; start + sec < t_end; ++sec) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(start + sec - NowSeconds()));
      tracer->set_enabled(sec % 2 == 1);
    }
    tracer->set_enabled(false);
  }
  for (std::thread& t : threads) t.join();
  w.elapsed = NowSeconds() - start;
  if (muts != nullptr) *mut_position = w.writer.next;
  return w;
}

// --- the replay model of a served epoch ------------------------------------

/// Rebuilds the world the server publishes after a given number of
/// mutations, with the ObjectIds the server's documented identity rule
/// assigns: boot points 0..n-1 in dense order, boot edges the next ids
/// in canonical edge order, then one id per applied mutation in order.
class EpochModel {
 public:
  EpochModel(const netclus::Network& net, const netclus::PointSet& points,
             const std::vector<NetworkUpdate>* muts)
      : net_(net), muts_(muts) {
    for (size_t g = 0; g < points.num_groups(); ++g) {
      const netclus::PointSet::Group& grp = points.group(g);
      for (uint32_t i = 0; i < grp.count; ++i) {
        const netclus::PointId p = grp.first + i;
        raws_.push_back(NetworkUpdate::AddPoint(grp.u, grp.v, points.offset(p),
                                                points.label(p)));
        point_oids_.push_back(next_oid_++);
      }
    }
    for (const netclus::Edge& e : net_.Edges()) {
      edge_oids_[EdgeKey(e.u, e.v)] = next_oid_++;
    }
    boot_objects_ = next_oid_;
  }

  const std::vector<NetworkUpdate>* mutations() const { return muts_; }

  size_t applied() const { return applied_; }
  const netclus::Network& network() const { return net_; }

  /// Applies mutations until `count` have been applied.
  netclus::Status AdvanceTo(size_t count) {
    while (applied_ < count) {
      const NetworkUpdate& m = (*muts_)[applied_];
      if (m.kind == NetworkUpdate::Kind::kAddEdge) {
        NETCLUS_RETURN_IF_ERROR(net_.AddEdge(m.u, m.v, m.value));
        edge_oids_[EdgeKey(m.u, m.v)] = next_oid_++;
      } else {
        raws_.push_back(m);
        point_oids_.push_back(next_oid_++);
      }
      ++applied_;
    }
    return netclus::Status::OK();
  }

  /// ObjectId the i-th mutation received.
  ObjectId MutationObject(size_t i) const { return boot_objects_ + i; }

  /// The dense point set and identity map of the current world.
  netclus::Status BuildPoints(netclus::PointSet* points,
                              netclus::IdentityMap* ids) const {
    netclus::PointSetBuilder builder;
    for (const NetworkUpdate& p : raws_) {
      builder.Add(p.u, p.v, p.value, p.label);
    }
    std::vector<netclus::PointId> raw_to_final;
    NETCLUS_ASSIGN_OR_RETURN(*points,
                             std::move(builder).Build(net_, &raw_to_final));
    std::vector<ObjectId> object_of_point(point_oids_.size());
    for (size_t i = 0; i < raw_to_final.size(); ++i) {
      object_of_point[raw_to_final[i]] = point_oids_[i];
    }
    *ids = netclus::IdentityMap(std::move(object_of_point));
    return netclus::Status::OK();
  }

  /// The checkpoint a server holding this world would write.
  netclus::CheckpointState Checkpoint(uint64_t generation) const {
    netclus::CheckpointState s;
    s.generation = generation;
    s.covers_seq = applied_;
    s.next_object_id = next_oid_;
    s.num_nodes = net_.num_nodes();
    for (const netclus::Edge& e : net_.Edges()) {
      s.edges.push_back({e.u, e.v, e.weight, edge_oids_.at(EdgeKey(e.u, e.v))});
    }
    for (size_t i = 0; i < raws_.size(); ++i) {
      s.points.push_back(
          {raws_[i].u, raws_[i].v, raws_[i].value, raws_[i].label,
           point_oids_[i]});
    }
    return s;
  }

 private:
  netclus::Network net_;
  const std::vector<NetworkUpdate>* muts_;
  std::vector<NetworkUpdate> raws_;
  std::vector<ObjectId> point_oids_;
  std::unordered_map<uint64_t, ObjectId> edge_oids_;
  uint64_t next_oid_ = 0;
  uint64_t boot_objects_ = 0;
  size_t applied_ = 0;
};

/// The model of the boot world, parsed once more from the dataset text
/// after the measured window, so that it is not in peak_rss_mb.
netclus::Result<EpochModel> LoadEpochModel(
    const World& world, const std::vector<NetworkUpdate>* muts) {
  NETCLUS_ASSIGN_OR_RETURN(auto parsed,
                           netclus::LoadNetworkFile(world.dataset_path));
  return EpochModel(parsed.first, parsed.second, muts);
}

/// One published epoch, rebuilt for inline replay.
struct EpochReplica {
  netclus::Network net;
  netclus::PointSet points;
  netclus::IdentityMap ids;
  std::unique_ptr<netclus::InMemoryNetworkView> view;
  netclus::FrozenGraph frozen;
  netclus::ClusterOutput clusters;
};

netclus::Status BuildReplica(const EpochModel& model,
                             const netclus::ClusterSpec& spec,
                             EpochReplica* out) {
  out->net = model.network();
  NETCLUS_RETURN_IF_ERROR(model.BuildPoints(&out->points, &out->ids));
  out->view =
      std::make_unique<netclus::InMemoryNetworkView>(out->net, out->points);
  NETCLUS_ASSIGN_OR_RETURN(out->frozen, out->view->Freeze());
  NETCLUS_ASSIGN_OR_RETURN(out->clusters,
                           netclus::RunClustering(*out->view, spec));
  return netclus::Status::OK();
}

/// Replays `samples` inline against `replica` (ExecuteQueryInto, the
/// core ExecuteQuery wraps, with one reused workspace) and reports
/// every payload that is not bit-identical.
void CheckSamples(const EpochReplica& replica,
                  const std::vector<const Sample*>& samples,
                  bool identity_ids, Report* report) {
  netclus::TraversalWorkspace ws(replica.view->num_nodes());
  QueryResponse inline_resp;
  size_t bad = 0;
  for (const Sample* s : samples) {
    netclus::Status st = netclus::ExecuteQueryInto(
        *replica.view, &replica.frozen, s->req, &ws, nullptr,
        &replica.clusters, &inline_resp,
        identity_ids ? nullptr : &replica.ids);
    if (!st.ok() || !netclus::ResponsePayloadsEqual(s->resp, inline_resp)) {
      ++bad;
    }
  }
  if (bad > 0) {
    report->Mismatch(std::to_string(bad) + " of " +
                     std::to_string(samples.size()) +
                     " served responses differ from the inline replay");
  }
}

/// serve_write's served results: the epoch count matches the
/// acknowledged mutations, every acknowledged AddPoint is visible, and
/// sampled responses equal inline replays on rebuilt epochs.
void CheckServedWrites(netclus::QueryServer* server, const EpochModel& model,
                       const std::vector<NetworkUpdate>& muts, size_t acked,
                       const std::vector<const Sample*>& kept,
                       const netclus::ClusterSpec& spec, Report* report) {
  if (server->current_epoch() != 1 + acked) {
    report->Mismatch("epoch " + std::to_string(server->current_epoch()) +
                     " after " + std::to_string(acked) + " mutations");
  }
  // Every acknowledged AddPoint is visible: its ObjectId resolves and
  // a zero-radius range around it finds it.
  for (size_t i = 0; i < acked; ++i) {
    if (muts[i].kind != NetworkUpdate::Kind::kAddPoint) continue;
    const ObjectId oid = model.MutationObject(i);
    auto r = server->Execute(QueryRequest::Range(oid, 0.0));
    bool found = false;
    if (r.ok()) {
      for (const auto& hit : r.value().results) found |= hit.id == oid;
    }
    if (!found) {
      report->Mismatch("acknowledged point " + std::to_string(oid) +
                       " not visible");
      break;
    }
  }
  // Served responses against replicas of the epochs that served them:
  // the first and last sampled epochs and the first one that carries
  // an AddEdge.
  std::vector<uint64_t> epochs;
  for (const Sample* s : kept) epochs.push_back(s->resp.epoch);
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  std::vector<uint64_t> check;
  if (!epochs.empty()) {
    check.push_back(epochs.front());
    for (uint64_t e : epochs) {
      bool has_edge = false;
      for (size_t i = 0; i + 1 < e && i < muts.size(); ++i) {
        has_edge |= muts[i].kind == NetworkUpdate::Kind::kAddEdge;
      }
      if (has_edge) {
        check.push_back(e);
        break;
      }
    }
    check.push_back(epochs.back());
    std::sort(check.begin(), check.end());
    check.erase(std::unique(check.begin(), check.end()), check.end());
  }
  EpochModel replay = model;
  for (uint64_t e : check) {
    EpochReplica replica;
    netclus::Status st = replay.AdvanceTo(e - 1);
    if (st.ok()) st = BuildReplica(replay, spec, &replica);
    if (!st.ok()) {
      report->Mismatch("epoch replica: " + st.ToString());
      continue;
    }
    std::vector<const Sample*> in_epoch;
    for (const Sample* s : kept) {
      if (s->resp.epoch == e) in_epoch.push_back(s);
    }
    CheckSamples(replica, in_epoch, /*identity_ids=*/false, report);
  }
}

/// The mutation log, reopened after Stop: it must hold exactly the
/// acknowledged records, compacted behind the newest checkpoint.
void CheckMutationLog(const Args& args, const std::vector<NetworkUpdate>& muts,
                      size_t acked, Report* report) {
  auto file = netclus::PagedFile::Open(WalPath(args), kWalPageSize, false);
  auto store = netclus::CheckpointStore::Open(WalPath(args), kWalPageSize);
  netclus::CheckpointState latest;
  bool found = false;
  if (!file.ok() || !store.ok() ||
      !store.value()->ReadLatest(&latest, &found).ok()) {
    report->Mismatch("cannot reopen the mutation log");
    return;
  }
  auto wal = netclus::MutationWal::Open(file.value().get());
  if (!wal.ok()) {
    report->Mismatch("mutation log: " + wal.status().ToString());
    return;
  }
  const netclus::MutationWal& log = *wal.value();
  if (log.next_seq() != acked || !found ||
      latest.covers_seq != log.start_seq()) {
    report->Mismatch("mutation log ends at record " +
                     std::to_string(log.next_seq()) + ", expected " +
                     std::to_string(acked));
    return;
  }
  const auto& records = log.recovery().records;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i] != muts[log.start_seq() + i]) {
      report->Mismatch("mutation log record differs");
      return;
    }
  }
}

// --- per-layer replays (traced run) ----------------------------------------

const char* KindSpan(QueryKind k) {
  switch (k) {
    case QueryKind::kNearestObject: return "graph.inline_nearest";
    case QueryKind::kRange: return "graph.inline_range";
    case QueryKind::kPointDistance: return "graph.inline_distance";
    default: return "graph.inline_membership";
  }
}

/// The read path's layers, one at a time, on the same request prefix.
void ReplayReadLayers(Stack* stack, const EpochReplica& boot,
                      const StreamMaker& maker, uint64_t seed,
                      Tracer* tracer, Report* report) {
  // Each connection's stream from its start, made again from its seed.
  std::vector<std::vector<QueryRequest>> streams(stack->clients.size());
  for (size_t c = 0; c < streams.size(); ++c) {
    RequestStream stream(&maker, StreamSeed(seed, c));
    for (size_t i = 0; i < kReplayQueries; ++i) {
      streams[c].push_back(stream.Next());
    }
  }
  const std::vector<QueryRequest>& prefix = streams[0];

  // graph: the execution core over the epoch's FrozenGraph.
  netclus::TraversalWorkspace ws(boot.view->num_nodes());
  std::vector<QueryResponse> inline_resp(prefix.size());
  std::vector<double> all_us, by_kind[4];
  const netclus::TraversalCounters before = netclus::LocalTraversalCounters();
  for (size_t i = 0; i < prefix.size(); ++i) {
    const double t0 = NowSeconds();
    netclus::Status st;
    {
      Tracer::Scope span(tracer, KindSpan(prefix[i].kind), 1 + i);
      st = netclus::ExecuteQueryInto(*boot.view, &boot.frozen, prefix[i], &ws,
                                     nullptr, &boot.clusters, &inline_resp[i]);
    }
    const double us = (NowSeconds() - t0) * 1e6;
    if (!st.ok()) report->Mismatch("inline replay: " + st.ToString());
    all_us.push_back(us);
    by_kind[static_cast<int>(prefix[i].kind)].push_back(us);
  }
  const netclus::TraversalCounters work =
      netclus::LocalTraversalCounters() - before;
  report->Metric("graph.inline_distance_p50_us",
                 Median(by_kind[static_cast<int>(QueryKind::kPointDistance)]),
                 "us", by_kind[0].size());
  report->Metric("graph.inline_range_p50_us",
                 Median(by_kind[static_cast<int>(QueryKind::kRange)]), "us",
                 by_kind[1].size());
  report->Metric("graph.inline_nearest_p50_us",
                 Median(by_kind[static_cast<int>(QueryKind::kNearestObject)]),
                 "us", by_kind[2].size());
  report->Metric(
      "graph.inline_membership_p50_us",
      Median(by_kind[static_cast<int>(QueryKind::kClusterMembership)]), "us",
      by_kind[3].size());
  report->Metric("graph.settled_per_query",
                 static_cast<double>(work.settled_nodes) / prefix.size(),
                 "count", prefix.size());
  report->Metric("graph.heap_pops_per_query",
                 static_cast<double>(work.heap_pops) / prefix.size(), "count",
                 prefix.size());

  // index: the warm-up hot pairs, then every distance key of every
  // connection's prefix (interleaved), through a cache of the server's
  // capacity.
  netclus::DistanceCache cache(netclus::QueryServerOptions{}.cache_capacity,
                               netclus::QueryServerOptions{}.cache_shards);
  auto touch = [&](ObjectId a, ObjectId b) {
    double d = 0.0;
    Tracer::Scope span(tracer, "index.cache_lookup");
    if (!cache.Lookup(a, b, &d)) {
      QueryResponse r;
      netclus::Status st = netclus::ExecuteQueryInto(
          *boot.view, &boot.frozen, QueryRequest::PointDistance(a, b), &ws,
          nullptr, nullptr, &r);
      if (!st.ok()) report->Mismatch("cache replay: " + st.ToString());
      cache.Store(a, b, r.distance);
    }
  };
  for (const Pair& p : maker.hot_pairs()) touch(p.first, p.second);
  const netclus::DistanceCache::Counters warm = cache.counters();
  for (size_t i = 0; i < kReplayQueries; ++i) {
    for (const auto& s : streams) {
      if (s[i].kind == QueryKind::kPointDistance) touch(s[i].a, s[i].b);
    }
  }
  const netclus::DistanceCache::Counters end = cache.counters();
  const uint64_t lookups =
      end.hits + end.misses - warm.hits - warm.misses;
  report->Metric("index.cache_hit_rate",
                 static_cast<double>(end.hits - warm.hits) / lookups, "ratio",
                 lookups);

  // server: the same prefix through QueryServer::Execute on one caller.
  std::vector<double> inproc_us;
  for (size_t i = 0; i < prefix.size(); ++i) {
    const double t0 = NowSeconds();
    auto r = [&] {
      Tracer::Scope span(tracer, "server.execute", 1 + i);
      return stack->server->Execute(prefix[i]);
    }();
    inproc_us.push_back((NowSeconds() - t0) * 1e6);
    if (!r.ok() || !netclus::ResponsePayloadsEqual(r.value(), inline_resp[i])) {
      report->Mismatch("in-process response differs from inline");
    }
  }
  // net: the same prefix over one TCP connection.
  std::vector<double> tcp_us;
  for (size_t i = 0; i < prefix.size(); ++i) {
    const double t0 = NowSeconds();
    auto r = [&] {
      Tracer::Scope span(tracer, "net.client_execute", 1 + i);
      return stack->clients[0]->Execute(prefix[i]);
    }();
    tcp_us.push_back((NowSeconds() - t0) * 1e6);
    if (!r.ok() || !netclus::ResponsePayloadsEqual(r.value(), inline_resp[i])) {
      report->Mismatch("TCP response differs from inline");
    }
  }
  const double inline_p50 = Median(all_us);
  const double inproc_p50 = Median(inproc_us);
  report->Metric("server.inproc_p50_us", inproc_p50, "us", inproc_us.size());
  report->Metric("server.handoff_p50_us", inproc_p50 - inline_p50, "us",
                 inproc_us.size());
  report->Metric("net.transport_p50_us", Median(tcp_us) - inproc_p50, "us",
                 tcp_us.size());

  // net codec: the stream's own request and response frames.
  std::vector<double> enc_us, dec_us;
  for (size_t i = 0; i < prefix.size(); ++i) {
    const double t0 = NowSeconds();
    std::string qf, rf;
    {
      Tracer::Scope span(tracer, "net.encode", 1 + i);
      qf = netclus::EncodeQueryFrame(prefix[i]);
      rf = netclus::EncodeResponseFrame(inline_resp[i]);
    }
    const double t1 = NowSeconds();
    QueryRequest q;
    QueryResponse r;
    netclus::Status a, b;
    {
      Tracer::Scope span(tracer, "net.decode", 1 + i);
      a = netclus::DecodeQueryPayload(qf.data() + netclus::kFrameHeaderBytes,
                                      qf.size() - netclus::kFrameHeaderBytes,
                                      &q);
      b = netclus::DecodeResponsePayload(
          rf.data() + netclus::kFrameHeaderBytes,
          rf.size() - netclus::kFrameHeaderBytes, &r);
    }
    const double t2 = NowSeconds();
    if (!a.ok() || !b.ok() ||
        !netclus::ResponsePayloadsEqual(r, inline_resp[i])) {
      report->Mismatch("wire codec round trip differs");
    }
    enc_us.push_back((t1 - t0) * 1e6);
    dec_us.push_back((t2 - t1) * 1e6);
  }
  report->Metric("net.encode_us", Median(enc_us), "us", enc_us.size());
  report->Metric("net.decode_us", Median(dec_us), "us", dec_us.size());
}

/// The write path's layers, one at a time, on a fixed mutation prefix:
/// WAL append, point-set build, CSR splice, re-cluster, checkpoint.
void ReplayWriteLayers(const Args& args, EpochModel model,
                       const netclus::ClusterSpec& spec, Tracer* tracer,
                       Report* report) {
  const std::string wal_path = args.workdir + "/replay.wal";
  RemoveWalFiles(wal_path);
  auto file = netclus::PagedFile::Open(wal_path, kWalPageSize, true);
  auto store = netclus::CheckpointStore::Open(wal_path, kWalPageSize);
  if (!file.ok() || !store.ok()) {
    report->Mismatch("replay log: cannot open");
    return;
  }
  auto wal = netclus::MutationWal::Open(file.value().get());
  if (!wal.ok()) {
    report->Mismatch("replay log: " + wal.status().ToString());
    return;
  }
  netclus::PointSet points;
  netclus::IdentityMap ids;
  if (netclus::Status st = model.BuildPoints(&points, &ids); !st.ok()) {
    report->Mismatch("replay point set: " + st.ToString());
    return;
  }
  std::shared_ptr<netclus::FrozenGraph> prev;
  {
    netclus::InMemoryNetworkView view(model.network(), points);
    prev = std::make_shared<netclus::FrozenGraph>(
        netclus::FrozenGraph::Materialize(view));
  }
  std::vector<double> append_us, build_ms, splice_ms, recluster_ms, ckpt_ms;
  uint64_t checkpoint_bytes = 0;
  const size_t start = model.applied();
  for (size_t j = start; j < start + kReplayMutations; ++j) {
    Tracer::Scope update_span(tracer, "bench.update", kWriterRequestBase + j);
    const NetworkUpdate& m = (*model.mutations())[j];
    double t0 = NowSeconds();
    netclus::Status st;
    {
      Tracer::Scope span(tracer, "server.wal_append");
      st = wal.value()->Append(m);
    }
    append_us.push_back((NowSeconds() - t0) * 1e6);
    if (!st.ok() || !model.AdvanceTo(j + 1).ok()) {
      report->Mismatch("replay mutation failed");
      return;
    }
    t0 = NowSeconds();
    {
      Tracer::Scope span(tracer, "graph.pointset_build");
      st = model.BuildPoints(&points, &ids);
    }
    build_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!st.ok()) {
      report->Mismatch("replay point set: " + st.ToString());
      return;
    }
    netclus::InMemoryNetworkView view(model.network(), points);
    std::vector<char> dirty(model.network().num_nodes(), 0);
    if (m.kind == NetworkUpdate::Kind::kAddEdge) dirty[m.u] = dirty[m.v] = 1;
    t0 = NowSeconds();
    std::shared_ptr<netclus::FrozenGraph> fg;
    {
      Tracer::Scope span(tracer, "graph.splice");
      fg = std::make_shared<netclus::FrozenGraph>(
          netclus::FrozenGraph::MaterializeIncremental(view, *prev, dirty));
    }
    splice_ms.push_back((NowSeconds() - t0) * 1e3);
    t0 = NowSeconds();
    auto clusters = [&] {
      Tracer::Scope span(tracer, "core.recluster");
      return netclus::RunClustering(view, spec);
    }();
    recluster_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!clusters.ok()) {
      report->Mismatch("replay re-cluster: " + clusters.status().ToString());
      return;
    }
    prev = fg;
    if ((j + 1 - start) % kCheckpointEvery == 0) {
      const netclus::CheckpointState state =
          model.Checkpoint((j + 1 - start) / kCheckpointEvery);
      t0 = NowSeconds();
      {
        Tracer::Scope span(tracer, "server.checkpoint");
        st = store.value()->Write(state);
      }
      ckpt_ms.push_back((NowSeconds() - t0) * 1e3);
      if (!st.ok()) {
        report->Mismatch("replay checkpoint: " + st.ToString());
        return;
      }
      checkpoint_bytes =
          store.value()->InspectSlot(state.generation % 2).total_bytes;
    }
  }
  report->Metric("server.wal_append_us", Median(append_us), "us",
                 append_us.size());
  report->Metric("graph.pointset_build_ms", Median(build_ms), "ms",
                 build_ms.size());
  report->Metric("graph.splice_ms", Median(splice_ms), "ms", splice_ms.size());
  report->Metric("core.recluster_ms", Median(recluster_ms), "ms",
                 recluster_ms.size());
  report->Metric("server.checkpoint_ms", Median(ckpt_ms), "ms",
                 ckpt_ms.size());
  report->Metric("storage.wal_bytes_per_update",
                 static_cast<double>(file.value()->num_pages()) *
                     kWalPageSize / kReplayMutations,
                 "bytes", kReplayMutations);
  report->Metric("storage.checkpoint_bytes",
                 static_cast<double>(checkpoint_bytes), "bytes", 1);
}

}  // namespace

void RunServe(const Args& args, const World& world, bool writes,
              Tracer* tracer, Report* report) {
  const bool tracing = tracer->enabled();
  const int num_readers = writes ? 1 : ReadClients();
  const netclus::ClusterSpec spec = ServingClusterSpec(world.max_intra_gap);

  auto inputs = LoadStreamInputs(args, world, writes);
  if (!inputs.ok()) {
    report->Mismatch("stream inputs: " + inputs.status().ToString());
    return;
  }
  const StreamMaker& maker = inputs.value().maker;
  const std::vector<NetworkUpdate>& muts = inputs.value().muts;

  // Set-up, several times; the last stack before the window stays up
  // for the run.
  std::vector<double> setup_s, parse_s;
  Stack stack;
  auto set_up = [&] {
    stack.Stop();
    if (writes) RemoveWalFiles(WalPath(args));
    double parse = 0.0;
    auto s = StartStack(args, world, writes, num_readers, tracer, &stack,
                        &parse);
    if (!s.ok()) {
      report->Mismatch("set-up: " + s.status().ToString());
      return false;
    }
    setup_s.push_back(s.value());
    parse_s.push_back(parse);
    return true;
  };
  for (int rep = 0; rep < kSetupsBeforeWindow; ++rep) {
    if (!set_up()) return;
  }
  tracer->set_enabled(false);

  // Warm-up, excluded from every metric: the hot pairs fill the
  // distance cache, each client runs a stretch of its stream, and the
  // writer's first publish is discarded.
  std::vector<RequestStream> streams;
  for (int c = 0; c < num_readers; ++c) {
    streams.emplace_back(&maker, StreamSeed(args.seed, c));
  }
  for (const Pair& p : maker.hot_pairs()) {
    auto r = stack.clients[0]->Execute(
        QueryRequest::PointDistance(p.first, p.second));
    if (!r.ok()) report->Mismatch("warm-up: " + r.status().ToString());
  }
  for (int c = 0; c < num_readers; ++c) {
    while (streams[c].position() < kWarmupQueries) {
      auto r = stack.clients[c]->Execute(streams[c].Next());
      if (!r.ok()) report->Mismatch("warm-up: " + r.status().ToString());
    }
  }
  size_t mut_position = 0;
  if (writes) {
    if (!stack.server->ApplyUpdate(muts[0]).ok() ||
        !stack.server->Flush().ok()) {
      report->Mismatch("warm-up mutation failed");
      return;
    }
    mut_position = 1;
  }
  const netclus::TcpServerStats net_before = stack.tcp->stats();

  // The measured window, tracing off. The traced run then repeats it
  // with tracing on in every other second; the readers' rate in the
  // untraced seconds over the traced ones is the tracing overhead.
  Window w = RunWindow(&stack, &streams, writes ? &muts : nullptr,
                       &mut_position, args.seconds, tracer, false);
  Window traced;
  if (tracing) {
    traced = RunWindow(&stack, &streams, writes ? &muts : nullptr,
                       &mut_position, args.seconds, tracer, true);
  }
  for (const Window* win : {&w, &traced}) {
    for (const ReaderResult& r : win->readers) {
      report->Attempt(r.attempted, r.failed);
    }
    report->Attempt(win->writer.attempted, win->writer.failed);
  }
  const double peak_rss_mb = PeakRssMb();  // before the checks allocate
  const netclus::ServerStats stats = stack.server->stats();
  const netclus::TcpServerStats net_after = stack.tcp->stats();
  const std::vector<double> queue_wait = stack.server->QueueWaitSamplesMs();

  auto loaded = LoadEpochModel(world, &muts);
  if (!loaded.ok()) {
    report->Mismatch("epoch model: " + loaded.status().ToString());
    return;
  }
  const EpochModel& model = loaded.value();

  // --- correctness, outside the timing ---
  std::vector<const Sample*> kept;
  for (const Window* win : {&w, &traced}) {
    for (const ReaderResult& r : win->readers) {
      for (const Sample& s : r.kept) kept.push_back(&s);
    }
  }
  EpochReplica boot;
  if (!writes || tracing) {
    netclus::Status st = BuildReplica(model, spec, &boot);
    if (!st.ok()) report->Mismatch("boot replica: " + st.ToString());
  }
  if (!writes) {
    for (const Sample* s : kept) {
      if (s->resp.epoch != 1) report->Mismatch("read-only run changed epoch");
    }
    CheckSamples(boot, kept, /*identity_ids=*/true, report);
  } else {
    CheckServedWrites(stack.server.get(), model, muts, mut_position, kept,
                      spec, report);
    if (stats.checkpoints_written < 3) {
      report->Mismatch("only " + std::to_string(stats.checkpoints_written) +
                       " checkpoint cycles completed (need 3)");
    }
    if (w.writer.add_edges == 0) {
      report->Mismatch("no AddEdge publish in the measured window");
    }
  }

  if (tracing) {
    tracer->set_enabled(true);
    if (!writes) {
      ReplayReadLayers(&stack, boot, maker, args.seed, tracer, report);
    } else {
      ReplayWriteLayers(args, model, spec, tracer, report);
    }
    std::vector<double> freeze_ms;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double t0 = NowSeconds();
      Tracer::Scope span(tracer, "graph.freeze");
      auto fg = boot.view->Freeze();
      if (!fg.ok()) report->Mismatch("freeze: " + fg.status().ToString());
      freeze_ms.push_back((NowSeconds() - t0) * 1e3);
    }
    tracer->set_enabled(false);
    report->Metric("graph.freeze_ms", Median(freeze_ms), "ms",
                   freeze_ms.size());
  }

  stack.Stop();
  if (writes) CheckMutationLog(args, muts, mut_position, report);
  tracer->set_enabled(tracing);
  for (int rep = kSetupsBeforeWindow; rep < kSetupRepeats; ++rep) {
    if (!set_up()) return;
  }
  tracer->set_enabled(false);
  stack.Stop();
  PrintSamples("set-up seconds", setup_s);

  // --- metrics ---
  // serve_read's operation is a query round trip; serve_write's is a
  // mutation from ApplyUpdate until Flush returns (the reader's queries
  // there are reported per layer).
  const uint64_t completed = w.Completed();
  const std::vector<double>& visible = w.writer.visible_ms;
  if (!tracing) {
    report->Metric("setup_s", Median(setup_s), "s", setup_s.size());
    if (!writes) {
      report->Metric("latency_p50_ms", w.QuietSeconds(&SecondStats::p50_ms),
                     "ms", completed);
      report->Metric("throughput_per_s", w.SustainedRate(), "1/s", completed);
    } else {
      report->Metric("latency_p50_ms", Median(visible), "ms", visible.size());
      report->Metric("throughput_per_s", visible.size() / w.elapsed, "1/s",
                     visible.size());
    }
    report->Metric("peak_rss_mb", peak_rss_mb, "MiB", 1);
    return;
  }
  report->Metric("graph.text_parse_s", Median(parse_s), "s", parse_s.size());
  report->Metric("query_latency_p50_ms",
                 w.QuietSeconds(&SecondStats::p50_ms), "ms", completed);
  report->Metric("query_latency_p99_ms",
                 w.QuietSeconds(&SecondStats::p99_ms), "ms", completed);
  report->Metric("query_throughput_per_s", w.SustainedRate(), "1/s",
                 completed);
  report->Metric("query_latency_median_second_p50_ms",
                 w.MedianSecond(&SecondStats::p50_ms), "ms", completed);
  report->Metric("query_throughput_median_second_per_s", w.MedianRate(),
                 "1/s", completed);
  report->Metric("query_slow_seconds_pct", w.SlowSecondsPct(), "%",
                 static_cast<uint64_t>(w.elapsed));
  std::vector<double> rate[2];
  const std::vector<double> rates = traced.Rates();
  for (size_t i = 0; i < rates.size(); ++i) rate[i % 2].push_back(rates[i]);
  report->Metric("trace.overhead_pct",
                 (Median(rate[0]) / Median(rate[1]) - 1.0) * 100.0, "%",
                 rates.size());
  report->Metric("server.queue_wait_p50_ms", Percentile(queue_wait, 0.5), "ms",
                 queue_wait.size());
  report->Metric("server.queue_wait_p99_ms", Percentile(queue_wait, 0.99),
                 "ms", queue_wait.size());
  report->Metric("server.mean_batch_size", stats.mean_batch_size, "count",
                 stats.batches);
  const uint64_t queries = net_after.queries - net_before.queries;
  report->Metric("net.bytes_per_query",
                 static_cast<double>(net_after.bytes_read +
                                     net_after.bytes_written -
                                     net_before.bytes_read -
                                     net_before.bytes_written) /
                     queries,
                 "bytes", queries);
  if (writes) {
    // p90, or the highest percentile below it that still has ten
    // samples beyond it.
    const size_t n = visible.size();
    const double q = std::max(0.5, std::min(0.9, 1.0 - 10.0 / n));
    std::printf("update_visible_p90_ms is the p%.1f of %zu updates\n",
                100.0 * q, n);
    report->Metric("update_visible_p90_ms", Percentile(visible, q), "ms", n);
    report->Metric("server.publish_ms", stats.mean_publish_incremental_ms, "ms",
                   stats.publishes_incremental);
    report->Metric("index.cache_resets", w.writer.add_edges, "count", 1);
    report->Metric("server.checkpoints", stats.checkpoints_written, "count", 1);
    report->Metric("server.epochs_published", stats.epochs_published, "count",
                   1);
    report->Metric("server.epochs_drained", stats.epochs_drained, "count", 1);
  }
}

}  // namespace perfbench
