// cluster_offline: the paper's own use. One job clusters the parsed SF
// world four times through RunClustering — k-medoids, ε-Link,
// Single-Link cut at 10 clusters, DBSCAN — single-threaded, index off,
// exactly as `netclus_cli cluster` runs them. Core and the traversal
// kernel do all the work; net and server do none.
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/dijkstra.h"
#include "graph/frozen_graph.h"
#include "graph/text_io.h"
#include "netclus.h"
#include "workloads.h"

namespace perfbench {
namespace {

using netclus::ClusterOutput;
using netclus::ClusterSpec;

constexpr int kAlgorithms = 4;
/// k-medoids attempts exactly this many swaps. The paper's stopping rule
/// (15 consecutive rejections) makes the search length, and with it the
/// job time, vary several-fold between seeds; a fixed budget keeps the
/// work per job the same on every seed.
constexpr uint32_t kSwapBudget = 64;
const char* const kSpanNames[kAlgorithms] = {
    "core.kmedoids", "core.epslink", "core.singlelink", "core.dbscan"};

std::vector<ClusterSpec> JobSpecs(uint64_t seed, double eps) {
  netclus::KMedoidsOptions km;
  km.k = 10;
  km.max_swaps = kSwapBudget;
  km.max_unsuccessful_swaps = kSwapBudget;
  km.seed = netclus::Rng::DeriveSeed(seed, 1);
  km.num_threads = 1;
  netclus::EpsLinkOptions el;
  el.eps = eps;
  el.min_sup = 3;
  netclus::SingleLinkOptions sl;
  sl.stop_cluster_count = 10;
  netclus::DbscanOptions db;
  db.eps = eps;
  db.min_pts = 3;
  db.num_threads = 1;
  return {netclus::MakeSpec(km), netclus::MakeSpec(el), netclus::MakeSpec(sl),
          netclus::MakeSpec(db)};
}

/// FNV-1a over the parts of a clustering a regression could change.
class Digest {
 public:
  void Add(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 1099511628211ULL;
  }
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

void DigestOutput(const ClusterOutput& out, Digest* d) {
  d->AddValue(static_cast<int>(out.algorithm));
  d->AddValue(out.clustering.num_clusters);
  std::vector<uint64_t> sizes(out.clustering.num_clusters + 1, 0);
  for (int c : out.clustering.assignment) {
    ++sizes[c < 0 ? out.clustering.num_clusters : c];
  }
  d->Add(sizes.data(), sizes.size() * sizeof(uint64_t));
  d->Add(out.medoids.data(), out.medoids.size() * sizeof(out.medoids[0]));
  d->AddValue(out.cost);
}

struct Job {
  double seconds = 0.0;
  double algorithm_ms[kAlgorithms] = {0, 0, 0, 0};
  uint64_t digest = 0;
  std::vector<netclus::PointId> medoids;
  double cost = 0.0;
  netclus::KMedoidsStats kmedoids;
  netclus::TraversalCounters traversal;
};

netclus::Result<Job> RunJob(const netclus::NetworkView& view,
                            const std::vector<ClusterSpec>& specs,
                            Tracer* tracer, uint64_t job_id) {
  Job job;
  Digest digest;
  const netclus::TraversalCounters before = netclus::LocalTraversalCounters();
  Tracer::Scope job_span(tracer, "bench.job", job_id);
  const double start = NowSeconds();
  for (int a = 0; a < kAlgorithms; ++a) {
    const double t0 = NowSeconds();
    Tracer::Scope span(tracer, kSpanNames[a]);
    NETCLUS_ASSIGN_OR_RETURN(ClusterOutput out,
                             netclus::RunClustering(view, specs[a]));
    job.algorithm_ms[a] = (NowSeconds() - t0) * 1e3;
    if (a == 0) {
      job.kmedoids = out.kmedoids_stats;
      job.medoids = out.medoids;
      job.cost = out.cost;
    }
    DigestOutput(out, &digest);
  }
  job.seconds = NowSeconds() - start;
  job.traversal = netclus::LocalTraversalCounters() - before;
  job.digest = digest.value();
  return job;
}

}  // namespace

void RunClusterOffline(const Args& args, const World& world, Tracer* tracer,
                       Report* report) {
  // Set-up: parse the dataset text, as `netclus_cli cluster` does.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const double t0 = NowSeconds();
    Tracer::Scope span(tracer, "graph.text_parse");
    auto parsed = netclus::LoadNetworkFile(world.dataset_path);
    if (parsed.ok()) {
      setup_s.push_back(NowSeconds() - t0);
    } else {
      report->Mismatch("parse: " + parsed.status().ToString());
    }
    return parsed;
  };
  netclus::Network net;
  netclus::PointSet points;
  for (int i = 0; i < kSetupsBeforeWindow; ++i) {
    net = netclus::Network();  // one parsed copy alive at a time
    points = netclus::PointSet();
    auto parsed = set_up();
    if (!parsed.ok()) return;
    net = std::move(parsed.value().first);
    points = std::move(parsed.value().second);
  }
  netclus::InMemoryNetworkView view(net, points);
  const std::vector<ClusterSpec> specs =
      JobSpecs(args.seed, world.max_intra_gap);

  // Warm-up: the first job is discarded; its digest is the reference.
  const bool tracing = tracer->enabled();
  tracer->set_enabled(false);
  auto first = RunJob(view, specs, tracer, 1);
  if (!first.ok()) {
    report->Mismatch("warm-up job: " + first.status().ToString());
    return;
  }
  const uint64_t reference = first.value().digest;

  // Timed closed loop: whole jobs until the run's time is used up. The
  // traced run alternates traced and untraced jobs so the tracing cost
  // is measured on the same process and the same inputs.
  std::vector<double> job_ms, traced_job_ms;
  std::vector<Job> traced_jobs;
  double elapsed = 0.0;
  uint64_t attempted = 0, failed = 0;
  for (uint64_t id = 2; elapsed < args.seconds || job_ms.empty() ||
                        (tracing && traced_jobs.size() < 2);
       ++id) {
    const bool traced_job = tracing && id % 2 == 0;
    tracer->set_enabled(traced_job);
    auto job = RunJob(view, specs, tracer, id);
    tracer->set_enabled(false);
    ++attempted;
    if (!job.ok()) {
      ++failed;
      report->Mismatch("job: " + job.status().ToString());
      break;
    }
    if (job.value().digest != reference) {
      report->Mismatch("job " + std::to_string(id) +
                       " digest differs from the first job's");
    }
    if (traced_job) {
      traced_job_ms.push_back(job.value().seconds * 1e3);
      traced_jobs.push_back(job.value());
    } else {
      job_ms.push_back(job.value().seconds * 1e3);
      elapsed += job.value().seconds;
    }
  }
  report->Attempt(attempted, failed);
  const double peak_rss_mb = PeakRssMb();  // before the checks allocate
  PrintSamples("job ms", job_ms);

  // Outside the timing: the same job once more under the invariant
  // validators — except k-medoids, whose validator re-runs a Dijkstra
  // per sampled point and takes close to a minute at this size. Its
  // result is checked instead by recomputing the cost of the final
  // medoids with an independent full assignment.
  std::vector<ClusterSpec> validated = specs;
  for (size_t a = 1; a < validated.size(); ++a) validated[a].validate = true;
  auto checked = RunJob(view, validated, nullptr, 0);
  if (!checked.ok()) {
    report->Mismatch("validated job: " + checked.status().ToString());
  } else if (checked.value().digest != reference) {
    report->Mismatch("validated job digest differs");
  }
  auto assigned = netclus::AssignToMedoids(view, first.value().medoids);
  if (!assigned.ok() || assigned.value().cost != first.value().cost) {
    report->Mismatch("k-medoids cost differs from a fresh assignment");
  }
  tracer->set_enabled(tracing);
  for (int i = kSetupsBeforeWindow; i < kSetupRepeats; ++i) {
    if (!set_up().ok()) return;
  }
  tracer->set_enabled(false);
  PrintSamples("set-up seconds", setup_s);

  if (!tracing) {
    report->Metric("setup_s", Median(setup_s), "s", setup_s.size());
    report->Metric("latency_p50_ms", Median(job_ms), "ms", job_ms.size());
    report->Metric("throughput_per_s", job_ms.size() / elapsed, "1/s",
                   job_ms.size());
    report->Metric("peak_rss_mb", peak_rss_mb, "MiB", 1);
    return;
  }

  // Traced run: per-layer breakdown.
  for (size_t i = 1; i < traced_jobs.size(); ++i) {
    const Job& a = traced_jobs[0];
    const Job& b = traced_jobs[i];
    if (a.traversal.settled_nodes != b.traversal.settled_nodes ||
        a.traversal.heap_pops != b.traversal.heap_pops ||
        a.kmedoids.attempted_swaps != b.kmedoids.attempted_swaps ||
        a.kmedoids.committed_swaps != b.kmedoids.committed_swaps) {
      report->Mismatch("exact work counts differ between identical jobs");
    }
  }
  tracer->set_enabled(true);
  std::vector<double> freeze_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = NowSeconds();
    Tracer::Scope span(tracer, "graph.freeze");
    auto fg = view.Freeze();
    if (!fg.ok()) report->Mismatch("freeze: " + fg.status().ToString());
    freeze_ms.push_back((NowSeconds() - t0) * 1e3);
  }
  tracer->set_enabled(false);
  const Job& job = traced_jobs[0];
  for (int a = 0; a < kAlgorithms; ++a) {
    std::vector<double> ms;
    for (const Job& j : traced_jobs) ms.push_back(j.algorithm_ms[a]);
    report->Metric(std::string(kSpanNames[a]) + "_ms", Median(ms), "ms",
                   ms.size());
  }
  report->Metric("core.kmedoids_swaps_attempted", job.kmedoids.attempted_swaps,
                 "count", 1);
  report->Metric("core.kmedoids_swaps_committed", job.kmedoids.committed_swaps,
                 "count", 1);
  report->Metric("graph.settled_per_job", job.traversal.settled_nodes, "count",
                 1);
  report->Metric("graph.heap_pops_per_job", job.traversal.heap_pops, "count",
                 1);
  report->Metric("graph.freeze_ms", Median(freeze_ms), "ms", freeze_ms.size());
  report->Metric("graph.text_parse_s", Median(setup_s), "s", setup_s.size());
  report->Metric("trace.overhead_pct",
                 (Median(traced_job_ms) / Median(job_ms) - 1.0) * 100.0, "%",
                 traced_job_ms.size());
}

}  // namespace perfbench
