// perfbench: the netclus benchmark executable.
//
//   perfbench --workload serve_read|serve_write|cluster_offline
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--trace-dir DIR]
//
// Generates the SF world from the seed into DIR (not timed), runs the
// workload for S seconds, checks its outputs, and prints a table plus,
// as the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer metrics of the layers the workload
// exercises, and the spans go to <workload>.spans.jsonl in the
// --trace-dir directory. Any correctness mismatch exits 1 without a
// result line.
#include <cstdio>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  const Args& a = args.value();
  if (a.workload != "serve_read" && a.workload != "serve_write" &&
      a.workload != "cluster_offline") {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }

  const double t0 = NowSeconds();
  auto world = GenerateWorld(a.seed, a.workdir);
  if (!world.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", world.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "world: SF, %u nodes, %u points, eps %.6f (generated in %.1fs, "
      "peak rss %.1f MiB)\n",
      world.value().num_nodes, world.value().num_points,
      world.value().max_intra_gap, NowSeconds() - t0, PeakRssMb());

  Tracer tracer(a.trace);
  Report report;
  if (a.workload == "cluster_offline") {
    RunClusterOffline(a, world.value(), &tracer, &report);
  } else {
    RunServe(a, world.value(), a.workload == "serve_write", &tracer, &report);
  }

  if (a.trace) {
    for (const auto& [layer, ms] : tracer.SelfTimeMsByLayer()) {
      std::printf("self time %-10s %12.3f ms\n", layer.c_str(), ms);
    }
    if (!a.trace_dir.empty()) {
      const std::string path =
          a.trace_dir + "/" + a.workload + ".spans.jsonl";
      if (tracer.Write(path)) {
        std::printf("spans: %zu written to %s\n", tracer.num_spans(),
                    path.c_str());
      }
    }
  }
  return report.Finish();
}
