#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "gen/network_gen.h"
#include "gen/workload_gen.h"
#include "graph/text_io.h"

namespace perfbench {

using netclus::Result;
using netclus::Status;

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value: " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Status::InvalidArgument("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 60.0) {
        return Status::InvalidArgument("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("bad --trace " + value);
      }
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
      have_workdir = true;
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_workdir) {
    return Status::InvalidArgument("--workload and --workdir are required");
  }
  return a;
}

Result<World> GenerateWorld(uint64_t seed, const std::string& dir) {
  // The SF construction of the experiment harnesses: the full-size SF
  // road network (fixed network seed) with N = 3 |V| points in k = 10
  // clusters and 1% uniform outliers. s_init makes the clusters cover
  // ~6% of the total edge length (mean spacing 3 s_init at F = 5). The
  // workload seed picks the point placement.
  netclus::GeneratedNetwork gen =
      netclus::GenerateRoadNetwork(netclus::SpecSF(1.0));
  netclus::ClusterWorkloadSpec spec;
  spec.total_points =
      static_cast<netclus::PointId>(3.0 * gen.net.num_nodes());
  spec.num_clusters = 10;
  spec.outlier_fraction = 0.01;
  spec.magnification = 5.0;
  double total_length = 0.0;
  for (const netclus::Edge& e : gen.net.Edges()) total_length += e.weight;
  spec.s_init = 0.06 * total_length /
                (3.0 * static_cast<double>(static_cast<netclus::PointId>(
                           0.99 * spec.total_points)));
  spec.seed = seed;
  NETCLUS_ASSIGN_OR_RETURN(netclus::GeneratedWorkload w,
                           netclus::GenerateClusteredPoints(gen.net, spec));
  World world;
  world.dataset_path = dir + "/dataset.txt";
  world.max_intra_gap = w.max_intra_gap;
  world.num_nodes = gen.net.num_nodes();
  world.num_points = w.points.size();
  NETCLUS_RETURN_IF_ERROR(
      netclus::SaveNetworkFile(world.dataset_path, gen.net, &w.points));
  return world;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  if (rank == 0) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void PrintSamples(const char* label, const std::vector<double>& samples) {
  std::printf("%s:", label);
  for (double v : samples) std::printf(" %.4g", v);
  std::printf("\n");
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, uint64_t samples) {
  entries_.push_back(Entry{name, value, unit, samples});
}

void Report::Mismatch(const std::string& what) {
  mismatches_.push_back(what);
}

int Report::Finish() const {
  for (const std::string& m : mismatches_) {
    std::fprintf(stderr, "MISMATCH: %s\n", m.c_str());
  }
  std::printf("%-40s %16s  %-6s %10s\n", "metric", "value", "unit",
              "samples");
  for (const Entry& e : entries_) {
    std::printf("%-40s %16.6f  %-6s %10llu\n", e.name.c_str(), e.value,
                e.unit.c_str(), static_cast<unsigned long long>(e.samples));
  }
  std::printf("attempted %llu  failed %llu  correct %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct() ? "yes" : "NO");
  if (!correct() || attempted_ == 0) {
    std::fflush(stdout);
    return 1;
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", entries_[i].value);
    json += (i == 0 ? "\"" : ", \"") + entries_[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + entries_[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
