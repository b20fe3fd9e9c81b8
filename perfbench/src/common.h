// Shared plumbing of the netclus benchmark: command-line arguments, the
// generated world, sample statistics, and the result report whose last
// line is the machine-readable JSON object.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace perfbench {

/// Set-ups per run; `setup_s` is their median. Set-up is about a second
/// of parsing, and the host's interference comes in bursts of seconds,
/// so a median of few set-ups swings with the burst that one run hit.
/// The first kSetupsBeforeWindow run before the measured window, the
/// rest after it, so that no single burst covers them all.
constexpr int kSetupRepeats = 7;
constexpr int kSetupsBeforeWindow = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run scratch directory (dataset text, mutation log, checkpoint
  /// slots); created and removed by the caller.
  std::string workdir;
  /// Directory the span file is written into when tracing.
  std::string trace_dir;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 --workdir D
/// [--trace-dir D]`; InvalidArgument on anything else.
netclus::Result<Args> ParseArgs(int argc, char** argv);

/// The generated inputs every workload starts from.
struct World {
  /// The dataset in the text format `netclus_cli` reads.
  std::string dataset_path;
  /// Largest gap between consecutive points of one generated cluster —
  /// the generator's canonical eps for the density methods.
  double max_intra_gap = 0.0;
  netclus::NodeId num_nodes = 0;
  netclus::PointId num_points = 0;
};

/// Generates the paper's SF world at full size (~175k nodes, 3 points
/// per node in k = 10 clusters, 1% outliers) from `seed` and writes it
/// to `<dir>/dataset.txt`. Not timed.
netclus::Result<World> GenerateWorld(uint64_t seed, const std::string& dir);

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

/// Nearest-rank percentile (q in [0, 1]) of `samples`; sorts a copy.
double Percentile(std::vector<double> samples, double q);

/// Median of `samples` (0 when empty).
double Median(std::vector<double> samples);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Prints `label` and every sample, for the human-readable output.
void PrintSamples(const char* label, const std::vector<double>& samples);

/// \brief Collects the run's verdict and metrics, then prints a
/// human-readable table followed by the one-line JSON result.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              uint64_t samples);
  void Attempt(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records a correctness mismatch; the run then exits non-zero
  /// without printing a result.
  void Mismatch(const std::string& what);
  bool correct() const { return mismatches_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints the table and, when every check passed, the JSON line.
  /// Returns the process exit code.
  int Finish() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> mismatches_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
