// Shared pieces of the hwbench driver: run arguments, sample statistics,
// the result being assembled, and the host/config fingerprint.

#ifndef HWBENCH_COMMON_H_
#define HWBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hwbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and one set-up repetition; for the smoke test only.
  bool smoke = false;
  /// Directory the WAL files live in (created and removed by the caller).
  std::string work_dir;
};

/// A bag of measurements with nearest-rank quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank quantile (the value at rank ceil(q*n)); 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

double NowSeconds();

/// The timed phases of the serving workloads run as this many slices each,
/// taking turns (one slice of every phase, then the next round), and each
/// end-to-end value is the median of its phase's per-slice values: a burst
/// of noise from other tenants of the host then lands in a few slices of
/// every phase and moves none of the medians.
constexpr uint32_t kSlices = 10;

/// Everything one run reports: the pass/fail accounting, every metric the
/// workload measured (end-to-end and per-layer alike; main() prints the
/// set the --trace mode asks for) and the fingerprint entries.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1);

  /// Counts `n` attempted operations.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations or failed checks; `what` goes to stderr
  /// (the first few times) so a failure can be traced from the log.
  void Fail(const std::string& what, uint64_t n = 1);

  void Note(const std::string& key, const std::string& value) {
    fingerprint_[key] = value;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  struct Metric {
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
  };
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::map<std::string, std::string>& fingerprint() const {
    return fingerprint_;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> fingerprint_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint32_t fail_logs_ = 0;
};

/// Runs `setup` `reps` times and reports the median wall time as setup_s;
/// the caller keeps the last repetition's state.
void TimeSetup(Report* report, uint32_t reps,
               const std::function<void()>& setup);

/// Adds the host half of the fingerprint: cores, ISA, simd backend, caches,
/// build type, and the filesystem type under `dir`.
void NoteHost(Report* report, const std::string& dir);

/// The aggregate cpu line of /proc/stat: jiffies the hypervisor stole from
/// all vCPUs, and all jiffies; zeros when it cannot be read.
struct CpuJiffies {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuJiffies ReadCpuJiffies();

/// JSON string literal for `s`.
std::string JsonString(const std::string& s);

/// (name, unit) of the metrics the result line carries: the end-to-end list
/// with --trace 0, the per-layer list with --trace 1. A per-layer metric of
/// a layer the run's workload does not use reads 0.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// The three workloads. Each sets up its inputs (timed into setup_s),
/// warms up, measures for args.seconds, checks every output and fills the
/// report.
void RunKvServe(const Args& args, Report* report);
void RunTpcc(const Args& args, Report* report);
void RunAnalytics(const Args& args, Report* report);

}  // namespace hwbench

#endif  // HWBENCH_COMMON_H_
