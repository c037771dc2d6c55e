#ifndef SETREC_PERFBENCH_REPORT_H_
#define SETREC_PERFBENCH_REPORT_H_

// Named metrics with units and sample counts, exact quantiles from raw
// samples, and the clocks the benchmark reads.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace setrec::perf {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// How many observations the value summarizes (sessions, steps, keys...).
  size_t samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// One `metric <name> <value> <unit> samples=<n>` line per metric.
  void Print(std::FILE* out) const;

 private:
  std::vector<Metric> metrics_;
};

/// The benchmark's result line: exactly the keys correct, attempted,
/// failed and metrics, every value with all its digits.
std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const Report& report);

/// Nearest-rank quantile of the raw samples (sorts `samples`); 0 when
/// empty.
uint64_t ExactQuantile(std::vector<uint64_t>* samples, double q);

/// num / den, or 0 when den is 0 (a layer the workload never reaches).
double Ratio(double num, double den);

/// User and system CPU seconds of the process (RUSAGE_SELF) or of the
/// calling thread (RUSAGE_THREAD).
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
  double total() const { return user_s + sys_s; }
};
CpuTimes ProcessCpu();
CpuTimes ThreadCpu();

/// Peak resident set of this process in MiB (ru_maxrss).
double PeakRssMb();

}  // namespace setrec::perf

#endif  // SETREC_PERFBENCH_REPORT_H_
