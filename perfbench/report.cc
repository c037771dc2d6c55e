#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace setrec::perf {

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit,
                            samples});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::Print(std::FILE* out) const {
  for (const Metric& m : metrics_) {
    std::fprintf(out, "metric %-36s %16.6f %-6s samples=%zu\n",
                 m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  }
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const Report& report) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  return json;
}

uint64_t ExactQuantile(std::vector<uint64_t>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double rank = std::ceil(q * static_cast<double>(samples->size()));
  const size_t index =
      rank < 1 ? 0 : std::min(samples->size(), static_cast<size_t>(rank)) - 1;
  return (*samples)[index];
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

namespace {

CpuTimes Rusage(int who) {
  rusage usage{};
  getrusage(who, &usage);
  CpuTimes t;
  t.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
  t.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
  return t;
}

}  // namespace

CpuTimes ProcessCpu() { return Rusage(RUSAGE_SELF); }
CpuTimes ThreadCpu() { return Rusage(RUSAGE_THREAD); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace setrec::perf
