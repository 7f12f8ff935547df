// Small helpers shared by the perfbench workloads: wall clocks, order
// statistics, and the one-line JSON result every sub-command prints last.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using WallClock = std::chrono::steady_clock;

inline double SecondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

inline uint64_t NanosSince(WallClock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() -
                                                           t0)
          .count());
}

/// Nearest-rank percentile (p in [0,100]) of an unsorted sample; 0 when
/// the sample is empty.
template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return static_cast<double>(v[rank]);
}

template <typename T>
double Median(const std::vector<T>& v) {
  if (v.empty()) return 0;
  std::vector<T> s = v;
  std::sort(s.begin(), s.end());
  size_t n = s.size();
  return n % 2 == 1 ? static_cast<double>(s[n / 2])
                    : (static_cast<double>(s[n / 2 - 1]) +
                       static_cast<double>(s[n / 2])) /
                          2.0;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set of this process in MiB (VmHWM), 0 if unreadable.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  double value = 0;
  std::string unit;
};

/// name -> {value, unit}; ordered so the output is stable.
using Metrics = std::map<std::string, Metric>;

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// The last line of every sub-command: whether every check passed, the op
/// counts, and the metrics. run.py re-reads it and prints the final
/// contract line.
inline void PrintResult(bool correct, const std::string& error,
                        uint64_t attempted, uint64_t failed,
                        const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"error\": \"" + JsonEscape(error) + "\"";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
