#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// Runs sim_write or sim_reconfig for about `seconds` of wall time, prints
/// a human-readable summary and the result line. Returns the exit code.
/// `batch` > 0 replaces the workload's ops in flight per client (to
/// reproduce the batched-write defect METRICS.md describes).
int RunSimWorkload(const std::string& workload, uint64_t seed, double seconds,
                   bool trace, const std::string& tmp_dir, size_t batch = 0);

/// Builds one fresh world of the workload and runs it to the first
/// acknowledged op; prints the result line with `setup_s`. Run in a fresh
/// process, so the figure includes what a cold start pays.
int RunSimSetup(const std::string& workload, uint64_t seed);

}  // namespace perfbench
