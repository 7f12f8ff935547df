#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

struct LoadOptions {
  std::string hosts;     // phonebook of the three daemons
  uint64_t seed = 1;
  double seconds = 0;    // 0: stop after the first acknowledged op
  bool trace = false;
  std::string tmp_dir;   // where the storage probe may write
};

/// Drives the running cluster and prints the protocol lines and the
/// result line described in real_load.cpp. Returns the exit code.
int RunRealLoad(const LoadOptions& opts);

}  // namespace perfbench
