// Shared configuration for the paper-reproduction benches: a "cloud
// profile" world that approximates the paper's testbed (§VII): ~5 ms one-way
// datacenter-ish latency (so a consensus step lands near the measured
// 11.4 ms), bandwidth-limited snapshot transfers (Cinder-on-Ceph volumes are
// slow), 512 B requests, 20 ms heartbeats under the core's fixed 100-200 ms
// election timeout.
#pragma once

#include <cstdio>
#include <string>

#include "harness/checkers.h"
#include "harness/client.h"
#include "harness/world.h"

namespace recraft::bench {

inline harness::WorldOptions CloudProfile(uint64_t seed = 1) {
  harness::WorldOptions o;
  o.seed = seed;
  o.net.base_latency = 5 * kMillisecond;
  o.net.jitter = 500;  // +/- 0.5 ms
  o.net.bandwidth_bytes_per_sec = 32ULL << 20;  // 32 MB/s volume-ish
  o.node.heartbeat_ticks = 2;  // 20 ms heartbeats
  return o;
}

inline harness::ClientOptions PaperClient() {
  harness::ClientOptions c;
  c.value_bytes = 512;  // the paper uses 512 B requests
  c.key_space = 100000;
  return c;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline double Ms(Duration d) { return static_cast<double>(d) / 1000.0; }
inline double Sec(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

}  // namespace recraft::bench
