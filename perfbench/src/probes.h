// Layer probes the traced runs make in the benchmark process itself: each
// times calls into one module's public functions on an input shaped like
// the workload's.
#pragma once

#include <cstddef>
#include <string>

#include "report.h"

namespace perfbench {

struct LayerProbes {
  bool ok = true;
  std::string error;
  double rtt_p50_us = 0;      // UdpTransport ping-pong, AppendEntries out
  double encode_ns = 0;       // net::wire encode of that AppendEntries
  double decode_ns = 0;       // and its decode
  double fdatasync_us_p50 = 0;  // FileDisk Append + Flush of one record

  void AddTo(Metrics* m) const {
    (*m)["net.rtt_p50_us"] = {rtt_p50_us, "us"};
    (*m)["net.encode_ns"] = {encode_ns, "ns"};
    (*m)["net.decode_ns"] = {decode_ns, "ns"};
    (*m)["storage.fdatasync_us_p50"] = {fdatasync_us_p50, "us"};
  }
};

/// Runs the net and storage probes. `value_bytes` shapes the replicated
/// put; the FileDisk probe writes under `tmp_dir`.
LayerProbes RunLayerProbes(size_t value_bytes, const std::string& tmp_dir);

struct KvMicro {
  double apply_ns_p50 = 0;
  double query_ns_p50 = 0;
};

/// kv::KvMachine Apply (puts) and Query (gets) on workload-shaped commands,
/// in process: the apply step a real-process op pays on every replica.
KvMicro RunKvMicro(size_t value_bytes);

}  // namespace perfbench
