#ifndef VERO_CLUSTER_NETWORK_MODEL_H_
#define VERO_CLUSTER_NETWORK_MODEL_H_

#include <cstdint>

namespace vero {

/// Analytic cost model that converts counted bytes into simulated network
/// time. The simulated cluster moves real bytes through shared memory, so
/// communication *volume* is measured, not modeled; this class only supplies
/// the time per op:
///
///   time(op) = latency + max(bytes_sent, bytes_received) / bandwidth
///
/// per worker (full-duplex NIC, which is how the paper's per-node 1 Gbps
/// Ethernet behaves). Defaults follow §5.1's laboratory cluster; the
/// industrial benches switch to the 10 Gbps production profile of §6.
struct NetworkModel {
  /// Per-operation latency in seconds (switch + software stack).
  double latency_seconds = 2e-4;
  /// Per-node full-duplex bandwidth in bytes/second. 1 Gbps = 125 MB/s.
  double bandwidth_bytes_per_second = 125e6;

  /// The paper's laboratory cluster (§5.1): 1 Gbps Ethernet (LAN-grade
  /// ~0.2 ms per-op software + switch latency).
  static NetworkModel Lab1Gbps() { return NetworkModel{2e-4, 125e6}; }
  /// The paper's production cluster (§6): 10 Gbps Ethernet.
  static NetworkModel Production10Gbps() { return NetworkModel{1e-4, 1.25e9}; }

  double OpSeconds(uint64_t bytes_sent, uint64_t bytes_received) const {
    const uint64_t wire = bytes_sent > bytes_received ? bytes_sent
                                                      : bytes_received;
    return latency_seconds +
           static_cast<double>(wire) / bandwidth_bytes_per_second;
  }
};

/// Per-worker communication counters, accumulated across collective calls.
struct CommStats {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t num_ops = 0;
  /// Simulated network seconds under the cluster's NetworkModel.
  double sim_seconds = 0.0;
  /// Fault-injection accounting (all zero on a failure-free run): bytes
  /// re-sent because a transfer arrived corrupt/short, how many retries that
  /// took, and straggler seconds added by injected delays. Retried bytes are
  /// *also* counted in bytes_sent/bytes_received (they crossed the wire);
  /// these fields isolate the overhead.
  uint64_t retransmitted_bytes = 0;
  uint64_t num_retries = 0;
  double fault_delay_seconds = 0.0;
  /// Straggler-mitigation accounting (all zero in strict mode). A deferred
  /// or speculated rank's injected delay moves off the critical path into
  /// absorbed_delay_seconds instead of sim_seconds; on-time ranks of a
  /// bounded round pay the deadline into sim_seconds and mirror it here in
  /// deadline_wait_seconds; a speculative backup's duplicated transfer is
  /// *also* counted in bytes_sent/bytes_received (it crossed the wire) and
  /// isolated here as speculative_bytes / speculative_seconds (goodput
  /// waste). deferred_contributions counts calls whose payload this rank
  /// had dropped from the aggregate.
  double absorbed_delay_seconds = 0.0;
  double deadline_wait_seconds = 0.0;
  uint64_t deferred_contributions = 0;
  uint64_t speculative_bytes = 0;
  double speculative_seconds = 0.0;
  /// Histogram-compression accounting (all zero with compression off). For
  /// every collective run with the codec on (CollectivePolicy::codec),
  /// codec_raw_bytes counts the uncompressed payload volume this rank
  /// exchanged (what the uncompressed path would have shipped) and
  /// codec_wire_bytes the encoded frames actually priced by the network
  /// model; the spread is the bytes the codec kept off the wire. Wire bytes
  /// are *also* counted in bytes_sent/bytes_received (they crossed the
  /// wire); these fields isolate the compression effect.
  uint64_t codec_raw_bytes = 0;
  uint64_t codec_wire_bytes = 0;

  CommStats& operator+=(const CommStats& other) {
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    num_ops += other.num_ops;
    sim_seconds += other.sim_seconds;
    retransmitted_bytes += other.retransmitted_bytes;
    num_retries += other.num_retries;
    fault_delay_seconds += other.fault_delay_seconds;
    absorbed_delay_seconds += other.absorbed_delay_seconds;
    deadline_wait_seconds += other.deadline_wait_seconds;
    deferred_contributions += other.deferred_contributions;
    speculative_bytes += other.speculative_bytes;
    speculative_seconds += other.speculative_seconds;
    codec_raw_bytes += other.codec_raw_bytes;
    codec_wire_bytes += other.codec_wire_bytes;
    return *this;
  }
  CommStats operator-(const CommStats& other) const {
    CommStats d;
    d.bytes_sent = bytes_sent - other.bytes_sent;
    d.bytes_received = bytes_received - other.bytes_received;
    d.num_ops = num_ops - other.num_ops;
    d.sim_seconds = sim_seconds - other.sim_seconds;
    d.retransmitted_bytes = retransmitted_bytes - other.retransmitted_bytes;
    d.num_retries = num_retries - other.num_retries;
    d.fault_delay_seconds = fault_delay_seconds - other.fault_delay_seconds;
    d.absorbed_delay_seconds =
        absorbed_delay_seconds - other.absorbed_delay_seconds;
    d.deadline_wait_seconds =
        deadline_wait_seconds - other.deadline_wait_seconds;
    d.deferred_contributions =
        deferred_contributions - other.deferred_contributions;
    d.speculative_bytes = speculative_bytes - other.speculative_bytes;
    d.speculative_seconds = speculative_seconds - other.speculative_seconds;
    d.codec_raw_bytes = codec_raw_bytes - other.codec_raw_bytes;
    d.codec_wire_bytes = codec_wire_bytes - other.codec_wire_bytes;
    return d;
  }
};

}  // namespace vero

#endif  // VERO_CLUSTER_NETWORK_MODEL_H_
