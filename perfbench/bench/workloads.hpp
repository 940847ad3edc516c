// The benchmark's four workloads, each built from the program's public rig
// builders and driven only from outside through Simulator::run_until.
//
// One call to run_rep() builds a fresh rig, simulates a fixed, seeded
// window, reads every public counter the per-layer ledger needs, checks the
// outputs, and tears the rig down. The simulated window is the same on
// every repetition, so everything simulated repeats exactly for one seed;
// only host time varies.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc_probe.hpp"
#include "fleet/maglev.hpp"
#include "net/addr.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Workload { kKeepaliveSmall, kConnPerRequest, kBulk64k, kFleetHold };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// Inputs a traced repetition saw, kept for the per-layer replay timers.
struct Capture {
  /// Frames put on the measured links during the measure window (bytes as
  /// on the wire), up to a byte budget.
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t frame_bytes{0};
  /// Server ports whose inbound TCP payload is an HTTP request stream.
  std::uint16_t http_port_lo{0};
  std::uint16_t http_port_hi{0};
  /// Capacity of the workload's socket rings (TcpConfig send/recv_buf).
  std::size_t ring_capacity{0};
  /// Steering tier state at the end of the run (fleet only).
  std::optional<neat::fleet::MaglevTable> maglev;
  std::vector<std::pair<neat::net::FlowKey, int>> tracked_flows;
};

/// Per-packet call counts of each replayed layer function, read from the
/// run's own counters. "Packet" is a frame counted by the headline metric.
struct CallsPerPkt {
  double events{0};          ///< EventQueue events executed
  double rss_hashes{0};      ///< Toeplitz hashes (RSS-steered receptions)
  double checksum_kb{0};     ///< KiB checksummed on transmit
  double ipc_msgs{0};        ///< channel messages delivered
  double ring_bytes{0};      ///< bytes written to (and read from) ByteRings
  double http_requests{0};   ///< requests parsed by the servers
  double maglev_lookups{0};  ///< flows steered by the maglev table
  double ipc_batch{1};       ///< messages per delivery job (replay shape)
};

/// One named metric value with its unit (per-layer counts and ratios,
/// and the report's rows).
struct Count {
  std::string name;
  double value;
  const char* unit;
};

struct RepOptions {
  std::uint64_t seed{1};
  /// Traced repetition: FlowTracer on, spans recorded, frames captured.
  bool traced{false};
  SpanLog* spans{nullptr};
  int parent_span{-1};
  Capture* capture{nullptr};
  /// After the timed window, stop offering load, let the rig drain and
  /// check the exact channel and packet-pool conservation laws.
  bool quiesce{false};
  /// Traced repetitions write the program's FlowTracer export (chrome
  /// JSON) to files starting with this prefix; empty = none.
  std::string flow_trace_prefix;
};

struct RepResult {
  // Host time (seconds).
  double setup_server_s{0};
  double setup_client_s{0};
  double run_s{0};
  // Headline counts over the whole simulated run.
  std::uint64_t pkts{0};
  // Measure-window outputs.
  double measure_sim_s{0};
  std::uint64_t requests{0};
  std::uint64_t payload_bytes{0};
  /// Request (ping) latency over the measure window, in simulated ns.
  neat::obs::Histogram latency;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Deterministic per-layer counts and ratios (name, value), in the
  /// order they are reported. Identical across repetitions of one seed.
  std::vector<Count> counts;
  /// Allocation-probe results over the simulated run.
  AllocCounters run_allocs;
  double allocs_per_conn{0};
  double fleet_bytes_per_conn{0};
  double fleet_allocs_per_conn{0};
  CallsPerPkt calls;
  std::uint64_t trace_events{0};
  /// Failed output checks; empty when every check held.
  std::vector<std::string> errors;

  [[nodiscard]] double setup_s() const {
    return setup_server_s + setup_client_s;
  }
  [[nodiscard]] double pkts_per_host_s() const {
    return run_s > 0 ? static_cast<double>(pkts) / run_s : 0.0;
  }
};

/// Quantile of a program histogram, interpolated linearly inside the
/// log-linear bucket that holds the q-th ranked sample. The program's own
/// Histogram::quantile returns that bucket's upper edge, which moves in
/// steps of up to 1/16; interpolation keeps the reported value continuous
/// while staying inside the same bucket.
[[nodiscard]] double interpolated_quantile(const neat::obs::Histogram& h,
                                           double q);

/// Build, simulate, measure, check and tear down one repetition.
[[nodiscard]] RepResult run_rep(Workload w, const RepOptions& opt);

}  // namespace perfbench
