// Per-layer replay timers.
//
// The benchmark cannot time a layer inside the running simulation without
// tracing inside src/, so it times each layer's public functions on the
// inputs the workload actually produced (frames captured from the link
// tap, the steering tier's flows) and multiplies by the run's exact call
// counts. These are isolated costs — warm caches, no interleaving — not
// in-situ self time; the ledger reports the unattributed remainder.
#pragma once

#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerCosts {
  double sim_ns_per_event{0};
  double rss_ns_per_frame{0};
  double decode_ns_per_frame{0};
  double checksum_ns_per_kb{0};
  double ipc_ns_per_msg{0};
  double ring_gb_per_s{0};
  double http_ns_per_req{0};     ///< 0 when the workload serves no HTTP
  double maglev_ns_per_lookup{0};  ///< 0 when no steering tier ran
  /// Replayed inputs that did not decode, parse or steer as they did in
  /// the run; empty when every replay agreed.
  std::vector<std::string> errors;
};

/// Host ns per headline packet, per layer: replay cost x calls per packet.
struct LayerLedger {
  double sim{0}, nic{0}, net{0}, ipc{0}, apps{0}, fleet{0};
  [[nodiscard]] double sum() const {
    return sim + nic + net + ipc + apps + fleet;
  }
};

[[nodiscard]] LayerCosts replay_layers(const Capture& cap,
                                       const CallsPerPkt& calls,
                                       SpanLog* spans, int parent);

/// Express the host timings in reference-host units: `speed` is the host
/// speed during the replay relative to the reference host.
void scale_to_reference(LayerCosts& c, double speed);

[[nodiscard]] LayerLedger ledger(const LayerCosts& c, const CallsPerPkt& calls);

}  // namespace perfbench
