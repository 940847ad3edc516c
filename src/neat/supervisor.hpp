// Supervision: watchdog-driven crash detection and restart policy.
//
// The seed reproduction recovered from crashes through an oracle — the same
// call that injected the fault also scheduled the restart. This module
// replaces that with the supervision loop a real deployment needs:
//
//  * every stack component process (and the NIC driver) is monitored by a
//    heartbeat Watchdog; a crash is *detected* when the component stops
//    acknowledging probes, never assumed;
//  * a detected crash schedules a restart after an exponential-backoff
//    delay (base = NeatHost::Config::restart_delay), so a component that
//    dies immediately after every restart consumes bounded resources;
//  * a replica that crash-loops `quarantine_after` consecutive times is
//    quarantined — removed from steering permanently — and, where the
//    host can spawn one, replaced by a fresh replica on the same cores;
//  * a replica that crashes while draining under lazy termination (§3.4)
//    is either collected immediately (its TCP state is gone, nothing left
//    to drain) or restarted to finish draining — it never rejoins the
//    active steering set either way.
//
// Every detection/restart/quarantine annotates the host's recovery log
// (detection latency, backoff level, action), which is what the chaos
// campaign and the reliability benches audit.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "neat/replica.hpp"
#include "sim/time.hpp"
#include "sim/watchdog.hpp"

namespace neat {

class NeatHost;

struct SupervisionConfig {
  /// Probe cadence and the silence that declares a component dead.
  /// Detection latency is bounded by watchdog_timeout + heartbeat_period.
  sim::SimTime heartbeat_period{5 * sim::kMillisecond};
  sim::SimTime watchdog_timeout{15 * sim::kMillisecond};
  /// CPU cost of handling one probe in the monitored process.
  sim::Cycles heartbeat_cost{150};
  /// Restart delay = restart_delay * multiplier^backoff_level, capped.
  double backoff_multiplier{2.0};
  sim::SimTime backoff_cap{640 * sim::kMillisecond};
  /// Consecutive crashes (uptime below stability_window between them)
  /// before a replica is declared crash-looping and quarantined.
  int quarantine_after{4};
  /// Uptime that resets the consecutive-crash counter to zero.
  sim::SimTime stability_window{80 * sim::kMillisecond};
};

class Supervisor {
 public:
  struct Stats {
    std::uint64_t detections{0};
    std::uint64_t restarts{0};
    std::uint64_t driver_restarts{0};
    std::uint64_t quarantines{0};
    std::uint64_t replacements{0};
    std::uint64_t scale_down_collects{0};
    sim::SimTime detection_latency_total{0};
    sim::SimTime detection_latency_max{0};
    int max_backoff_level{0};

    [[nodiscard]] double mean_detection_ms() const {
      return detections == 0 ? 0.0
                             : static_cast<double>(detection_latency_total) /
                                   static_cast<double>(detections) / 1e6;
    }
  };

  Supervisor(NeatHost& host, SupervisionConfig cfg);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Begin monitoring all component processes of `r` (called by the host
  /// for every replica, including supervisor-spawned replacements).
  void watch_replica(StackReplica& r);

  /// Stop monitoring (replica collected by GC or quarantined). Safe to
  /// call for replicas that were never watched.
  void unwatch_replica(StackReplica& r);

  /// Begin monitoring the NIC driver process.
  void watch_driver();

  /// Stop ALL supervision permanently: cancel pending backoff restarts,
  /// disarm every watchdog, drop every watch. Used by NeatHost::power_off —
  /// a powered-off host must stay down, so nothing may fire after this.
  void shutdown();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const SupervisionConfig& config() const { return cfg_; }

  /// Consecutive-crash count feeding the backoff/quarantine policy.
  [[nodiscard]] int consecutive_crashes(const StackReplica& r) const;

  /// True while a detected crash of (r, c) awaits its backoff restart —
  /// the explicit "restart pending" window that prevents double-scheduling.
  [[nodiscard]] bool restart_pending(const StackReplica& r,
                                     Component c) const;
  [[nodiscard]] bool driver_restart_pending() const;

 private:
  struct Watch {
    StackReplica* replica{nullptr};  // nullptr = the NIC driver
    Component component{Component::kWhole};
    sim::Process* proc{nullptr};
    std::unique_ptr<sim::Watchdog> dog;
    bool restart_pending{false};
    sim::EventHandle restart_timer;
  };
  struct LoopState {
    int consecutive{0};
    sim::SimTime last_recover{0};
  };

  void arm(Watch& w);
  void on_silent(Watch& w, sim::SimTime silent_for);
  void handle_replica_death(Watch& w, std::size_t event_idx);
  void handle_driver_death(Watch& w, std::size_t event_idx);
  void complete_replica_restart(Watch& w, std::size_t event_idx);
  void complete_driver_restart(Watch& w, std::size_t event_idx);
  [[nodiscard]] sim::SimTime backoff_delay(int level) const;

  NeatHost& host_;
  SupervisionConfig cfg_;
  std::vector<std::unique_ptr<Watch>> watches_;
  std::unordered_map<int, LoopState> replica_loop_;  // replica id -> state
  LoopState driver_loop_;
  Stats stats_;
};

}  // namespace neat
