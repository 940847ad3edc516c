// Automatic replica scaling (paper §3.4).
//
// "The system boots with at least one replica ... When NEaT becomes
// overloaded, it automatically spawns a new network stack replica. ...
// When the load drops again, NEaT can also scale down" — via lazy
// termination, which NeatHost implements.
//
// The AutoScaler samples the utilization of each replica's TCP-bearing
// process over a control period and drives NeatHost::add_replica /
// begin_scale_down against a pool of spare hardware threads.
#pragma once

#include <cstdint>
#include <vector>

#include "neat/host.hpp"

namespace neat {

class AutoScaler {
 public:
  struct Policy {
    /// Spawn a replica when mean active-replica utilization exceeds this.
    double scale_up_threshold{0.85};
    /// Lazily terminate one when it drops below this (and more than
    /// min_replicas are active).
    double scale_down_threshold{0.30};
    std::size_t min_replicas{1};
    sim::SimTime period{50 * sim::kMillisecond};
    /// Settle time after any action before acting again.
    sim::SimTime cooldown{150 * sim::kMillisecond};
  };

  /// `spare_pins` are hardware-thread sets handed to add_replica() as
  /// capacity grows; scaling up stops when they run out (the paper's
  /// "limited by the ratio of cores dedicated to the system").
  AutoScaler(NeatHost& host,
             std::vector<std::vector<sim::HwThread*>> spare_pins,
             Policy policy);
  AutoScaler(NeatHost& host,
             std::vector<std::vector<sim::HwThread*>> spare_pins)
      : AutoScaler(host, std::move(spare_pins), Policy{}) {}
  ~AutoScaler();

  AutoScaler(const AutoScaler&) = delete;
  AutoScaler& operator=(const AutoScaler&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::uint64_t scale_ups() const { return scale_ups_; }
  [[nodiscard]] std::uint64_t scale_downs() const { return scale_downs_; }

  /// Most recent per-replica utilization sample (active replicas only).
  [[nodiscard]] double last_mean_utilization() const { return last_util_; }

 private:
  void tick();
  [[nodiscard]] double utilization_of(StackReplica& r,
                                      sim::SimTime window) const;

  NeatHost& host_;
  std::vector<std::vector<sim::HwThread*>> spare_pins_;
  Policy policy_;
  sim::EventHandle timer_;
  bool running_{false};
  sim::SimTime last_action_{0};
  double last_util_{0.0};
  std::vector<std::pair<const sim::Process*, sim::Cycles>> snapshots_;
  std::uint64_t scale_ups_{0};
  std::uint64_t scale_downs_{0};
};

}  // namespace neat
