#include "neat/autoscaler.hpp"

#include <algorithm>

namespace neat {

AutoScaler::AutoScaler(NeatHost& host,
                       std::vector<std::vector<sim::HwThread*>> spare_pins,
                       Policy policy)
    : host_(host), spare_pins_(std::move(spare_pins)), policy_(policy) {}

AutoScaler::~AutoScaler() { stop(); }

void AutoScaler::start() {
  if (running_) return;
  running_ = true;
  snapshots_.clear();
  timer_ = host_.simulator().schedule(policy_.period, [this] { tick(); });
}

void AutoScaler::stop() {
  running_ = false;
  timer_.cancel();
}

double AutoScaler::utilization_of(StackReplica& r,
                                  sim::SimTime window) const {
  // Utilization of the TCP-bearing process — the saturation point of a
  // replica (the IP side is strictly cheaper).
  const sim::Process& p = const_cast<StackReplica&>(r).tcp_process();
  sim::Cycles prev = 0;
  for (const auto& [proc, cycles] : snapshots_) {
    if (proc == &p) prev = cycles;
  }
  const sim::Cycles busy = p.stats().processing - prev;
  const auto& mp = p.thread() != nullptr
                       ? p.thread()->params()
                       : host_.machine().params();
  const double budget =
      mp.freq.ghz * 1e9 * sim::to_seconds(window) / mp.work_scale;
  return budget > 0 ? static_cast<double>(busy) / budget : 0.0;
}

void AutoScaler::tick() {
  if (!running_) return;

  auto active = host_.active_replicas();
  double total = 0.0;
  double min_util = 2.0;
  StackReplica* coldest = nullptr;
  for (auto* r : active) {
    const double u = utilization_of(*r, policy_.period);
    total += u;
    if (u < min_util) {
      min_util = u;
      coldest = r;
    }
  }
  last_util_ = active.empty() ? 0.0 : total / static_cast<double>(active.size());

  // Publish the control-loop state so workload benches can plot replica
  // timelines against load without reaching into the host.
  auto& metrics = host_.simulator().metrics();
  metrics.gauge("autoscaler.replicas_active")
      .set(static_cast<double>(active.size()));
  metrics.gauge("autoscaler.mean_utilization").set(last_util_);
  metrics.gauge("autoscaler.spare_pins").set(
      static_cast<double>(spare_pins_.size()));

  // Refresh snapshots for the next window.
  snapshots_.clear();
  for (std::size_t i = 0; i < host_.replica_count(); ++i) {
    const sim::Process& p = host_.replica(i).tcp_process();
    snapshots_.emplace_back(&p, p.stats().processing);
  }

  const sim::SimTime now = host_.simulator().now();
  const bool cooled = now - last_action_ >= policy_.cooldown;
  if (cooled && !active.empty()) {
    if (last_util_ > policy_.scale_up_threshold && !spare_pins_.empty()) {
      host_.add_replica(spare_pins_.back());
      spare_pins_.pop_back();
      ++scale_ups_;
      metrics.counter("autoscaler.scale_ups").inc();
      last_action_ = now;
    } else if (last_util_ < policy_.scale_down_threshold &&
               active.size() > policy_.min_replicas && coldest != nullptr) {
      host_.begin_scale_down(*coldest);
      ++scale_downs_;
      metrics.counter("autoscaler.scale_downs").inc();
      last_action_ = now;
      // The replica's threads return to the pool once it is collected; we
      // conservatively reclaim them now (the collector crashes the procs).
      // Note: pins of multi-component replicas are not reconstructed here.
    }
  }

  timer_ = host_.simulator().schedule(policy_.period, [this] { tick(); });
}

}  // namespace neat
