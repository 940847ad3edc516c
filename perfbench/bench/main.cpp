// neat_perfbench: the repository benchmark's driver binary.
//
//   neat_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
//
// Repeats one workload (fresh rig, same simulated window, cycling through
// four sub-seeds of N) until S host seconds have passed, with a host-speed
// probe between repetitions, checks every output, and prints one JSON
// object as its last stdout line. --trace 0 reports the end-to-end metrics;
// --trace 1 spends half the time untraced and half traced (FlowTracer on,
// spans, link capture), proves the traced repetitions simulated exactly
// what the untraced ones did, replays the captured inputs through each
// layer's public functions, and reports the per-layer ledger. Exit code 1
// means an output check failed; 2 means bad arguments.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "calibrate.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Each run simulates this many sub-seeds derived from --seed, one per
/// repetition in turn, and merges their outputs. A single seed's tail
/// latency depends on where RSS happens to place a few connections;
/// merging several seeds keeps the simulated metrics steady across seeds.
constexpr int kSubSeeds = 4;

std::uint64_t sub_seed(std::uint64_t seed, std::size_t rep) {
  return seed * kSubSeeds + rep % kSubSeeds;
}

struct Args {
  Workload workload{Workload::kKeepaliveSmall};
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string out_dir{"."};
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return false;
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Everything simulated in one repetition: must repeat to the digit for a
/// seed, traced or not.
std::vector<std::pair<std::string, double>> fingerprint(const RepResult& r) {
  std::vector<std::pair<std::string, double>> f;
  for (const Count& c : r.counts) f.emplace_back(c.name, c.value);
  f.emplace_back("pkts", static_cast<double>(r.pkts));
  f.emplace_back("requests", static_cast<double>(r.requests));
  f.emplace_back("payload_bytes", static_cast<double>(r.payload_bytes));
  f.emplace_back("latency_samples", static_cast<double>(r.latency.count()));
  f.emplace_back("p50", interpolated_quantile(r.latency, 0.50));
  f.emplace_back("p99", interpolated_quantile(r.latency, 0.99));
  f.emplace_back("attempted", static_cast<double>(r.attempted));
  f.emplace_back("failed", static_cast<double>(r.failed));
  return f;
}

/// Names of fingerprint entries that differ between two repetitions of
/// one sub-seed.
std::string diff_fingerprints(const RepResult& a, const RepResult& b) {
  const auto fa = fingerprint(a);
  const auto fb = fingerprint(b);
  if (fa.size() != fb.size()) return "fingerprint layout";
  std::string out;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (fa[i].second != fb[i].second) out += " " + fa[i].first;
  }
  return out;
}

class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back(Count{std::move(name), value, unit});
  }
  void print_table() const {
    for (const auto& m : metrics_) {
      std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Count& m = metrics_[i];
      // %.17g: every digit as measured.
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Count> metrics_;
};

struct RepRuns {
  std::vector<RepResult> results;
  /// Host speed around each repetition relative to the reference host:
  /// kReferenceCalibrationSeconds over the mean of the probes run just
  /// before and just after it (1 = reference speed, 0.5 = half).
  std::vector<double> speed;
  /// Process peak RSS right after the first repetition.
  double first_peak_rss{0};

  /// Host figures in reference-host units.
  [[nodiscard]] std::vector<double> rates() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < results.size(); ++i) {
      v.push_back(results[i].pkts_per_host_s() / speed[i]);
    }
    return v;
  }
  template <typename Seconds>
  [[nodiscard]] std::vector<double> host_seconds(Seconds&& of) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < results.size(); ++i) {
      v.push_back(of(results[i]) * speed[i]);
    }
    return v;
  }
};

/// Runs repetitions, cycling through the sub-seeds, until `seconds` have
/// passed and at least `min_reps` ran, with a host-speed probe between
/// repetitions. The first repetition also drains the rig and checks the
/// exact conservation laws; that check sits outside every timed window.
/// Peak RSS is read after the first repetition because later ones add only
/// allocator fragmentation, which would tie the figure to how many fit.
RepRuns run_reps(const Args& a, double seconds, int min_reps,
                 RepOptions opt) {
  RepRuns out;
  const auto t0 = Clock::now();
  double probe_before = calibration_seconds();
  for (;;) {
    opt.quiesce = out.results.empty() && !opt.traced;
    {
      RepOptions o = opt;
      o.seed = sub_seed(a.seed, out.results.size());
      SpanScope rep_span(o.spans, "rep", o.parent_span);
      o.parent_span = rep_span.id();
      out.results.push_back(run_rep(a.workload, o));
    }
    if (out.results.size() == 1) {
      out.first_peak_rss = static_cast<double>(peak_rss_bytes());
    }
    const double probe_after = calibration_seconds();
    out.speed.push_back(kReferenceCalibrationSeconds /
                        (0.5 * (probe_before + probe_after)));
    probe_before = probe_after;
    opt.capture = nullptr;  // capture and flow trace: first traced rep only
    opt.flow_trace_prefix.clear();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (static_cast<int>(out.results.size()) >= min_reps &&
        elapsed >= seconds) {
      break;
    }
  }
  return out;
}

int run(const Args& a) {
  const char* wname = workload_name(a.workload);
  const std::string run_id = std::string(wname) + "-seed" +
                             std::to_string(a.seed);
  std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d\n", wname,
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);

  RepOptions base;
  base.seed = a.seed;
  const double untraced_s = a.trace ? a.seconds / 2 : a.seconds;
  const RepRuns untraced = run_reps(a, untraced_s, kSubSeeds, base);
  const std::vector<RepResult>& reps = untraced.results;

  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    for (const auto& e : r.errors) {
      errors.push_back("rep " + std::to_string(i) + ": " + e);
    }
    if (i >= kSubSeeds) {
      const std::string d = diff_fingerprints(reps[i % kSubSeeds], r);
      if (!d.empty()) {
        errors.push_back("rep " + std::to_string(i) +
                         " simulated differently from rep " +
                         std::to_string(i % kSubSeeds) + ":" + d);
      }
    }
    attempted += r.attempted;
    failed += r.failed;
    std::printf("  rep %zu: %.0f pkts/host-s, run %.3f s, setup %.4f s, "
                "host speed %.3f\n",
                i, r.pkts_per_host_s(), r.run_s, r.setup_s(),
                untraced.speed[i]);
  }
  const RepResult& r0 = reps.front();
  // Simulated outputs: the sub-seeds' measure windows merged.
  neat::obs::Histogram latency;
  double requests = 0, payload = 0, measure_s = 0;
  for (int k = 0; k < kSubSeeds; ++k) {
    const RepResult& r = reps[static_cast<std::size_t>(k)];
    latency.merge(r.latency);
    requests += static_cast<double>(r.requests);
    payload += static_cast<double>(r.payload_bytes);
    measure_s += r.measure_sim_s;
  }
  // Host figures: each repetition's host time is scaled to the reference
  // host by the probe run around it; the run reports the median.
  const double rate = median(untraced.rates());

  Report rep;
  if (!a.trace) {
    rep.add("sim_pkts_per_host_s", rate, "frames/host-s");
    rep.add("setup_s",
            median(untraced.host_seconds([](const RepResult& r) {
              return r.setup_s();
            })),
            "s");
    rep.add("peak_rss_mb", untraced.first_peak_rss / (1024.0 * 1024.0),
            "MiB");
    rep.add("sim_krps", requests / measure_s / 1e3, "kreq/sim-s");
    rep.add("sim_goodput_mbps", payload / measure_s / 1e6, "MB/sim-s");
    rep.add("sim_latency_p50_ms", interpolated_quantile(latency, 0.50) / 1e6,
            "ms");
    rep.add("sim_latency_p99_ms", interpolated_quantile(latency, 0.99) / 1e6,
            "ms");
    std::printf("  latency samples: %llu\n",
                static_cast<unsigned long long>(latency.count()));
  } else {
    // Traced half: same seed, tracer on, spans and capture.
    SpanLog spans(run_id);
    Capture cap;
    RepOptions topt = base;
    topt.traced = true;
    topt.spans = &spans;
    topt.capture = &cap;
    topt.flow_trace_prefix = a.out_dir + "/" + run_id + ".flows";
    const int root = spans.begin("traced_reps");
    topt.parent_span = root;
    const RepRuns traced_runs = run_reps(a, a.seconds - untraced_s, 1, topt);
    const std::vector<RepResult>& traced = traced_runs.results;
    spans.end(root);
    for (std::size_t i = 0; i < traced.size(); ++i) {
      for (const auto& e : traced[i].errors) {
        errors.push_back("traced rep " + std::to_string(i) + ": " + e);
      }
      const std::string d =
          diff_fingerprints(reps[i % kSubSeeds], traced[i]);
      if (!d.empty()) {
        errors.push_back("traced rep " + std::to_string(i) +
                         " simulated differently from the untraced run:" + d);
      }
    }

    const int rs = spans.begin("replay");
    const double probe_before = calibration_seconds();
    LayerCosts costs = replay_layers(cap, r0.calls, &spans, rs);
    const double probe_after = calibration_seconds();
    spans.end(rs);
    scale_to_reference(costs, kReferenceCalibrationSeconds /
                                  (0.5 * (probe_before + probe_after)));
    for (const auto& e : costs.errors) errors.push_back("replay: " + e);
    const LayerLedger led = ledger(costs, r0.calls);

    // Per-layer figures describe sub-seed 0. Allocation counts come from
    // its untraced repetition: tracing itself allocates.
    const RepResult& rl = r0;
    const double pkts = static_cast<double>(rl.pkts);

    for (const Count& c : r0.counts) rep.add(c.name, c.value, c.unit);
    rep.add("sim.host_ns_per_event", costs.sim_ns_per_event, "ns");
    rep.add("nic.host_ns_per_frame.rss", costs.rss_ns_per_frame, "ns");
    rep.add("ipc.host_ns_per_msg", costs.ipc_ns_per_msg, "ns");
    rep.add("ipc.ring_gb_per_s", costs.ring_gb_per_s, "GB/s");
    rep.add("net.allocs_per_pkt",
            pkts > 0 ? static_cast<double>(rl.run_allocs.allocs) / pkts : 0,
            "allocs/pkt");
    rep.add("net.alloc_bytes_per_pkt",
            pkts > 0 ? static_cast<double>(rl.run_allocs.alloc_bytes) / pkts
                     : 0,
            "B/pkt");
    rep.add("net.host_ns_per_frame.decode", costs.decode_ns_per_frame, "ns");
    rep.add("net.host_ns_per_kb.checksum", costs.checksum_ns_per_kb, "ns/KiB");
    rep.add("neat.tcp.allocs_per_conn", rl.allocs_per_conn, "allocs/conn");
    rep.add("apps.host_ns_per_req.http_parse", costs.http_ns_per_req, "ns");
    rep.add("fleet.host_ns_per_lookup.maglev", costs.maglev_ns_per_lookup,
            "ns");
    rep.add("fleet.bytes_per_conn", rl.fleet_bytes_per_conn, "B/conn");
    rep.add("fleet.allocs_per_conn", rl.fleet_allocs_per_conn, "allocs/conn");
    rep.add("harness.setup_s.server",
            median(untraced.host_seconds([](const RepResult& r) {
              return r.setup_server_s;
            })),
            "s");
    rep.add("harness.setup_s.client",
            median(untraced.host_seconds([](const RepResult& r) {
              return r.setup_client_s;
            })),
            "s");
    // A process's first repetition runs cold (heap growth, first-touch
    // page faults) and every traced one runs warm: compare warm with warm.
    std::vector<double> warm = untraced.rates();
    warm.erase(warm.begin());
    const double traced_rate = median(traced_runs.rates());
    rep.add("obs.trace_overhead_ratio",
            traced_rate > 0 ? median(warm) / traced_rate : 0, "ratio");
    rep.add("obs.trace_events",
            static_cast<double>(traced.front().trace_events), "count");
    const double total_ns = rate > 0 ? 1e9 / rate : 0;
    rep.add("host_ns_per_pkt.sim", led.sim, "ns/pkt");
    rep.add("host_ns_per_pkt.nic", led.nic, "ns/pkt");
    rep.add("host_ns_per_pkt.net", led.net, "ns/pkt");
    rep.add("host_ns_per_pkt.ipc", led.ipc, "ns/pkt");
    rep.add("host_ns_per_pkt.apps", led.apps, "ns/pkt");
    rep.add("host_ns_per_pkt.fleet", led.fleet, "ns/pkt");
    rep.add("host_ns_per_pkt.total", total_ns, "ns/pkt");
    rep.add("host_ns_per_pkt.timed_sum", led.sum(), "ns/pkt");
    rep.add("host_ns_per_pkt.unattributed", total_ns - led.sum(), "ns/pkt");

    const std::string span_path = a.out_dir + "/" + run_id + ".spans.json";
    if (!spans.write_json(span_path)) {
      errors.push_back("cannot write " + span_path);
    }
    std::printf("  spans: %zu written to %s\n", spans.size(),
                span_path.c_str());
  }

  rep.print_table();
  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  rep.print_json(errors.empty(), attempted, failed);
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: neat_perfbench --workload keepalive_small|"
                 "conn_per_request|bulk_64k|fleet_hold --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  return perfbench::run(a);
}
