#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>

#include "fleet/app.hpp"
#include "fleet/cluster.hpp"
#include "fleet/obs_merge.hpp"
#include "harness/testbed.hpp"
#include "ipc/channel.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/tcp.hpp"
#include "neat/replica.hpp"

namespace perfbench {

using namespace neat;
using Clock = std::chrono::steady_clock;

namespace {

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Simulated-time step between run_until calls; each step is one span in a
/// traced run.
constexpr sim::SimTime kSlice = 10 * sim::kMillisecond;

/// Byte budget of the traced run's frame capture (bulk frames are TSO
/// super-frames of up to 64 KiB).
constexpr std::size_t kCaptureBytes = 48u << 20;
constexpr std::size_t kCaptureFrames = 60'000;

/// Advance the simulation to `until` in kSlice steps, one span per step.
void advance(sim::Simulator& sim, sim::SimTime until, SpanLog* spans,
             int parent, const char* phase) {
  while (sim.now() < until) {
    const sim::SimTime next = std::min(until, sim.now() + kSlice);
    SpanScope s(spans, std::string("run_until.") + phase, parent);
    sim.run_until(next);
  }
}

/// Processing plus kernel (wake/suspend) cycles: the modeled work a
/// process did, excluding idle spin-polling.
double work_cycles(const sim::Process& p) {
  const auto& s = p.stats();
  return static_cast<double>(s.processing + s.kernel);
}

struct ProcSums {
  double cycles{0};
  double jobs{0};
  double wakeups{0};
  void add(const sim::Process& p) {
    cycles += work_cycles(p);
    jobs += static_cast<double>(p.stats().jobs);
    wakeups += static_cast<double>(p.stats().wakeups);
  }
};

/// Per-component sums over the stack replicas of the hosts under test.
/// A single-component replica runs IP, PF and TCP in one process; its
/// cycles are reported under tcp.
struct StackSums {
  ProcSums ip, tcp, pf, syscall, os, drv;
  void add_host(NeatHost& h) {
    for (std::size_t i = 0; i < h.replica_count(); ++i) {
      StackReplica& r = h.replica(i);
      sim::Process* tcp_p = r.component(Component::kTcp);
      sim::Process* ip_p = r.component(Component::kIp);
      sim::Process* pf_p = r.component(Component::kFilter);
      tcp.add(*tcp_p);
      if (ip_p != tcp_p) ip.add(*ip_p);
      if (pf_p != tcp_p && pf_p != ip_p) pf.add(*pf_p);
    }
    syscall.add(h.syscall());
    os.add(h.os_process());
    drv.add(h.driver());
  }
};

/// Totals over every stack of every host (client and server side).
struct TcpTotals {
  std::uint64_t retransmits{0};
  std::uint64_t segments_in{0};
  std::uint64_t ring_bytes{0};
  void add_host(NeatHost& h) {
    for (std::size_t i = 0; i < h.replica_count(); ++i) {
      const auto& st = h.replica(i).tcp().stats();
      retransmits += st.retransmits;
      segments_in += st.segments_in;
      ring_bytes += st.bytes_in + st.bytes_out;
    }
  }
};

double hist_mean(const std::vector<const obs::Hub*>& hubs, const char* name) {
  return fleet::merged_histogram(hubs, name).mean();
}

struct ChannelSums {
  std::uint64_t sent{0}, delivered{0}, batches{0}, dropped_full{0},
      dropped_dead{0};
};

/// Sweep ipc::channel_registry(): sums, plus the conservation law. While
/// traffic flows a message may be accepted but not yet flushed, so the
/// unclassified remainder must be covered by the channel's in-flight
/// count; after a drain (`exact`) it must be zero.
ChannelSums check_channels(bool exact, std::vector<std::string>& errors) {
  ChannelSums sums;
  std::uint64_t bad = 0;
  for (const ipc::ChannelBase* ch : ipc::channel_registry()) {
    const auto& s = ch->channel_stats();
    sums.sent += s.sent;
    sums.delivered += s.delivered;
    sums.batches += s.batches;
    sums.dropped_full += s.dropped_full;
    sums.dropped_dead += s.dropped_dead;
    const std::uint64_t classified = s.delivered + s.dropped_full +
                                     s.dropped_dead;
    const std::uint64_t in_flight = ch->channel_in_flight();
    const bool ok = exact ? (s.sent == classified && in_flight == 0)
                          : (s.sent >= classified &&
                             s.sent - classified <= in_flight);
    if (!ok) ++bad;
  }
  if (bad > 0) {
    errors.push_back("channel conservation (sent == delivered + dropped_full "
                     "+ dropped_dead" +
                     std::string(exact ? "" : " + in-flight") + ") failed on " +
                     std::to_string(bad) + " channel(s)");
  }
  return sums;
}

/// Packet-pool conservation: fresh + reused == recycled + dropped_full +
/// live. `live` is what the books leave over; it can never be negative,
/// and after a drain (`exact`) no packet may still be out.
void check_pool(const net::PacketPool::Stats& p, bool exact,
                std::vector<std::string>& errors) {
  const std::uint64_t out = p.fresh + p.reused;
  const std::uint64_t back = p.recycled + p.dropped_full;
  if (back > out) {
    errors.push_back("packet pool: more packets returned (" +
                     std::to_string(back) + ") than handed out (" +
                     std::to_string(out) + ")");
  } else if (exact && back != out) {
    errors.push_back("packet pool: " + std::to_string(out - back) +
                     " packet(s) still live after the rig drained");
  }
}

/// Copy frames seen on the wire during the measure window into `cap`.
void capture_frame(Capture& cap, const net::Packet& frame) {
  if (cap.frames.size() >= kCaptureFrames ||
      cap.frame_bytes + frame.size() > kCaptureBytes) {
    return;
  }
  const auto b = frame.bytes();
  cap.frames.emplace_back(b.begin(), b.end());
  cap.frame_bytes += b.size();
}

void write_flow_trace(const obs::FlowTracer& tracer, const std::string& path,
                      std::vector<std::string>& errors) {
  std::ofstream f(path);
  if (!f) {
    errors.push_back("cannot write flow trace " + path);
    return;
  }
  tracer.write_chrome_json(f);
}

/// Keep the window's latency histogram; p99 is the highest percentile with
/// at least 10 samples beyond it only when there are >= 1000 samples.
void set_latency(RepResult& r, const obs::Histogram& h) {
  r.latency = h;
  if (h.count() < 1000) {
    r.errors.push_back("only " + std::to_string(h.count()) +
                       " latency samples; p99 needs >= 1000");
  }
}

void add_common_counts(RepResult& r, const StackSums& s, double pkts,
                       double conns, double events, double fused,
                       const net::PacketPool::Stats& pool,
                       const ChannelSums& ch, const TcpTotals& tcp,
                       const std::vector<const obs::Hub*>& hubs,
                       double nic_installed, double nic_retired,
                       double web_cycles, double web_requests) {
  const auto add = [&r](const char* name, double v, const char* unit) {
    r.counts.push_back(Count{name, v, unit});
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  add("sim.events_per_pkt", ratio(events, pkts), "events/pkt");
  add("sim.fused_ratio", ratio(fused, events), "ratio");
  add("nic.rx_frames_per_job", hist_mean(hubs, "nic.rx_batch_size"),
      "frames/job");
  add("nic.filters_installed_per_conn", ratio(nic_installed, conns),
      "filters/conn");
  add("nic.filters_retired_per_conn", ratio(nic_retired, conns),
      "filters/conn");
  add("drv.sim_cycles_per_pkt", ratio(s.drv.cycles, pkts), "cycles/pkt");
  add("drv.jobs_per_pkt", ratio(s.drv.jobs, pkts), "jobs/pkt");
  add("drv.wakeups_per_pkt", ratio(s.drv.wakeups, pkts), "wakeups/pkt");
  add("ipc.msgs_per_job", ratio(d(ch.delivered), d(ch.batches)), "msgs/job");
  add("ipc.dropped_full", d(ch.dropped_full), "count");
  add("net.pool_fresh_per_pkt", ratio(d(pool.fresh), pkts), "allocs/pkt");
  add("net.pool_reuse_ratio",
      ratio(d(pool.reused), d(pool.fresh + pool.reused)), "ratio");
  add("neat.sim_cycles_per_pkt.ip", ratio(s.ip.cycles, pkts), "cycles/pkt");
  add("neat.sim_cycles_per_pkt.tcp", ratio(s.tcp.cycles, pkts), "cycles/pkt");
  add("neat.sim_cycles_per_pkt.pf", ratio(s.pf.cycles, pkts), "cycles/pkt");
  add("neat.sim_cycles_per_pkt.syscall", ratio(s.syscall.cycles, pkts),
      "cycles/pkt");
  add("neat.sim_cycles_per_pkt.os", ratio(s.os.cycles, pkts), "cycles/pkt");
  add("neat.jobs_per_pkt.ip", ratio(s.ip.jobs, pkts), "jobs/pkt");
  add("neat.jobs_per_pkt.tcp", ratio(s.tcp.jobs, pkts), "jobs/pkt");
  add("neat.wakeups_per_pkt.ip", ratio(s.ip.wakeups, pkts), "wakeups/pkt");
  add("neat.wakeups_per_pkt.tcp", ratio(s.tcp.wakeups, pkts), "wakeups/pkt");
  add("neat.tcp.segs_per_rx_batch", hist_mean(hubs, "tcp.rx_batch_size"),
      "segs/batch");
  add("neat.tcp.retransmits", d(tcp.retransmits), "count");
  // Share of per-segment socket notifications merged into a pending one.
  add("socklib.wakeups_coalesced_ratio",
      ratio(d(fleet::summed_counter(hubs, "socklib.wakeups_coalesced")),
            d(tcp.segments_in)),
      "ratio");
  add("apps.sim_cycles_per_req.web", ratio(web_cycles, web_requests),
      "cycles/req");
  add("sim_latency_samples", d(r.latency.count()), "count");
  add("failed_ratio", ratio(d(r.failed), d(r.attempted)), "ratio");

  r.calls.events = ratio(events, pkts);
  r.calls.ipc_msgs = ratio(static_cast<double>(ch.delivered), pkts);
  r.calls.ipc_batch = std::max(1.0, ratio(static_cast<double>(ch.delivered),
                                          static_cast<double>(ch.batches)));
  r.calls.ring_bytes = ratio(static_cast<double>(tcp.ring_bytes), pkts);
  r.calls.http_requests = ratio(web_requests, pkts);
}

// ---------------------------------------------------------------------------
// The fig9 rig: Xeon E5520 server, Multi-component, 2 replicas with HT,
// 8 web servers; 12 generators x 24 connections = 288 closed-loop clients.
// ---------------------------------------------------------------------------

struct TestbedSpec {
  int requests_per_conn{100};
  std::size_t file_bytes{20};
  bool tracking_filters{false};
  /// FIN-to-reclaim linger of the server NIC's tracking filters.
  sim::SimTime fin_retire_linger{nic::NicParams{}.fin_retire_linger};
  sim::SimTime warmup{50 * sim::kMillisecond};
  sim::SimTime measure{100 * sim::kMillisecond};
};

TestbedSpec testbed_spec(Workload w) {
  TestbedSpec s;
  switch (w) {
    case Workload::kKeepaliveSmall:
      break;
    case Workload::kConnPerRequest:
      // One request per connection: set-up and teardown dominate, so the
      // NIC's per-flow tracking filters churn with every connection. The
      // linger is cut from 1 s so retirement happens inside the window.
      s.requests_per_conn = 1;
      s.tracking_filters = true;
      s.fin_retire_linger = 10 * sim::kMillisecond;
      s.warmup = 25 * sim::kMillisecond;
      s.measure = 75 * sim::kMillisecond;
      break;
    case Workload::kBulk64k:
      // The 10G link saturates; a longer window keeps >= 1000 responses.
      s.file_bytes = 64 * 1024;
      s.warmup = 100 * sim::kMillisecond;
      s.measure = 200 * sim::kMillisecond;
      break;
    case Workload::kFleetHold:
      break;
  }
  return s;
}

constexpr int kWebs = 8;
constexpr std::uint16_t kWebPortLo = harness::kBasePort;

RepResult run_testbed(const TestbedSpec& spec, const RepOptions& opt) {
  using namespace neat::harness;
  RepResult r;
  SpanLog* spans = opt.spans;
  const std::string path = "/file";

  const auto t0 = Clock::now();
  std::unique_ptr<Testbed> tb;
  ServerRig server;
  {
    SpanScope s(spans, "setup.server", opt.parent_span);
    Testbed::Config cfg;
    cfg.seed = opt.seed;
    cfg.server_machine = sim::intel_xeon_e5520();
    cfg.server_nic.rx_coalesce_usecs = 32 * sim::kMicrosecond;
    cfg.client_nic.rx_coalesce_usecs = 32 * sim::kMicrosecond;
    tb = std::make_unique<Testbed>(cfg);
    tb->sim.tracer().set_enabled(opt.traced);

    NeatServerOptions so;
    so.multi_component = true;
    so.replicas = 2;
    so.webs = kWebs;
    so.files = {{path, spec.file_bytes}};
    so.placement = xeon_placement(true, 2, kWebs, /*ht=*/true);
    so.tracking_filters = spec.tracking_filters;
    tb->server_nic.set_fin_retire_linger(spec.fin_retire_linger);
    server = build_neat_server(*tb, so);
  }
  const auto t1 = Clock::now();
  ClientRig client;
  {
    SpanScope s(spans, "setup.client", opt.parent_span);
    ClientOptions co;
    co.generators = 12;
    co.concurrency_per_gen = 24;
    co.requests_per_conn = spec.requests_per_conn;
    co.path = path;
    client = build_client(*tb, co, kWebs);
    prepopulate_arp(server, client);
    // Every response body is compared byte for byte with the served file.
    const std::vector<std::uint8_t>* body = server.files->lookup(path);
    for (auto& g : client.gens) g->config().expect_body = body;
  }
  const auto t2 = Clock::now();
  r.setup_server_s = std::chrono::duration<double>(t1 - t0).count();
  r.setup_client_s = std::chrono::duration<double>(t2 - t1).count();

  bool capturing = false;
  if (opt.capture != nullptr) {
    opt.capture->http_port_lo = kWebPortLo;
    opt.capture->http_port_hi = kWebPortLo + kWebs - 1;
    opt.capture->ring_capacity = net::TcpConfig{}.send_buf;
    tb->link.set_tap([&capturing, cap = opt.capture](const nic::Nic&,
                                                     const net::Packet& f) {
      if (capturing) capture_frame(*cap, f);
    });
  }

  const AllocCounters a0 = alloc_counters();
  const auto t_run = Clock::now();
  {
    SpanScope s(spans, "simulate", opt.parent_span);
    advance(tb->sim, spec.warmup, spans, s.id(), "warmup");
    client.mark();
    capturing = true;
    advance(tb->sim, spec.warmup + spec.measure, spans, s.id(), "measure");
    capturing = false;
  }
  r.run_s = secs_since(t_run);
  r.run_allocs = alloc_delta(a0, alloc_counters());

  // --- outputs over the measure window ------------------------------------
  r.measure_sim_s = sim::to_seconds(spec.measure);
  obs::Histogram latency;
  std::uint64_t bad_status = 0, mismatches = 0;
  for (const auto& g : client.gens) {
    const auto& rep = g->report();
    r.requests += rep.committed_requests;
    r.payload_bytes += rep.committed_bytes;
    r.attempted += rep.clean_conns + rep.error_conns + g->in_flight_conns();
    r.failed += rep.error_conns;
    bad_status += rep.bad_status;
    mismatches += rep.payload_mismatches;
    latency.merge(rep.latency);
  }
  set_latency(r, latency);
  if (r.failed > 0) {
    r.errors.push_back(std::to_string(r.failed) + " connection(s) failed");
  }
  if (bad_status > 0) r.errors.push_back("non-200 responses");
  if (mismatches > 0) r.errors.push_back("response bodies differ from file");
  if (r.requests == 0) r.errors.push_back("no request completed");

  // --- per-layer counts ---------------------------------------------------
  const auto& snic = tb->server_nic.stats();
  const auto& cnic = tb->client_nic.stats();
  r.pkts = snic.rx_frames + snic.tx_frames;
  const double pkts = static_cast<double>(r.pkts);
  StackSums sums;
  sums.add_host(*server.neat);
  TcpTotals tcp;
  tcp.add_host(*server.neat);
  tcp.add_host(*client.host);
  std::uint64_t conns = 0;
  for (std::size_t i = 0; i < server.neat->replica_count(); ++i) {
    conns += server.neat->replica(i).tcp().stats().conns_accepted;
  }
  ProcSums web;
  for (const auto& w : server.webs) web.add(*w);
  const ChannelSums ch = check_channels(/*exact=*/false, r.errors);
  check_pool(tb->pool.stats(), /*exact=*/false, r.errors);
  const std::vector<const obs::Hub*> hubs{&tb->sim.obs()};
  add_common_counts(r, sums, pkts, static_cast<double>(conns),
                    static_cast<double>(tb->sim.queue().executed()),
                    static_cast<double>(tb->sim.queue().fused()),
                    tb->pool.stats(), ch, tcp, hubs,
                    static_cast<double>(snic.filters_installed),
                    static_cast<double>(snic.filters_retired), web.cycles,
                    static_cast<double>(server.total_requests()));
  r.allocs_per_conn = ratio(static_cast<double>(r.run_allocs.allocs),
                            static_cast<double>(conns));
  r.calls.rss_hashes = ratio(
      static_cast<double>(snic.rx_steered_rss + cnic.rx_steered_rss), pkts);
  r.calls.checksum_kb =
      ratio(static_cast<double>(snic.tx_bytes + cnic.tx_bytes), pkts) / 1024.0;
  r.trace_events = tb->sim.tracer().emitted();
  if (opt.traced && !opt.flow_trace_prefix.empty()) {
    write_flow_trace(tb->sim.tracer(), opt.flow_trace_prefix + ".json",
                     r.errors);
  }

  if (opt.quiesce) {
    // Stop opening connections; open ones close after their current
    // request.
    for (auto& g : client.gens) {
      g->config().max_conns = 1;
      g->config().requests_per_conn = 1;
    }
    tb->sim.run_for(300 * sim::kMillisecond);
    std::size_t open = 0;
    for (const auto& g : client.gens) open += g->in_flight_conns();
    if (open > 0) {
      r.errors.push_back(std::to_string(open) +
                         " client connection(s) still open after drain");
    }
    check_channels(/*exact=*/true, r.errors);
    check_pool(tb->pool.stats(), /*exact=*/true, r.errors);
  }
  tb->link.set_tap({});
  client = ClientRig{};
  server = ServerRig{};
  return r;
}

// ---------------------------------------------------------------------------
// fleet_hold: the no-crash leg of ext_fleet. Backends behind the maglev
// steering tier hold every connection open; a sample of them pings.
// ---------------------------------------------------------------------------

struct FleetSpec {
  int backends{4};
  int clients{2};
  int ports{8};
  std::uint64_t total_conns{40'000};
  std::uint64_t sample_every{16};
  sim::SimTime ping_interval{10 * sim::kMillisecond};
  std::uint64_t ramp_batch{512};
  sim::SimTime ramp_interval{1 * sim::kMillisecond};
  /// The self-paced ramp establishes all connections in ~110 ms.
  sim::SimTime warmup{140 * sim::kMillisecond};
  sim::SimTime measure{100 * sim::kMillisecond};
};

RepResult run_fleet(const FleetSpec& spec, const RepOptions& opt) {
  RepResult r;
  SpanLog* spans = opt.spans;

  const auto t0 = Clock::now();
  std::unique_ptr<fleet::FleetCluster> fc;
  std::vector<std::unique_ptr<fleet::PingServer>> servers;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < spec.ports; ++i) {
    ports.push_back(static_cast<std::uint16_t>(8000 + i));
  }
  {
    SpanScope s(spans, "setup.server", opt.parent_span);
    fleet::FleetConfig cfg;
    cfg.seed = opt.seed;
    cfg.backends = spec.backends;
    cfg.clients = spec.clients;
    cfg.replicas_per_backend = 2;
    cfg.replicas_per_client = 2;
    // Ping frames are 16 bytes; small rings keep per-connection memory
    // honest (as in ext_fleet).
    cfg.backend_tcp.send_buf = cfg.backend_tcp.recv_buf = 4096;
    cfg.client_tcp.send_buf = cfg.client_tcp.recv_buf = 4096;
    fc = std::make_unique<fleet::FleetCluster>(cfg);
    fc->sim.tracer().set_enabled(opt.traced);
    for (std::size_t i = 0; i < fc->backend_count(); ++i) {
      fc->backend(i).hub->tracer.set_enabled(opt.traced);
    }
    for (std::size_t j = 0; j < fc->client_count(); ++j) {
      fc->client(j).hub->tracer.set_enabled(opt.traced);
    }
    for (std::size_t i = 0; i < fc->backend_count(); ++i) {
      fleet::FleetHost& b = fc->backend(i);
      auto srv = std::make_unique<fleet::PingServer>(
          fc->sim, "ping" + std::to_string(b.id), *b.host, b.id);
      srv->pin(b.app_thread());
      srv->start(ports);
      servers.push_back(std::move(srv));
    }
  }
  const auto t1 = Clock::now();
  std::vector<std::unique_ptr<fleet::FleetClient>> clients;
  {
    SpanScope s(spans, "setup.client", opt.parent_span);
    for (std::size_t j = 0; j < fc->client_count(); ++j) {
      fleet::FleetClient::Config cc;
      cc.vip = fc->config().steering.vip;
      cc.ports = ports;
      cc.total_conns = spec.total_conns / fc->client_count();
      cc.ramp_batch = spec.ramp_batch;
      cc.ramp_interval = spec.ramp_interval;
      cc.sample_every = spec.sample_every;
      cc.ping_interval = spec.ping_interval;
      fleet::FleetHost& c = fc->client(j);
      auto cl = std::make_unique<fleet::FleetClient>(
          fc->sim, "cli" + std::to_string(j), *c.host, std::move(cc));
      cl->pin(c.app_thread());
      clients.push_back(std::move(cl));
    }
    fc->start_health_probing();
    for (auto& c : clients) c->start();
  }
  const auto t2 = Clock::now();
  r.setup_server_s = std::chrono::duration<double>(t1 - t0).count();
  r.setup_client_s = std::chrono::duration<double>(t2 - t1).count();

  bool capturing = false;
  if (opt.capture != nullptr) {
    opt.capture->ring_capacity = fc->config().backend_tcp.send_buf;
    for (std::size_t i = 0; i < fc->backend_count(); ++i) {
      fc->backend(i).link->set_tap(
          [&capturing, cap = opt.capture](const nic::Nic&,
                                          const net::Packet& f) {
            if (capturing) capture_frame(*cap, f);
          });
    }
  }

  const AllocCounters a0 = alloc_counters();
  const auto t_run = Clock::now();
  std::uint64_t established = 0;
  AllocCounters ramp{};
  {
    SpanScope s(spans, "simulate", opt.parent_span);
    advance(fc->sim, spec.warmup, spans, s.id(), "ramp");
    ramp = alloc_delta(a0, alloc_counters());
    for (std::size_t i = 0; i < fc->backend_count(); ++i) {
      established += fc->backend_connections(i);
    }
    for (auto& c : clients) c->mark();
    capturing = true;
    advance(fc->sim, spec.warmup + spec.measure, spans, s.id(), "measure");
    capturing = false;
  }
  r.run_s = secs_since(t_run);
  r.run_allocs = alloc_delta(a0, alloc_counters());
  r.fleet_bytes_per_conn = ratio(static_cast<double>(ramp.live_bytes),
                                 static_cast<double>(established));
  r.fleet_allocs_per_conn = ratio(static_cast<double>(ramp.allocs),
                                  static_cast<double>(established));

  // --- outputs over the measure window ------------------------------------
  r.measure_sim_s = sim::to_seconds(spec.measure);
  std::vector<const obs::Hub*> client_hubs;
  for (std::size_t j = 0; j < fc->client_count(); ++j) {
    client_hubs.push_back(fc->client(j).hub.get());
  }
  std::uint64_t retries = 0;
  for (const auto& c : clients) {
    const auto& st = c->app_stats();
    r.attempted += st.attempted;
    r.failed += st.connect_failures + st.closed_reset + st.closed_other;
    retries += st.retries;
    for (const auto& [id, n] : c->window_responses()) r.requests += n;
  }
  r.payload_bytes = r.requests * fleet::kPingFrame;
  set_latency(r, fleet::merged_histogram(client_hubs, "fleet.rtt_ns"));
  if (established != spec.total_conns) {
    r.errors.push_back("established " + std::to_string(established) +
                       " connections, target " +
                       std::to_string(spec.total_conns));
  }
  if (r.failed > 0) {
    r.errors.push_back(std::to_string(r.failed) + " connection(s) failed");
  }
  if (retries > 0) r.errors.push_back("pings had to be resent");
  if (fc->steering().stats().backends_declared_down > 0) {
    r.errors.push_back("health prober declared a live backend down");
  }
  if (r.requests == 0) r.errors.push_back("no ping answered");

  // --- per-layer counts ---------------------------------------------------
  StackSums sums;
  TcpTotals tcp;
  std::uint64_t installed = 0, retired = 0, rss = 0, tx_bytes = 0;
  std::vector<const obs::Hub*> hubs{&fc->sim.obs()};
  for (std::size_t i = 0; i < fc->backend_count(); ++i) {
    fleet::FleetHost& b = fc->backend(i);
    const auto& st = b.nic->stats();
    r.pkts += st.rx_frames + st.tx_frames;
    installed += st.filters_installed;
    retired += st.filters_retired;
    rss += st.rx_steered_rss;
    tx_bytes += st.tx_bytes;
    sums.add_host(*b.host);
    tcp.add_host(*b.host);
    hubs.push_back(b.hub.get());
  }
  for (std::size_t j = 0; j < fc->client_count(); ++j) {
    fleet::FleetHost& c = fc->client(j);
    rss += c.nic->stats().rx_steered_rss;
    tx_bytes += c.nic->stats().tx_bytes;
    tcp.add_host(*c.host);
    hubs.push_back(c.hub.get());
  }
  const double pkts = static_cast<double>(r.pkts);
  ProcSums web;
  std::uint64_t served = 0;
  for (const auto& s : servers) {
    web.add(*s);
    served += s->app_stats().requests;
  }
  const ChannelSums ch = check_channels(/*exact=*/false, r.errors);
  check_pool(fc->pool.stats(), /*exact=*/false, r.errors);
  add_common_counts(r, sums, pkts, static_cast<double>(established),
                    static_cast<double>(fc->sim.queue().executed()),
                    static_cast<double>(fc->sim.queue().fused()),
                    fc->pool.stats(), ch, tcp, hubs,
                    static_cast<double>(installed),
                    static_cast<double>(retired), web.cycles,
                    static_cast<double>(served));
  const auto& tier = fc->steering();
  r.counts.push_back(Count{"fleet.conntrack_flows",
                           static_cast<double>(tier.tracked_flow_count()),
                           "count"});
  r.allocs_per_conn = r.fleet_allocs_per_conn;
  r.calls.rss_hashes = ratio(static_cast<double>(rss), pkts);
  r.calls.checksum_kb = ratio(static_cast<double>(tx_bytes), pkts) / 1024.0;
  r.calls.http_requests = 0;
  r.calls.maglev_lookups =
      ratio(static_cast<double>(tier.stats().flows_installed), pkts);
  for (const obs::Hub* h : hubs) r.trace_events += h->tracer.emitted();

  if (opt.capture != nullptr) {
    opt.capture->maglev = tier.table();
    for (std::size_t i = 0; i < fc->backend_count(); ++i) {
      const int id = fc->backend(i).id;
      for (const auto& f : tier.tracked_flows_for(id)) {
        opt.capture->tracked_flows.emplace_back(f, id);
      }
    }
    for (std::size_t i = 0; i < fc->backend_count(); ++i) {
      fc->backend(i).link->set_tap({});
    }
  }
  if (opt.traced && !opt.flow_trace_prefix.empty()) {
    write_flow_trace(fc->sim.tracer(), opt.flow_trace_prefix + ".json",
                     r.errors);
    for (std::size_t i = 0; i < fc->backend_count(); ++i) {
      write_flow_trace(fc->backend(i).hub->tracer,
                       opt.flow_trace_prefix + ".backend" +
                           std::to_string(i) + ".json",
                       r.errors);
    }
  }

  clients.clear();
  servers.clear();
  return r;
}

}  // namespace

double interpolated_quantile(const obs::Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double target = q * static_cast<double>(h.count() - 1);
  double seen = 0;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    const auto n = static_cast<double>(h.bucket_count(i));
    if (seen + n > target) {
      const double lo = static_cast<double>(obs::Histogram::bucket_lower(i));
      const double width =
          static_cast<double>(obs::Histogram::bucket_upper(i)) - lo + 1.0;
      const double v = lo + width * (target - seen + 0.5) / n;
      return std::clamp(v, static_cast<double>(h.min()),
                        static_cast<double>(h.max()));
    }
    seen += n;
  }
  return static_cast<double>(h.max());
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kKeepaliveSmall, Workload::kConnPerRequest,
                           Workload::kBulk64k, Workload::kFleetHold}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kKeepaliveSmall: return "keepalive_small";
    case Workload::kConnPerRequest: return "conn_per_request";
    case Workload::kBulk64k: return "bulk_64k";
    case Workload::kFleetHold: return "fleet_hold";
  }
  return "?";
}

RepResult run_rep(Workload w, const RepOptions& opt) {
  if (w == Workload::kFleetHold) return run_fleet(FleetSpec{}, opt);
  RepResult r = run_testbed(testbed_spec(w), opt);
  r.counts.push_back(Count{"fleet.conntrack_flows", 0.0, "count"});
  return r;
}

}  // namespace perfbench
