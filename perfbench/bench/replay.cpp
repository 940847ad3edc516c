#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>

#include "apps/http.hpp"
#include "ipc/byte_ring.hpp"
#include "ipc/channel.hpp"
#include "net/checksum.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/tcp.hpp"
#include "nic/toeplitz.hpp"
#include "sim/event_queue.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace neat;
using Clock = std::chrono::steady_clock;

namespace {

/// Timed batches per layer; the reported cost is their median.
constexpr int kBatches = 5;
/// Minimum host time of one batch (whole passes over the inputs).
constexpr double kBatchSeconds = 0.02;

/// Keeps replayed results observable so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// Run `pass` (one pass over the inputs, returning the operations it did)
/// until a batch lasts kBatchSeconds; return the median ns per operation
/// over kBatches batches, one span each.
template <typename Pass>
double median_ns_per_op(SpanLog* spans, int parent, const char* name,
                        Pass&& pass) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    SpanScope s(spans, name, parent);
    std::uint64_t ops = 0;
    const auto t0 = Clock::now();
    double dt = 0;
    do {
      ops += pass();
      dt = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (dt < kBatchSeconds && ops > 0);
    if (ops == 0) return 0.0;
    per_op.push_back(dt * 1e9 / static_cast<double>(ops));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

/// One captured IPv4/TCP frame, pre-parsed outside the timed loops.
struct TcpFrame {
  net::PacketPtr pkt;  ///< heap packet holding the whole frame
  net::Ipv4Addr src, dst;
  std::uint16_t sport{0}, dport{0};
  std::size_t seg_off{0};  ///< TCP segment offset in the frame
  std::size_t payload_off{0};
};

std::vector<TcpFrame> parse_frames(const Capture& cap,
                                   std::vector<std::string>& errors) {
  std::vector<TcpFrame> out;
  std::uint64_t bad = 0;
  for (const auto& bytes : cap.frames) {
    // No PacketPool is installed here, so these are plain heap packets.
    net::PacketPtr p = net::Packet::of(bytes);
    const std::size_t size = p->size();
    const auto eth = net::EthernetHeader::decode(*p);
    if (!eth || eth->type != net::EtherType::kIpv4) continue;
    const auto ip = net::Ipv4Header::decode(*p);
    if (!ip) {
      ++bad;
      continue;
    }
    if (ip->proto != net::IpProto::kTcp) continue;
    TcpFrame f;
    f.src = ip->src;
    f.dst = ip->dst;
    f.seg_off = size - p->size();
    const auto tcp = net::TcpHeader::decode(*p, ip->src, ip->dst);
    if (!tcp) {
      ++bad;
      continue;
    }
    f.sport = tcp->src_port;
    f.dport = tcp->dst_port;
    f.payload_off = size - p->size();
    p->push(size - p->size());
    f.pkt = std::move(p);
    out.push_back(std::move(f));
  }
  if (bad > 0) {
    errors.push_back(std::to_string(bad) +
                     " captured frame(s) failed IPv4/TCP decode");
  }
  return out;
}

double time_decode(std::vector<TcpFrame>& frames, SpanLog* spans, int parent,
                   std::vector<std::string>& errors) {
  std::uint64_t failed = 0;
  const double ns = median_ns_per_op(spans, parent, "replay.net.decode", [&] {
    std::uint64_t ok = 0;
    for (auto& f : frames) {
      net::Packet& p = *f.pkt;
      const std::size_t size = p.size();
      const auto eth = net::EthernetHeader::decode(p);
      const auto ip = eth ? net::Ipv4Header::decode(p) : std::nullopt;
      const auto tcp =
          ip ? net::TcpHeader::decode(p, ip->src, ip->dst) : std::nullopt;
      if (tcp) {
        ++ok;
        g_sink = g_sink + tcp->seq;
      } else {
        ++failed;
      }
      p.push(size - p.size());
    }
    return ok;
  });
  if (failed > 0) errors.push_back("replayed decode rejected a valid frame");
  return ns;
}

double time_checksum(const std::vector<TcpFrame>& frames, SpanLog* spans,
                     int parent) {
  std::uint64_t bytes_per_pass = 0;
  for (const auto& f : frames) bytes_per_pass += f.pkt->size() - f.seg_off;
  if (bytes_per_pass == 0) return 0.0;
  const double ns_per_pass =
      median_ns_per_op(spans, parent, "replay.net.checksum", [&] {
        std::uint64_t acc = 0;
        for (const auto& f : frames) {
          acc += net::transport_checksum(
              f.src, f.dst, static_cast<std::uint8_t>(net::IpProto::kTcp),
              f.pkt->bytes().subspan(f.seg_off));
        }
        g_sink = g_sink + acc;
        return std::uint64_t{1};
      });
  return ns_per_pass / (static_cast<double>(bytes_per_pass) / 1024.0);
}

double time_rss(const std::vector<TcpFrame>& frames, SpanLog* spans,
                int parent) {
  const nic::ToeplitzHasher hasher;
  return median_ns_per_op(spans, parent, "replay.nic.rss", [&] {
    std::uint64_t acc = 0;
    for (const auto& f : frames) {
      acc += hasher.hash_tuple(f.src, f.dst, f.sport, f.dport);
    }
    g_sink = g_sink + acc;
    return static_cast<std::uint64_t>(frames.size());
  });
}

double time_http(const Capture& cap, const std::vector<TcpFrame>& frames,
                 SpanLog* spans, int parent, std::vector<std::string>& errors) {
  std::vector<std::span<const std::uint8_t>> chunks;
  for (const auto& f : frames) {
    if (f.dport < cap.http_port_lo || f.dport > cap.http_port_hi) continue;
    const auto b = f.pkt->bytes();
    if (b.size() > f.payload_off) chunks.push_back(b.subspan(f.payload_off));
  }
  if (chunks.empty()) return 0.0;
  std::uint64_t parse_errors = 0;
  const double ns = median_ns_per_op(
      spans, parent, "replay.apps.http_parse", [&] {
        apps::HttpRequestParser parser;
        std::uint64_t reqs = 0;
        for (const auto& c : chunks) {
          reqs += parser.feed(c).size();
          if (parser.error()) {
            ++parse_errors;
            parser.reset();
          }
        }
        return reqs;
      });
  if (parse_errors > 0) {
    errors.push_back("captured HTTP requests failed to parse");
  }
  if (ns == 0.0) errors.push_back("captured HTTP requests held no request");
  return ns;
}

double time_maglev(const Capture& cap, SpanLog* spans, int parent,
                   std::vector<std::string>& errors) {
  if (!cap.maglev || cap.tracked_flows.empty()) return 0.0;
  std::uint64_t mismatches = 0;
  const double ns = median_ns_per_op(
      spans, parent, "replay.fleet.maglev", [&] {
        for (const auto& [flow, id] : cap.tracked_flows) {
          if (cap.maglev->lookup(flow) != id) ++mismatches;
        }
        return static_cast<std::uint64_t>(cap.tracked_flows.size());
      });
  if (mismatches > 0) {
    errors.push_back("maglev lookup disagrees with the tier's conntrack");
  }
  return ns;
}

double time_events(SpanLog* spans, int parent) {
  sim::EventQueue q;
  std::uint64_t fired = 0;
  const double ns = median_ns_per_op(spans, parent, "replay.sim.events", [&] {
    for (int round = 0; round < 256; ++round) {
      for (int i = 0; i < 64; ++i) {
        q.post(static_cast<sim::SimTime>(i % 8 + 1), [&fired] { ++fired; });
      }
      q.run();
    }
    return std::uint64_t{256 * 64};
  });
  g_sink = g_sink + fired;
  return ns;
}

double time_channel(double batch, SpanLog* spans, int parent,
                    std::vector<std::string>& errors) {
  sim::Simulator s;
  sim::Machine& m = s.add_machine(sim::MachineParams{});
  sim::Process consumer(s, "replay-sink");
  consumer.pin(m.thread(0));
  std::uint64_t sum = 0;
  ipc::Channel<std::uint64_t> ch(consumer, 4096, ipc::kDefaultChannelLatency,
                                 sim::Cycles{100},
                                 [&sum](std::uint64_t&& v) { sum += v; });
  const int per_burst = std::max(1, static_cast<int>(batch + 0.5));
  const double ns = median_ns_per_op(spans, parent, "replay.ipc.channel", [&] {
    std::uint64_t sent = 0;
    for (int burst = 0; burst < 512; ++burst) {
      for (int k = 0; k < per_burst; ++k) {
        ch.send(static_cast<std::uint64_t>(k));
        ++sent;
      }
      s.run();
    }
    return sent;
  });
  const auto& st = ch.stats();
  if (st.sent != st.delivered + st.dropped_full + st.dropped_dead) {
    errors.push_back("replay channel lost messages");
  }
  g_sink = g_sink + sum;
  return ns;
}

double time_ring(const Capture& cap, const std::vector<TcpFrame>& frames,
                 SpanLog* spans, int parent) {
  // The workload's write sizes: payload lengths of its data segments.
  std::vector<std::size_t> sizes;
  for (const auto& f : frames) {
    const std::size_t n = f.pkt->size() - f.payload_off;
    if (n > 0) sizes.push_back(std::min(n, cap.ring_capacity));
  }
  if (sizes.empty() || cap.ring_capacity == 0) return 0.0;
  ipc::ByteRing ring(cap.ring_capacity);
  std::vector<std::uint8_t> src(cap.ring_capacity, 0x5a);
  std::vector<std::uint8_t> dst(cap.ring_capacity);
  const double ns_per_byte =
      median_ns_per_op(spans, parent, "replay.ipc.ring", [&] {
        std::uint64_t bytes = 0;
        std::size_t i = 0;
        for (const std::size_t n : sizes) {
          if (ring.writable() < n) {
            // Drain in the same chunk sizes the writer used.
            while (ring.readable() > 0) {
              ring.read({dst.data(), sizes[i++ % sizes.size()]});
            }
          }
          bytes += ring.write({src.data(), n});
        }
        while (ring.readable() > 0) ring.read({dst.data(), dst.size()});
        return bytes;
      });
  g_sink = g_sink + dst[0];
  return ns_per_byte > 0 ? 1.0 / ns_per_byte : 0.0;  // bytes/ns == GB/s
}

}  // namespace

LayerCosts replay_layers(const Capture& cap, const CallsPerPkt& calls,
                         SpanLog* spans, int parent) {
  LayerCosts c;
  std::vector<TcpFrame> frames = parse_frames(cap, c.errors);
  if (frames.empty()) c.errors.push_back("no TCP frame was captured");
  c.decode_ns_per_frame = time_decode(frames, spans, parent, c.errors);
  c.checksum_ns_per_kb = time_checksum(frames, spans, parent);
  c.rss_ns_per_frame = time_rss(frames, spans, parent);
  if (cap.http_port_hi > 0) {
    c.http_ns_per_req = time_http(cap, frames, spans, parent, c.errors);
  }
  c.maglev_ns_per_lookup = time_maglev(cap, spans, parent, c.errors);
  c.sim_ns_per_event = time_events(spans, parent);
  c.ipc_ns_per_msg = time_channel(calls.ipc_batch, spans, parent, c.errors);
  c.ring_gb_per_s = time_ring(cap, frames, spans, parent);
  return c;
}

void scale_to_reference(LayerCosts& c, double speed) {
  c.sim_ns_per_event *= speed;
  c.rss_ns_per_frame *= speed;
  c.decode_ns_per_frame *= speed;
  c.checksum_ns_per_kb *= speed;
  c.ipc_ns_per_msg *= speed;
  c.ring_gb_per_s /= speed;
  c.http_ns_per_req *= speed;
  c.maglev_ns_per_lookup *= speed;
}

LayerLedger ledger(const LayerCosts& c, const CallsPerPkt& calls) {
  LayerLedger l;
  l.sim = c.sim_ns_per_event * calls.events;
  l.nic = c.rss_ns_per_frame * calls.rss_hashes;
  // Every counted frame is decoded once, by its receiver.
  l.net = c.decode_ns_per_frame + c.checksum_ns_per_kb * calls.checksum_kb;
  l.ipc = c.ipc_ns_per_msg * calls.ipc_msgs +
          (c.ring_gb_per_s > 0 ? calls.ring_bytes / c.ring_gb_per_s : 0.0);
  l.apps = c.http_ns_per_req * calls.http_requests;
  l.fleet = c.maglev_ns_per_lookup * calls.maglev_lookups;
  return l;
}

}  // namespace perfbench
