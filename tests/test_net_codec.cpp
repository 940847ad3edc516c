// Unit and property tests for the wire codecs: checksum, Ethernet, ARP,
// IPv4 (incl. fragmentation/reassembly), UDP, ICMP, packet filter.
#include <gtest/gtest.h>

#include <vector>

#include "net/arp.hpp"
#include "net/checksum.hpp"
#include "net/ethernet.hpp"
#include "net/filter.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/udp.hpp"
#include "net/wire.hpp"
#include "sim/random.hpp"

namespace neat::net {
namespace {

const Ipv4Addr kA = Ipv4Addr::of(10, 0, 0, 1);
const Ipv4Addr kB = Ipv4Addr::of(10, 0, 0, 2);

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

TEST(Checksum, Rfc1071ReferenceVector) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03,
                               0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, VerifiesToZeroWithChecksumInPlace) {
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5,
                               0xf6, 0xf7, 0x22, 0x0d};
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(Checksum, OddLengthHandled) {
  const std::uint8_t data[] = {0xab, 0xcd, 0xef};
  ChecksumAccumulator one;
  one.add(data);
  // Equivalent to padding with a zero byte.
  const std::uint8_t padded[] = {0xab, 0xcd, 0xef, 0x00};
  EXPECT_EQ(one.finish(), internet_checksum(padded));
}

namespace {
/// Independent byte-pair reference implementation (straight RFC 1071 §1):
/// the production word-wise bulk path is checked against this.
std::uint16_t reference_checksum(std::span<const std::uint8_t> d) {
  std::uint64_t s = 0;
  std::size_t i = 0;
  for (; i + 1 < d.size(); i += 2) {
    s += static_cast<std::uint32_t>(d[i]) << 8 | d[i + 1];
  }
  if (i < d.size()) s += static_cast<std::uint32_t>(d[i]) << 8;
  while (s >> 16) s = (s & 0xffff) + (s >> 16);
  return static_cast<std::uint16_t>(~s);
}
}  // namespace

class ChecksumChunking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChecksumChunking, IncrementalEqualsOneShot) {
  sim::Rng rng(GetParam());
  std::vector<std::uint8_t> data(1 + rng.below(500));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint16_t oneshot = internet_checksum(data);

  ChecksumAccumulator acc;
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.below(33), data.size() - off);
    acc.add(std::span<const std::uint8_t>(data).subspan(off, n));
    off += n;
  }
  EXPECT_EQ(acc.finish(), oneshot);

  // TSO size, odd-length chunks: every other chunk starts on an odd byte,
  // so the dangling-byte pairing hands the bulk kernel odd parity at
  // 64 KiB.
  std::vector<std::uint8_t> big(65536 - rng.below(2));
  for (auto& b : big) b = static_cast<std::uint8_t>(rng());
  ChecksumAccumulator big_acc;
  for (off = 0; off < big.size();) {
    const std::size_t n =
        std::min<std::size_t>(1 + 2 * rng.below(4800), big.size() - off);
    big_acc.add(std::span<const std::uint8_t>(big).subspan(off, n));
    off += n;
  }
  EXPECT_EQ(big_acc.finish(), reference_checksum(big));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumChunking,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(Checksum, DetectsSingleByteCorruption) {
  sim::Rng rng(77);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> seg(40 + rng.below(200));
    for (auto& b : seg) b = static_cast<std::uint8_t>(rng());
    // Zero the "checksum field", then fill it.
    seg[16] = seg[17] = 0;
    const std::uint16_t sum = transport_checksum(kA, kB, 6, seg);
    seg[16] = static_cast<std::uint8_t>(sum >> 8);
    seg[17] = static_cast<std::uint8_t>(sum);
    ASSERT_TRUE(verify_transport_checksum(kA, kB, 6, seg));
    // Flip one byte anywhere: verification must fail.
    const std::size_t i = rng.below(seg.size());
    seg[i] ^= 0xff;
    EXPECT_FALSE(verify_transport_checksum(kA, kB, 6, seg));
  }
}

TEST(Checksum, WordwiseFoldCarryBoundary) {
  // Regression: the word-wise bulk path once folded its 64-bit partial sum
  // a fixed number of times; sums landing exactly on the 0xffff boundary
  // could leave an unfolded end-around carry that the 16-bit narrowing
  // silently dropped (~1/65536 of packets failed verification). Sweep a
  // saturated buffer's last word across the boundary region so every carry
  // pattern is exercised deterministically.
  std::vector<std::uint8_t> buf(64, 0xff);
  for (std::uint32_t k = 0; k < 512; ++k) {
    buf[62] = static_cast<std::uint8_t>(k >> 8);
    buf[63] = static_cast<std::uint8_t>(k);
    ASSERT_EQ(internet_checksum(buf), reference_checksum(buf))
        << "tail word " << k;
  }
  // And an all-saturated buffer at every length that enters the bulk path,
  // plus the largest IPv4 payloads, where every accumulator takes its
  // maximum on each word.
  for (std::size_t len = 8; len <= 80; ++len) {
    std::vector<std::uint8_t> ones(len, 0xff);
    ASSERT_EQ(internet_checksum(ones), reference_checksum(ones))
        << "length " << len;
  }
  for (const std::size_t len : {65534u, 65535u}) {
    std::vector<std::uint8_t> ones(len, 0xff);
    ASSERT_EQ(internet_checksum(ones), reference_checksum(ones))
        << "length " << len;
  }
}

TEST(Checksum, WordwiseMatchesReferenceOnRandomBuffers) {
  sim::Rng rng(4242);
  for (int trial = 0; trial < 256; ++trial) {
    std::vector<std::uint8_t> data(1 + rng.below(300));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    ASSERT_EQ(internet_checksum(data), reference_checksum(data));
  }
  // TSO sizes up to the largest IPv4 payload, read from odd start offsets
  // (unaligned word loads, the way a TCP payload sits in a frame).
  std::vector<std::uint8_t> pool(65535 + 8);
  for (auto& b : pool) b = static_cast<std::uint8_t>(rng());
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t off = 1 + 2 * rng.below(4);
    const std::size_t len = trial == 0 ? 65535 : 1 + rng.below(65535);
    const std::span<const std::uint8_t> d(pool.data() + off, len);
    ASSERT_EQ(internet_checksum(d), reference_checksum(d))
        << "length " << len << " offset " << off;
  }
}

TEST(Checksum, TransportGoldenVectors) {
  // Hand-computed against an independent implementation: TCP with an
  // odd-length segment (exercises the pseudo-header + pad rule), UDP even.
  const std::uint8_t tcp_seg[] = {0x1f, 0x90, 0x00, 0x50,
                                  0xde, 0xad, 0xbe};
  EXPECT_EQ(transport_checksum(kA, kB, 6, tcp_seg), 0x2f61);
  const std::uint8_t udp_seg[] = {0x00, 0x35, 0x04, 0xd2, 0x00,
                                  0x0a, 0x00, 0x00, 0xca, 0xfe};
  EXPECT_EQ(transport_checksum(kA, kB, 17, udp_seg), 0x1bd2);
}

TEST(Checksum, TransportMatchesExplicitPseudoHeaderBytes) {
  // transport_checksum's add_u16/add_u32 fast paths must agree with
  // checksumming the literal pseudo-header byte layout (RFC 793 §3.1).
  sim::Rng rng(99);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> seg(1 + rng.below(120));
    for (auto& b : seg) b = static_cast<std::uint8_t>(rng());
    const std::uint8_t proto = trial % 2 ? 6 : 17;
    const auto oct = [](Ipv4Addr a, int i) {
      return static_cast<std::uint8_t>(a.value >> (24 - 8 * i));
    };
    std::vector<std::uint8_t> explicit_bytes = {
        oct(kA, 0), oct(kA, 1), oct(kA, 2), oct(kA, 3),
        oct(kB, 0), oct(kB, 1), oct(kB, 2), oct(kB, 3),
        0,          proto,
        static_cast<std::uint8_t>(seg.size() >> 8),
        static_cast<std::uint8_t>(seg.size())};
    explicit_bytes.insert(explicit_bytes.end(), seg.begin(), seg.end());
    ASSERT_EQ(transport_checksum(kA, kB, proto, seg),
              reference_checksum(explicit_bytes));
  }
}

TEST(Checksum, SingleBitCorruptionAlwaysDetected) {
  // Ones-complement arithmetic detects every single-bit error (a flip
  // changes the sum by ±2^k, never 0 mod 0xffff). Exhaustive over a
  // wire-realistic segment: every one of the 480 bit positions must fail
  // verification.
  std::vector<std::uint8_t> seg(60);
  sim::Rng rng(31337);
  for (auto& b : seg) b = static_cast<std::uint8_t>(rng());
  seg[16] = seg[17] = 0;
  const std::uint16_t sum = transport_checksum(kA, kB, 6, seg);
  seg[16] = static_cast<std::uint8_t>(sum >> 8);
  seg[17] = static_cast<std::uint8_t>(sum);
  ASSERT_TRUE(verify_transport_checksum(kA, kB, 6, seg));
  for (std::size_t byte = 0; byte < seg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      seg[byte] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_FALSE(verify_transport_checksum(kA, kB, 6, seg))
          << "byte " << byte << " bit " << bit;
      seg[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
  ASSERT_TRUE(verify_transport_checksum(kA, kB, 6, seg));
}

// ---------------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------------

TEST(Addr, Formatting) {
  EXPECT_EQ(Ipv4Addr::of(192, 168, 1, 42).str(), "192.168.1.42");
  EXPECT_EQ(MacAddr::local(1).str(), "02:00:00:00:00:01");
  EXPECT_EQ((SockAddr{kA, 80}).str(), "10.0.0.1:80");
}

TEST(Addr, BroadcastDetection) {
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddr::local(3).is_broadcast());
}

TEST(Addr, FlowKeyHashSpreads) {
  FlowKeyHash h;
  std::size_t h1 = h(FlowKey{kA, 80, kB, 1000});
  std::size_t h2 = h(FlowKey{kA, 80, kB, 1001});
  std::size_t h3 = h(FlowKey{kB, 80, kA, 1000});
  EXPECT_NE(h1, h2);
  EXPECT_NE(h1, h3);
}

// ---------------------------------------------------------------------------
// Ethernet
// ---------------------------------------------------------------------------

TEST(Ethernet, EncodeDecodeRoundtrip) {
  auto p = Packet::make(10);
  for (std::size_t i = 0; i < 10; ++i) p->bytes()[i] = std::uint8_t(i);
  EthernetHeader h;
  h.src = MacAddr::local(1);
  h.dst = MacAddr::local(2);
  h.type = EtherType::kIpv4;
  h.encode(*p);
  EXPECT_EQ(p->size(), 10 + EthernetHeader::kSize);

  auto d = EthernetHeader::decode(*p);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->src, h.src);
  EXPECT_EQ(d->dst, h.dst);
  EXPECT_EQ(d->type, EtherType::kIpv4);
  EXPECT_EQ(p->size(), 10u);
  EXPECT_EQ(p->bytes()[3], 3);
}

TEST(Ethernet, RejectsRunts) {
  auto p = Packet::make(4);
  EXPECT_FALSE(EthernetHeader::decode(*p));
}

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

TEST(Ipv4, EncodeDecodeRoundtrip) {
  auto p = Packet::make(32);
  Ipv4Header h;
  h.src = kA;
  h.dst = kB;
  h.proto = IpProto::kTcp;
  h.ident = 4242;
  h.ttl = 61;
  h.encode(*p);

  auto d = Ipv4Header::decode(*p);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->src, kA);
  EXPECT_EQ(d->dst, kB);
  EXPECT_EQ(d->proto, IpProto::kTcp);
  EXPECT_EQ(d->ident, 4242);
  EXPECT_EQ(d->ttl, 61);
  EXPECT_EQ(p->size(), 32u);
}

TEST(Ipv4, HeaderChecksumCorruptionRejected) {
  auto p = Packet::make(8);
  Ipv4Header h;
  h.src = kA;
  h.dst = kB;
  h.encode(*p);
  p->bytes()[12] ^= 0x40;  // corrupt a source-address byte
  EXPECT_FALSE(Ipv4Header::decode(*p));
}

TEST(Ipv4, TrimsLinkPadding) {
  auto p = Packet::make(8);
  Ipv4Header h;
  h.src = kA;
  h.dst = kB;
  h.encode(*p);
  // Simulate 18 bytes of Ethernet min-frame padding after the datagram.
  auto padded = Packet::make(p->size() + 18);
  auto bytes = p->bytes();
  std::copy(bytes.begin(), bytes.end(), padded->bytes().begin());
  auto d = Ipv4Header::decode(*padded);
  ASSERT_TRUE(d);
  EXPECT_EQ(padded->size(), 8u);
}

class FragmentationProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FragmentationProperty, FragmentThenReassembleIsIdentity) {
  const std::size_t payload_size = GetParam();
  sim::Rng rng(payload_size);
  auto payload = Packet::make(payload_size);
  for (auto& b : payload->bytes()) b = static_cast<std::uint8_t>(rng());

  Ipv4Header h;
  h.src = kA;
  h.dst = kB;
  h.proto = IpProto::kUdp;
  h.ident = 99;
  auto frags = ipv4_fragment(h, *payload, kEthernetMtu);
  if (payload_size + Ipv4Header::kSize > kEthernetMtu) {
    EXPECT_GT(frags.size(), 1u);
  }

  // Deliver in reverse order to exercise out-of-order reassembly.
  Ipv4Reassembler reasm;
  std::optional<Ipv4Reassembler::Result> result;
  for (auto it = frags.rbegin(); it != frags.rend(); ++it) {
    auto hdr = Ipv4Header::decode(**it);
    ASSERT_TRUE(hdr);
    auto r = reasm.add(*hdr, *it);
    if (r) result = r;
  }
  ASSERT_TRUE(result);
  ASSERT_EQ(result->payload->size(), payload_size);
  EXPECT_TRUE(std::equal(payload->bytes().begin(), payload->bytes().end(),
                         result->payload->bytes().begin()));
  EXPECT_EQ(reasm.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FragmentationProperty,
                         ::testing::Values(1, 100, 1479, 1480, 1481, 3000,
                                           8000, 20000, 65000));

TEST(Ipv4, InterleavedDatagramsReassembleIndependently) {
  Ipv4Reassembler reasm;
  auto make_frags = [](std::uint16_t ident, std::uint8_t fill) {
    auto p = Packet::make(4000);
    for (auto& b : p->bytes()) b = fill;
    Ipv4Header h;
    h.src = kA;
    h.dst = kB;
    h.proto = IpProto::kUdp;
    h.ident = ident;
    return ipv4_fragment(h, *p, kEthernetMtu);
  };
  auto f1 = make_frags(1, 0x11);
  auto f2 = make_frags(2, 0x22);
  int complete = 0;
  for (std::size_t i = 0; i < std::max(f1.size(), f2.size()); ++i) {
    for (auto* frags : {&f1, &f2}) {
      if (i >= frags->size()) continue;
      auto hdr = Ipv4Header::decode(*(*frags)[i]);
      ASSERT_TRUE(hdr);
      if (auto r = reasm.add(*hdr, (*frags)[i])) {
        ++complete;
        EXPECT_EQ(r->payload->size(), 4000u);
        EXPECT_EQ(r->payload->bytes()[0],
                  r->header.ident == 1 ? 0x11 : 0x22);
      }
    }
  }
  EXPECT_EQ(complete, 2);
}

// ---------------------------------------------------------------------------
// ARP
// ---------------------------------------------------------------------------

TEST(Arp, MessageRoundtrip) {
  ArpMessage m;
  m.op = ArpMessage::Op::kRequest;
  m.sender_mac = MacAddr::local(1);
  m.sender_ip = kA;
  m.target_ip = kB;
  auto p = m.encode();
  auto d = ArpMessage::decode(*p);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->op, ArpMessage::Op::kRequest);
  EXPECT_EQ(d->sender_mac, MacAddr::local(1));
  EXPECT_EQ(d->sender_ip, kA);
  EXPECT_EQ(d->target_ip, kB);
}

TEST(Arp, ResolverRequestReplyFlow) {
  std::vector<std::pair<ArpMessage, MacAddr>> a_tx, b_tx;
  ArpResolver a(MacAddr::local(1), kA,
                [&](const ArpMessage& m, MacAddr d) { a_tx.push_back({m, d}); });
  ArpResolver b(MacAddr::local(2), kB,
                [&](const ArpMessage& m, MacAddr d) { b_tx.push_back({m, d}); });

  std::optional<MacAddr> resolved;
  a.resolve(kB, [&](MacAddr m) { resolved = m; });
  ASSERT_EQ(a_tx.size(), 1u);  // broadcast request
  EXPECT_TRUE(a_tx[0].second.is_broadcast());
  EXPECT_FALSE(resolved);

  b.handle(a_tx[0].first);  // B answers and learns A
  ASSERT_EQ(b_tx.size(), 1u);
  EXPECT_EQ(b_tx[0].second, MacAddr::local(1));
  EXPECT_EQ(b.lookup(kA), MacAddr::local(1));

  a.handle(b_tx[0].first);  // A learns B; pending callback fires
  ASSERT_TRUE(resolved);
  EXPECT_EQ(*resolved, MacAddr::local(2));

  // Second resolve is served from cache, no new request.
  a.resolve(kB, [](MacAddr) {});
  EXPECT_EQ(a_tx.size(), 1u);
}

TEST(Arp, CoalescesConcurrentRequests) {
  int tx = 0;
  ArpResolver a(MacAddr::local(1), kA,
                [&](const ArpMessage&, MacAddr) { ++tx; });
  int cbs = 0;
  a.resolve(kB, [&](MacAddr) { ++cbs; });
  a.resolve(kB, [&](MacAddr) { ++cbs; });
  EXPECT_EQ(tx, 1);
  a.insert(kB, MacAddr::local(2));
  ArpMessage reply;
  reply.op = ArpMessage::Op::kReply;
  reply.sender_mac = MacAddr::local(2);
  reply.sender_ip = kB;
  a.handle(reply);
  EXPECT_EQ(cbs, 2);
}

// ---------------------------------------------------------------------------
// UDP / ICMP
// ---------------------------------------------------------------------------

TEST(Udp, EncodeDecodeRoundtrip) {
  auto p = Packet::make(5);
  for (std::size_t i = 0; i < 5; ++i) p->bytes()[i] = std::uint8_t(i + 1);
  UdpHeader h;
  h.src_port = 1234;
  h.dst_port = 53;
  h.encode(*p, kA, kB);
  auto d = UdpHeader::decode(*p, kA, kB);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->src_port, 1234);
  EXPECT_EQ(d->dst_port, 53);
  EXPECT_EQ(p->size(), 5u);
  EXPECT_EQ(p->bytes()[0], 1);
}

TEST(Udp, ChecksumCorruptionRejected) {
  auto p = Packet::make(5);
  UdpHeader h;
  h.src_port = 1;
  h.dst_port = 2;
  h.encode(*p, kA, kB);
  p->bytes()[UdpHeader::kSize + 2] ^= 0x5a;
  EXPECT_FALSE(UdpHeader::decode(*p, kA, kB));
}

TEST(Udp, AllZeroChecksumTransmittedAsFFFF) {
  // RFC 768: a computed checksum of zero is transmitted as all-ones
  // (0x0000 on the wire means "no checksum"). The payload below is crafted
  // so the pseudo-header sum folds to exactly 0xffff -> checksum 0.
  auto p = Packet::make(2);
  p->bytes()[0] = 0xeb;
  p->bytes()[1] = 0xd7;
  UdpHeader h;  // ports 0/0
  h.encode(*p, kA, kB);
  EXPECT_EQ(get_u16(p->bytes(), 6), 0xffff)
      << "zero checksum must be sent as 0xffff";
  EXPECT_TRUE(UdpHeader::decode(*p, kA, kB));
}

TEST(Udp, ZeroWireChecksumSkipsVerification) {
  // 0x0000 in the checksum field means the sender didn't checksum the
  // datagram; the receiver must accept it unverified.
  auto p = Packet::make(4);
  for (std::size_t i = 0; i < 4; ++i) p->bytes()[i] = std::uint8_t(i);
  UdpHeader h;
  h.src_port = 7;
  h.dst_port = 8;
  h.encode(*p, kA, kB);
  put_u16(p->bytes(), 6, 0);  // sender opted out of checksumming
  EXPECT_TRUE(UdpHeader::decode(*p, kA, kB));
}

TEST(Udp, MuxRoutesByPort) {
  UdpMux mux;
  int hits = 0;
  EXPECT_TRUE(mux.bind(53, [&](UdpMux::Datagram d) {
    ++hits;
    EXPECT_EQ(d.from.port, 9999);
  }));
  EXPECT_FALSE(mux.bind(53, [](UdpMux::Datagram) {}));  // port taken
  UdpHeader h;
  h.src_port = 9999;
  h.dst_port = 53;
  EXPECT_TRUE(mux.deliver(h, kB, kA, Packet::make(0)));
  h.dst_port = 54;
  EXPECT_FALSE(mux.deliver(h, kB, kA, Packet::make(0)));
  EXPECT_EQ(hits, 1);
  mux.unbind(53);
  EXPECT_FALSE(mux.is_bound(53));
}

TEST(Icmp, EchoRoundtrip) {
  auto p = Packet::make(16);
  IcmpMessage m;
  m.type = IcmpMessage::Type::kEchoRequest;
  m.ident = 7;
  m.seq = 3;
  m.encode(*p);
  auto d = IcmpMessage::decode(*p);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->type, IcmpMessage::Type::kEchoRequest);
  EXPECT_EQ(d->ident, 7);
  EXPECT_EQ(d->seq, 3);
}

// ---------------------------------------------------------------------------
// Packet filter
// ---------------------------------------------------------------------------

TEST(Filter, FirstMatchWinsDefaultAccept) {
  PacketFilter pf;
  EXPECT_TRUE(pf.accept(IpProto::kTcp, kA, kB, 1, 80));  // no rules

  FilterRule drop_tcp80;
  drop_tcp80.action = FilterRule::Action::kDrop;
  drop_tcp80.proto = IpProto::kTcp;
  drop_tcp80.dst_port = 80;
  pf.add_rule(drop_tcp80);

  FilterRule accept_all;
  accept_all.action = FilterRule::Action::kAccept;
  pf.add_rule(accept_all);

  EXPECT_FALSE(pf.accept(IpProto::kTcp, kA, kB, 1, 80));
  EXPECT_TRUE(pf.accept(IpProto::kTcp, kA, kB, 1, 81));
  EXPECT_TRUE(pf.accept(IpProto::kUdp, kA, kB, 1, 80));
  EXPECT_EQ(pf.rules()[0].hits, 1u);
  EXPECT_EQ(pf.rules()[1].hits, 2u);
}

TEST(Filter, WildcardsMatchAnything) {
  PacketFilter pf;
  FilterRule drop_from_a;
  drop_from_a.action = FilterRule::Action::kDrop;
  drop_from_a.src_ip = kA;
  pf.add_rule(drop_from_a);
  EXPECT_FALSE(pf.accept(IpProto::kTcp, kA, kB, 5, 6));
  EXPECT_FALSE(pf.accept(IpProto::kUdp, kA, kB, 7, 8));
  EXPECT_TRUE(pf.accept(IpProto::kTcp, kB, kA, 5, 6));
}

// ---------------------------------------------------------------------------
// Packet buffer
// ---------------------------------------------------------------------------

TEST(PacketBuffer, PushPullSymmetry) {
  auto p = Packet::make(4);
  p->bytes()[0] = 0xaa;
  auto hdr = p->push(3);
  hdr[0] = 1;
  hdr[1] = 2;
  hdr[2] = 3;
  EXPECT_EQ(p->size(), 7u);
  auto pulled = p->pull(3);
  EXPECT_EQ(pulled[2], 3);
  EXPECT_EQ(p->size(), 4u);
  EXPECT_EQ(p->bytes()[0], 0xaa);
}

TEST(PacketBuffer, CloneIsDeep) {
  auto p = Packet::of(std::vector<std::uint8_t>{1, 2, 3});
  auto c = p->clone();
  c->bytes()[0] = 9;
  EXPECT_EQ(p->bytes()[0], 1);
}

}  // namespace
}  // namespace neat::net
