#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// A random cyclic permutation over 8 MiB, built once per process.
const std::vector<std::uint32_t>& chase_ring() {
  static const std::vector<std::uint32_t> ring = [] {
    constexpr std::size_t kN = 2u << 20;
    std::vector<std::uint32_t> order(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    for (std::size_t i = kN - 1; i > 0; --i) {
      std::swap(order[i], order[xorshift(x) % (i + 1)]);
    }
    std::vector<std::uint32_t> next(kN);
    for (std::size_t i = 0; i < kN; ++i) next[order[i]] = order[(i + 1) % kN];
    return next;
  }();
  return ring;
}

volatile std::uint64_t g_sink = 0;

}  // namespace

double calibration_seconds() {
  const std::vector<std::uint32_t>& ring = chase_ring();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;

  std::uint32_t p = 0;
  for (int i = 0; i < 300'000; ++i) p = ring[p];
  acc += p;

  std::uint64_t x = 0x9e3779b97f4a7c15ULL + p;
  std::unordered_map<std::uint64_t, std::uint64_t> flows;
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t k = xorshift(x);
    flows[k & 0x3fff] += k;
    flows.erase((k >> 17) & 0x3fff);
  }
  acc += flows.size();

  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t now = 0;
  for (std::uint32_t i = 0; i < 512; ++i) {
    events.emplace(xorshift(x) & 0xffff, i);
  }
  for (int i = 0; i < 100'000; ++i) {
    const Event e = events.top();
    events.pop();
    now = e.first;
    acc += e.second;
    events.emplace(now + 1 + (xorshift(x) & 0xfff), e.second);
  }

  std::vector<std::uint8_t> src(1u << 20), dst(1u << 20);
  for (std::size_t i = 0; i < src.size(); i += 64) {
    src[i] = static_cast<std::uint8_t>(i);
  }
  for (int i = 0; i < 12'000; ++i) {
    const std::size_t off = (xorshift(x) % (src.size() / 1500)) * 1500;
    std::memcpy(dst.data() + off, src.data() + (src.size() - 1500 - off), 1500);
  }
  acc += dst[1500];

  std::vector<std::uint64_t> keys(20'000);
  for (auto& k : keys) k = xorshift(x);
  std::sort(keys.begin(), keys.end());
  acc += keys[keys.size() / 2];

  g_sink = g_sink + acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
