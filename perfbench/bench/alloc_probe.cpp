#include "alloc_probe.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace perfbench {
namespace {

AllocCounters g_counters;

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) return nullptr;
  ++g_counters.allocs;
  g_counters.alloc_bytes += n;
  g_counters.live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) return nullptr;
  ++g_counters.allocs;
  g_counters.alloc_bytes += n;
  g_counters.live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  g_counters.live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}

void* throwing_alloc(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* throwing_aligned_alloc(std::size_t n, std::align_val_t a) {
  void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Value of a "Key:   1234 kB" line of /proc/self/status, in bytes.
std::uint64_t proc_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t klen = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      kb = std::strtoull(line + klen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

}  // namespace

AllocCounters alloc_counters() { return g_counters; }

AllocCounters alloc_delta(const AllocCounters& before,
                          const AllocCounters& after) {
  AllocCounters d;
  d.allocs = after.allocs - before.allocs;
  d.alloc_bytes = after.alloc_bytes - before.alloc_bytes;
  d.live_bytes = after.live_bytes - before.live_bytes;
  return d;
}

std::uint64_t peak_rss_bytes() {
  if (const std::uint64_t hwm = proc_status_kb("VmHWM")) return hwm;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

}  // namespace perfbench

// --- global replacements --------------------------------------------------

void* operator new(std::size_t n) { return perfbench::throwing_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::throwing_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return perfbench::throwing_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return perfbench::throwing_aligned_alloc(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { perfbench::counted_free(p); }
void operator delete[](void* p) noexcept { perfbench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
