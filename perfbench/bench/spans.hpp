// In-memory span log for traced benchmark runs.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer (rig build, each simulated slice, each replay batch). They stay in
// memory and are written out once, when the run ends, so recording costs a
// clock read and a vector push.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  /// Open a span under `parent` (-1 = root); returns its index.
  int begin(std::string name, int parent = -1) {
    spans_.push_back(Span{std::move(name), parent, ns_since_start(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = ns_since_start();
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Write every span as one JSON document; false if the file cannot be
  /// opened.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [\n", run_id_.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                   i, s.parent, s.name.c_str(), s.start_ns, s.end_ns,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    long long start_ns;
    long long end_ns;
  };

  [[nodiscard]] long long ns_since_start() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  std::string run_id_;
  Clock::time_point start_{Clock::now()};
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it a no-op (untraced runs).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, int parent = -1)
      : log_(log), idx_(log != nullptr ? log->begin(std::move(name), parent)
                                       : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->end(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] int id() const { return idx_; }

 private:
  SpanLog* log_;
  int idx_;
};

}  // namespace perfbench
