#include "apps/loadgen.hpp"

#include <algorithm>
#include <cassert>

namespace neat::apps {

using socklib::CloseReason;
using socklib::ConnCallbacks;
using socklib::Fd;
using socklib::kBadFd;

LoadGen::LoadGen(sim::Simulator& sim, std::string name, Config config)
    : sim::Process(sim, std::move(name)), config_(std::move(config)) {}

void LoadGen::attach_api(std::unique_ptr<socklib::SocketApi> api) {
  api_ = std::move(api);
}

void LoadGen::start() {
  assert(api_ && "attach_api() before start()");
  started_ = true;
  request_ = build_request(config_.path);  // the same bytes every request
  for (std::size_t i = 0; i < config_.concurrency; ++i) open_connection();
}

void LoadGen::mark() {
  report_.committed_requests = 0;
  report_.committed_bytes = 0;
  report_.clean_conns = 0;
  report_.error_conns = 0;
  report_.bad_status = 0;
  report_.payload_mismatches = 0;
  report_.errors_by_reason.fill(0);
  report_.latency.reset();
  for (auto& [fd, c] : conns_) {
    c.window_requests = 0;
    c.window_bytes = 0;
  }
}

void LoadGen::open_connection() {
  if (!started_) return;
  if (config_.max_conns != 0 && conns_started_ >= config_.max_conns) return;
  ++conns_started_;
  post(config_.connect_cost, [this] {
    ConnCallbacks cb;
    cb.on_connected = [this](Fd fd) { send_request(fd); };
    cb.on_readable = [this](Fd fd) { on_readable(fd); };
    cb.on_closed = [this](Fd fd, CloseReason r) { on_closed(fd, r); };
    const Fd fd = api_->connect(config_.server, std::move(cb));
    if (fd == kBadFd) {
      ++report_.error_conns;
      open_connection();
      return;
    }
    auto [cit, inserted] = conns_.emplace(fd, Conn{});
    if (inserted && config_.expect_body != nullptr) {
      // Element addresses in an unordered_map are stable; the sink dies
      // with the Conn it points at.
      Conn* cp = &cit->second;
      cp->parser.set_body_sink(
          [this, cp](std::size_t off, std::span<const std::uint8_t> chunk) {
            if (cp->parser.last_status() != 200) return;
            const auto& want = *config_.expect_body;
            if (off + chunk.size() > want.size() ||
                !std::equal(chunk.begin(), chunk.end(), want.begin() + off)) {
              ++report_.payload_mismatches;
            }
          });
    }
  });
}

void LoadGen::send_request(Fd fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (config_.think_time > 0) {
    after(config_.think_time, config_.send_cost, [this, fd] { do_send(fd); });
    return;
  }
  post(config_.send_cost, [this, fd] { do_send(fd); });
}

void LoadGen::do_send(Fd fd) {
  auto cit = conns_.find(fd);
  if (cit == conns_.end()) return;
  Conn& c = cit->second;
  const std::size_t n = api_->send(fd, request_);
  // Requests are tiny; a short write here means the connection is dying.
  if (n != request_.size()) {
    api_->close(fd);
    on_closed(fd, CloseReason::kReset);
    return;
  }
  c.request_outstanding = true;
  c.request_sent_at = sim().now();
}

void LoadGen::on_readable(Fd fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const std::size_t avail = api_->readable(fd);
  post(config_.recv_cost + config_.per_16_bytes * (avail / 16), [this, fd] {
    auto cit = conns_.find(fd);
    if (cit == conns_.end()) return;
    Conn& c = cit->second;

    std::uint8_t buf[8192];
    std::size_t done = 0;
    while (true) {
      const std::size_t n = api_->recv(fd, buf);
      if (n == 0) break;
      done += c.parser.feed({buf, n});
      if (c.parser.error()) break;
    }

    if (c.parser.error()) {
      api_->close(fd);
      on_closed(fd, CloseReason::kReset);
      return;
    }

    for (std::size_t i = 0; i < done; ++i) {
      if (!c.request_outstanding) break;
      c.request_outstanding = false;
      if (c.parser.last_status() != 200) ++report_.bad_status;
      const sim::SimTime lat = sim().now() - c.request_sent_at;
      report_.latency.record(lat);
      if (global_latency_ == nullptr) {
        global_latency_ =
            &sim().metrics().histogram("loadgen.request_latency_ns");
      }
      global_latency_->record(lat);
      ++c.completed;
      // Count optimistically; if the connection later errors, its window
      // contribution is dismissed (httperf semantics) in on_closed().
      ++c.window_requests;
      ++report_.committed_requests;
      const std::uint64_t nb = c.parser.body_bytes_total() - c.prev_body_total;
      c.window_bytes += nb;
      report_.committed_bytes += nb;
      c.prev_body_total = c.parser.body_bytes_total();

      if (c.completed >= config_.requests_per_conn) {
        ++report_.clean_conns;
        c.counted = true;
        api_->close(fd);
        conns_.erase(fd);
        open_connection();
        return;
      }
      send_request(fd);
    }

    if (api_->eof(fd)) {
      api_->close(fd);
      on_closed(fd, CloseReason::kReset);
    }
  });
}

void LoadGen::on_closed(Fd fd, CloseReason reason) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (!c.counted) {
    // httperf semantics: any connection with an error is dismissed from
    // the reported request rate and throughput — take back its window
    // contribution.
    report_.committed_requests -= std::min(report_.committed_requests,
                                           c.window_requests);
    report_.committed_bytes -=
        std::min(report_.committed_bytes, c.window_bytes);
    ++report_.error_conns;
    const auto idx = static_cast<std::size_t>(reason);
    if (idx < report_.errors_by_reason.size()) {
      ++report_.errors_by_reason[idx];
    }
  }
  conns_.erase(it);
  open_connection();
}

}  // namespace neat::apps
