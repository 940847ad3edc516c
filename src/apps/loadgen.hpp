// The load generator — the paper's httperf stand-in.
//
// Maintains a fixed number of concurrent persistent connections to the
// server; each connection issues `requests_per_conn` GETs for one file and
// is then closed and replaced, sustaining the offered load indefinitely.
// httperf semantics are preserved: a connection that suffers any error is
// discarded from the request-rate and throughput reports (§6.1).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "apps/http.hpp"
#include "obs/metrics.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "socklib/socket_api.hpp"

namespace neat::apps {

class LoadGen : public sim::Process {
 public:
  struct Config {
    net::SockAddr server;
    std::string path{"/file"};
    std::size_t concurrency{8};
    int requests_per_conn{100};
    /// Stop opening new connections after this many (0 = sustain forever).
    std::uint64_t max_conns{0};
    /// Pause between a response and the next request (0 = closed loop at
    /// full speed). Used to dial in low offered loads (Table 2).
    sim::SimTime think_time{0};

    /// When set, every 200-response body is compared byte-for-byte against
    /// this expected content (the served file); mismatches are counted in
    /// Report::payload_mismatches. The pointee must outlive the LoadGen.
    const std::vector<std::uint8_t>* expect_body{nullptr};

    sim::Cycles connect_cost{3500};
    sim::Cycles send_cost{2800};
    sim::Cycles recv_cost{2600};
    sim::Cycles per_16_bytes{2};
  };

  struct Report {
    std::uint64_t committed_requests{0};  ///< from error-free connections
    std::uint64_t committed_bytes{0};
    std::uint64_t clean_conns{0};
    std::uint64_t error_conns{0};
    std::uint64_t bad_status{0};
    /// Body bytes that differed from Config::expect_body (0 = integrity
    /// held end-to-end, the chaos campaign's core data invariant).
    std::uint64_t payload_mismatches{0};
    /// Error connections broken down by CloseReason (indexed by enum).
    std::array<std::uint64_t, 5> errors_by_reason{};
    /// Per-response latency. A mergeable log-linear histogram so the
    /// harness can fold all generators into one percentile report.
    obs::Histogram latency;
  };

  LoadGen(sim::Simulator& sim, std::string name, Config config);

  void attach_api(std::unique_ptr<socklib::SocketApi> api);
  void start();

  /// Begin a fresh measurement window (call after warmup).
  void mark();

  [[nodiscard]] const Report& report() const { return report_; }
  [[nodiscard]] Config& config() { return config_; }
  [[nodiscard]] std::size_t in_flight_conns() const { return conns_.size(); }

 protected:
  void on_restart() override {}

 private:
  struct Conn {
    HttpResponseParser parser;
    int completed{0};
    std::uint64_t request_sent_at{0};
    std::uint64_t window_requests{0};  ///< completed inside current window
    std::uint64_t window_bytes{0};
    std::uint64_t prev_body_total{0};
    bool request_outstanding{false};
    bool counted{false};  ///< error accounting done
  };

  void open_connection();
  void send_request(socklib::Fd fd);
  void do_send(socklib::Fd fd);
  void on_readable(socklib::Fd fd);
  void on_closed(socklib::Fd fd, socklib::CloseReason reason);

  Config config_;
  std::vector<std::uint8_t> request_;  ///< built once by start()
  Report report_;
  obs::Histogram* global_latency_{nullptr};  ///< all-window registry copy
  std::unique_ptr<socklib::SocketApi> api_;
  std::unordered_map<socklib::Fd, Conn> conns_;
  std::uint64_t conns_started_{0};
  bool started_{false};
};

}  // namespace neat::apps
