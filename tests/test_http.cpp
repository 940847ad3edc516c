// HTTP codec and FileStore tests, including chunking property tests.
#include <gtest/gtest.h>

#include "apps/http.hpp"
#include "sim/random.hpp"

namespace neat::apps {
namespace {

std::span<const std::uint8_t> bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(HttpRequestParser, ParsesSimpleGet) {
  HttpRequestParser p;
  auto reqs = p.feed(bytes("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"));
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].method, "GET");
  EXPECT_EQ(reqs[0].path, "/index.html");
  EXPECT_TRUE(reqs[0].keep_alive);
}

TEST(HttpRequestParser, ConnectionCloseDisablesKeepAlive) {
  HttpRequestParser p;
  auto reqs = p.feed(
      bytes("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_FALSE(reqs[0].keep_alive);
}

TEST(HttpRequestParser, Http10DefaultsToClose) {
  HttpRequestParser p;
  auto reqs = p.feed(bytes("GET / HTTP/1.0\r\n\r\n"));
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_FALSE(reqs[0].keep_alive);
  auto reqs2 = p.feed(
      bytes("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
  ASSERT_EQ(reqs2.size(), 1u);
  EXPECT_TRUE(reqs2[0].keep_alive);
}

TEST(HttpRequestParser, PipelinedRequestsInOneChunk) {
  HttpRequestParser p;
  auto reqs = p.feed(bytes("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"));
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].path, "/a");
  EXPECT_EQ(reqs[1].path, "/b");
}

TEST(HttpRequestParser, MalformedRequestLineSetsError) {
  HttpRequestParser p;
  p.feed(bytes("NONSENSE\r\n\r\n"));
  EXPECT_TRUE(p.error());
}

TEST(HttpRequestParser, OversizedHeaderSetsError) {
  HttpRequestParser p;
  std::string huge = "GET / HTTP/1.1\r\nX: ";
  huge += std::string(10000, 'a');
  p.feed(bytes(huge));
  EXPECT_TRUE(p.error());
}

class RequestChunking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RequestChunking, ArbitrarySegmentationYieldsSameRequests) {
  sim::Rng rng(GetParam());
  std::string stream;
  for (int i = 0; i < 20; ++i) {
    stream += "GET /f" + std::to_string(i) + " HTTP/1.1\r\nHost: s\r\n\r\n";
  }
  HttpRequestParser p;
  std::vector<HttpRequest> all;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.below(23), stream.size() - off);
    auto got = p.feed(bytes(stream.substr(off, n)));
    all.insert(all.end(), got.begin(), got.end());
    off += n;
  }
  ASSERT_EQ(all.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)].path,
              "/f" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestChunking,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(HttpResponse, BuildAndParseRoundtrip) {
  const std::vector<std::uint8_t> body{'h', 'i'};
  auto resp = build_response(200, body);
  HttpResponseParser p;
  EXPECT_EQ(p.feed(resp), 1u);
  EXPECT_EQ(p.last_status(), 200);
  EXPECT_EQ(p.body_bytes_total(), 2u);
}

TEST(HttpResponse, ErrorResponseHasEmptyBody) {
  auto resp = build_error_response(404);
  HttpResponseParser p;
  EXPECT_EQ(p.feed(resp), 1u);
  EXPECT_EQ(p.last_status(), 404);
  EXPECT_EQ(p.body_bytes_total(), 0u);
}

class ResponseChunking : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResponseChunking, KeepAliveStreamCountsAllResponses) {
  sim::Rng rng(GetParam());
  std::vector<std::uint8_t> stream;
  std::size_t body_total = 0;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::uint8_t> body(rng.below(300));
    body_total += body.size();
    auto r = build_response(200, body);
    stream.insert(stream.end(), r.begin(), r.end());
  }
  HttpResponseParser p;
  std::size_t complete = 0;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.below(97), stream.size() - off);
    complete += p.feed(std::span<const std::uint8_t>(stream).subspan(off, n));
    off += n;
  }
  EXPECT_EQ(complete, 10u);
  EXPECT_EQ(p.body_bytes_total(), body_total);
  EXPECT_FALSE(p.error());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseChunking,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(HttpResponse, HeadAndLargeBodyInOneChunk) {
  // Head, a body larger than the 8 KiB head limit and a second response
  // arrive in one chunk: only the head may count as head, and every body
  // byte reaches the sink in order.
  std::vector<std::uint8_t> body(20000);
  for (std::size_t k = 0; k < body.size(); ++k) {
    body[k] = static_cast<std::uint8_t>(k * 7);
  }
  auto stream = build_response(200, body);
  const auto tail = build_error_response(404);
  stream.insert(stream.end(), tail.begin(), tail.end());
  HttpResponseParser p;
  std::vector<std::uint8_t> got;
  p.set_body_sink([&](std::size_t off, std::span<const std::uint8_t> c) {
    EXPECT_EQ(off, got.size());
    got.insert(got.end(), c.begin(), c.end());
  });
  EXPECT_EQ(p.feed(stream), 2u);
  EXPECT_FALSE(p.error());
  EXPECT_EQ(got, body);
  EXPECT_EQ(p.body_bytes_total(), body.size());
  EXPECT_EQ(p.last_status(), 404);
}

TEST(HttpResponse, EverySplitPointParsesTheSame) {
  // Two chunks split at every offset of a two-response stream: the head
  // terminator straddles the split in every possible position.
  const std::vector<std::uint8_t> body = {'h', 'i', '\r', '\n'};
  auto stream = build_response(200, body);
  const auto second = build_response(200, body, false);
  stream.insert(stream.end(), second.begin(), second.end());
  for (std::size_t k = 0; k <= stream.size(); ++k) {
    HttpResponseParser p;
    const std::span<const std::uint8_t> s(stream);
    std::size_t done = p.feed(s.first(k));
    done += p.feed(s.subspan(k));
    ASSERT_EQ(done, 2u) << "split at " << k;
    ASSERT_EQ(p.body_bytes_total(), 2 * body.size()) << "split at " << k;
    ASSERT_FALSE(p.error());
  }
}

TEST(HttpRequestBuilder, RoundtripsThroughParser) {
  auto req = build_request("/file20");
  HttpRequestParser p;
  auto got = p.feed(req);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].path, "/file20");
  EXPECT_TRUE(got[0].keep_alive);
}

TEST(FileStore, DeterministicContent) {
  FileStore fs;
  fs.add("/a", 100);
  fs.add("/b", 0);
  ASSERT_NE(fs.lookup("/a"), nullptr);
  EXPECT_EQ(fs.lookup("/a")->size(), 100u);
  EXPECT_EQ(fs.lookup("/b")->size(), 0u);
  EXPECT_EQ(fs.lookup("/missing"), nullptr);
  FileStore fs2;
  fs2.add("/a", 100);
  EXPECT_EQ(*fs.lookup("/a"), *fs2.lookup("/a"));
}

}  // namespace
}  // namespace neat::apps
