#include "apps/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <string_view>

namespace neat::apps {

namespace {
constexpr std::size_t kMaxHeadBytes = 8192;

/// Case-insensitive substring search in a header block, without copying
/// the head (this runs once per parsed message on the data path).
std::size_t ci_find(std::string_view head, std::string_view token) {
  if (token.empty() || head.size() < token.size()) {
    return std::string_view::npos;
  }
  const auto lower = [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  };
  for (std::size_t i = 0; i + token.size() <= head.size(); ++i) {
    std::size_t k = 0;
    while (k < token.size() && lower(head[i + k]) == token[k]) ++k;
    if (k == token.size()) return i;
  }
  return std::string_view::npos;
}

bool contains_token(std::string_view head, std::string_view token) {
  return ci_find(head, token) != std::string_view::npos;
}
}  // namespace

std::size_t HttpRequestParser::feed(std::span<const std::uint8_t> data,
                                    std::vector<HttpRequest>& out) {
  if (error_) return 0;
  buf_.append(reinterpret_cast<const char*>(data.data()), data.size());

  std::size_t done = 0;
  std::size_t pos = 0;  // start of the first unparsed request in buf_
  while (true) {
    const auto end = buf_.find("\r\n\r\n", pos);
    if (end == std::string::npos) break;
    const std::string_view head(buf_.data() + pos, end - pos);
    pos = end + 4;

    const std::string_view line = head.substr(0, head.find("\r\n"));
    const auto sp1 = line.find(' ');
    const auto sp2 = line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      error_ = true;
      break;
    }
    HttpRequest& req = out.emplace_back();
    req.method.assign(line.substr(0, sp1));
    req.path.assign(line.substr(sp1 + 1, sp2 - sp1 - 1));
    const std::string_view version = line.substr(sp2 + 1);
    // HTTP/1.1 defaults to keep-alive; "Connection: close" overrides.
    req.keep_alive = version == "HTTP/1.1"
                         ? !contains_token(head, "connection: close")
                         : contains_token(head, "connection: keep-alive");
    ++done;
  }
  buf_.erase(0, pos);
  if (!error_ && buf_.size() > kMaxHeadBytes) error_ = true;
  return done;
}

std::vector<HttpRequest> HttpRequestParser::feed(
    std::span<const std::uint8_t> data) {
  std::vector<HttpRequest> out;
  feed(data, out);
  return out;
}

std::vector<std::uint8_t> build_request(const std::string& path,
                                        bool keep_alive) {
  std::string s = "GET " + path + " HTTP/1.1\r\nHost: sut\r\n";
  if (!keep_alive) s += "Connection: close\r\n";
  s += "\r\n";
  return {s.begin(), s.end()};
}

void build_response_head(std::vector<std::uint8_t>& out, int status,
                         std::size_t content_length, bool keep_alive) {
  char head[128];  // the longest head is under 100 bytes
  char* p = head;
  const auto put = [&p](std::string_view s) {
    p = std::copy(s.begin(), s.end(), p);
  };
  char* const end = head + sizeof head;
  put("HTTP/1.1 ");
  p = std::to_chars(p, end, status).ptr;
  put(status == 200 ? " OK" : " Error");
  put("\r\nContent-Length: ");
  p = std::to_chars(p, end, content_length).ptr;
  put("\r\n");
  if (!keep_alive) put("Connection: close\r\n");
  put("\r\n");
  out.assign(head, p);
}

std::vector<std::uint8_t> build_response_head(int status,
                                              std::size_t content_length,
                                              bool keep_alive) {
  std::vector<std::uint8_t> out;
  build_response_head(out, status, content_length, keep_alive);
  return out;
}

std::vector<std::uint8_t> build_response(int status,
                                         std::span<const std::uint8_t> body,
                                         bool keep_alive) {
  std::vector<std::uint8_t> out =
      build_response_head(status, body.size(), keep_alive);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<std::uint8_t> build_error_response(int status) {
  return build_response(status, {}, true);
}

std::size_t HttpResponseParser::feed(std::span<const std::uint8_t> data) {
  std::size_t completed = 0;
  std::size_t i = 0;
  while (i < data.size() && !error_) {
    if (!in_body_) {
      // Search for the head terminator in place instead of walking byte
      // by byte, and buffer only head bytes: anything past the terminator
      // goes straight to the body branch below. A terminator that
      // straddles the buffered head and this chunk starts in the last 3
      // buffered bytes, so that seam is searched on a small copy first.
      const std::size_t old = head_.size();
      const std::string_view in(
          reinterpret_cast<const char*>(data.data() + i),
          std::min(data.size() - i, kMaxHeadBytes + 4 - old));
      std::size_t take = std::string_view::npos;  // bytes of `in` in the head
      if (old > 0) {
        const std::size_t a = std::min<std::size_t>(old, 3);
        const std::size_t b = std::min<std::size_t>(in.size(), 3);
        char seam[6];
        head_.copy(seam, a, old - a);
        in.copy(seam + a, b);
        const auto at = std::string_view(seam, a + b).find("\r\n\r\n");
        if (at != std::string_view::npos) take = at + 4 - a;
      }
      if (take == std::string_view::npos) {
        const auto at = in.find("\r\n\r\n");
        if (at != std::string_view::npos) take = at + 4;
      }
      if (take == std::string_view::npos) {
        head_.append(in);
        if (head_.size() > kMaxHeadBytes) {
          error_ = true;
          return completed;
        }
        i += in.size();
        continue;
      }
      head_.append(in.substr(0, take));
      i += take;
      // Parse status line + Content-Length.
      const auto sp = head_.find(' ');
      status_ = 0;
      if (sp != std::string::npos) {
        std::from_chars(head_.data() + sp + 1, head_.data() + sp + 4,
                        status_);
      }
      const auto cl = ci_find(head_, "content-length:");
      std::size_t len = 0;
      if (cl != std::string::npos) {
        const char* p = head_.data() + cl + 15;
        while (*p == ' ') ++p;
        std::from_chars(p, head_.data() + head_.size(), len);
      }
      head_.clear();
      body_remaining_ = len;
      body_len_ = len;
      in_body_ = true;
      if (body_remaining_ == 0) {
        in_body_ = false;
        ++completed;
      }
    } else {
      const std::size_t take = std::min(body_remaining_, data.size() - i);
      if (sink_) sink_(body_len_ - body_remaining_, data.subspan(i, take));
      body_remaining_ -= take;
      body_total_ += take;
      i += take;
      if (body_remaining_ == 0) {
        in_body_ = false;
        ++completed;
      }
    }
  }
  return completed;
}

void FileStore::add(const std::string& path, std::size_t size) {
  std::vector<std::uint8_t> content(size);
  for (std::size_t i = 0; i < size; ++i) {
    content[i] = static_cast<std::uint8_t>('a' + (i * 31 + size) % 26);
  }
  files_[path] = std::move(content);
}

const std::vector<std::uint8_t>* FileStore::lookup(
    const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

}  // namespace neat::apps
