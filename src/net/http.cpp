#include "net/http.hpp"

#include <charconv>

#include "util/error.hpp"
#include "util/log.hpp"

namespace clio::net {
namespace {

using util::cat;
using util::check;
using util::ParseError;

char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

/// The two headers the serving layer cares about, pulled out in one pass
/// over the header block (this parse runs once per request on both sides
/// of every exchange).
struct ParsedHeaders {
  std::size_t content_length = 0;
  /// Connection persistence: the version token set the default (HTTP/1.1
  /// is persistent, anything else is not), an explicit header overrode it.
  bool keep_alive = false;
};

ParsedHeaders parse_headers(std::string_view head, std::string_view version) {
  ParsedHeaders parsed;
  parsed.keep_alive = version == "HTTP/1.1";
  std::size_t at = 0;
  while (at < head.size()) {
    auto eol = head.find("\r\n", at);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(at, eol - at);
    at = eol + 2;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view name = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    while (!value.empty() && value.back() == ' ') value.remove_suffix(1);
    if (iequals(name, "content-length")) {
      const auto [ptr, ec] = std::from_chars(
          value.data(), value.data() + value.size(), parsed.content_length);
      check<ParseError>(ec == std::errc{} && ptr == value.data() + value.size(),
                        "http: bad Content-Length");
      check<ParseError>(parsed.content_length <= kMaxBodyBytes,
                        "http: body too large");
    } else if (iequals(name, "connection")) {
      if (iequals(value, "close")) parsed.keep_alive = false;
      if (iequals(value, "keep-alive")) parsed.keep_alive = true;
    }
  }
  return parsed;
}

/// Parses METHOD SP PATH SP VERSION plus the header block out of `head`
/// (the bytes before "\r\n\r\n").  Shared by the blocking read_request and
/// the event loop's poll_request, so both sides reject identical inputs.
/// Returns the request sans body; `content_length` reports how many body
/// bytes must follow.
HttpRequest parse_request_head(std::string_view head,
                               std::size_t* content_length) {
  const auto line_end = head.find("\r\n");
  const std::string_view start_line =
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end);
  const auto sp1 = start_line.find(' ');
  check<ParseError>(sp1 != std::string_view::npos, "http: bad start line");
  const auto sp2 = start_line.find(' ', sp1 + 1);
  check<ParseError>(sp2 != std::string_view::npos, "http: bad start line");

  HttpRequest request;
  request.method = std::string(start_line.substr(0, sp1));
  request.path = std::string(start_line.substr(sp1 + 1, sp2 - sp1 - 1));
  check<ParseError>(!request.path.empty() && request.path.front() == '/',
                    "http: path must start with '/'");
  const std::string_view version = start_line.substr(sp2 + 1);
  check<ParseError>(version.substr(0, 5) == "HTTP/",
                    "http: bad protocol version");
  const ParsedHeaders headers = parse_headers(head, version);
  request.keep_alive = headers.keep_alive;
  *content_length = headers.content_length;
  return request;
}

}  // namespace

std::string HttpRequest::file_name() const {
  if (!path.empty() && path.front() == '/') return path.substr(1);
  return path;
}

std::optional<std::string> HttpReader::read_head() {
  char buf[4096];
  while (true) {
    const auto pos = buffer_.find("\r\n\r\n");
    if (pos != std::string::npos) {
      std::string head = buffer_.substr(0, pos);
      buffer_.erase(0, pos + 4);
      return head;
    }
    check<ParseError>(buffer_.size() < kMaxHeaderBytes,
                      "http: headers too large");
    const std::size_t n = channel_->recv_some(buf, sizeof(buf));
    if (n == 0) {
      if (buffer_.empty()) return std::nullopt;
      throw util::PeerClosedError("http: connection closed mid-headers");
    }
    buffer_.append(buf, n);
  }
}

std::string HttpReader::take_body(std::size_t length) {
  std::string body;
  const std::size_t from_buffer = std::min(length, buffer_.size());
  body = buffer_.substr(0, from_buffer);
  buffer_.erase(0, from_buffer);
  body.resize(length);
  if (length > from_buffer) {
    check<util::PeerClosedError>(
        channel_->recv_exact(body.data() + from_buffer, length - from_buffer),
        "http: connection closed mid-body");
  }
  return body;
}

std::optional<HttpRequest> HttpReader::read_request() {
  std::optional<std::string> head;
  try {
    head = read_head();
  } catch (const util::TimeoutError&) {
    // A receive timeout at a message boundary is an idle keep-alive
    // connection aging out: a non-event, reported exactly like a clean
    // close.  Mid-message (bytes already buffered) it is the peer stalling
    // and propagates so the server can answer 408.
    if (buffer_.empty()) return std::nullopt;
    throw;
  }
  if (!head.has_value()) return std::nullopt;

  std::size_t content_length = 0;
  HttpRequest request = parse_request_head(*head, &content_length);
  request.body = take_body(content_length);
  return request;
}

std::optional<HttpRequest> HttpReader::poll_request() {
  const auto pos = buffer_.find("\r\n\r\n");
  if (pos == std::string::npos) {
    check<ParseError>(buffer_.size() < kMaxHeaderBytes,
                      "http: headers too large");
    return std::nullopt;
  }
  std::size_t content_length = 0;
  HttpRequest request = parse_request_head(
      std::string_view(buffer_.data(), pos), &content_length);
  const std::size_t body_at = pos + 4;
  if (buffer_.size() - body_at < content_length) {
    return std::nullopt;  // head complete, body still arriving
  }
  request.body = buffer_.substr(body_at, content_length);
  buffer_.erase(0, body_at + content_length);
  return request;
}

HttpResponse HttpReader::read_response() {
  auto head = read_head();
  check<ParseError>(head.has_value(), "http: empty response");

  // Status line: HTTP/1.x NNN Reason.
  const auto line_end = head->find("\r\n");
  const std::string_view status_line =
      std::string_view(*head).substr(
          0, line_end == std::string::npos ? head->size() : line_end);
  const auto sp1 = status_line.find(' ');
  check<ParseError>(sp1 != std::string_view::npos, "http: bad status line");
  const std::string_view code = status_line.substr(sp1 + 1, 3);
  HttpResponse response;
  const auto [ptr, ec] =
      std::from_chars(code.data(), code.data() + code.size(), response.status);
  check<ParseError>(ec == std::errc{} && ptr == code.data() + code.size(),
                    "http: bad status code");
  const ParsedHeaders headers =
      parse_headers(*head, status_line.substr(0, sp1));
  response.keep_alive = headers.keep_alive;
  response.body = take_body(headers.content_length);
  return response;
}

std::optional<HttpRequest> read_request(Channel& channel) {
  HttpReader reader(channel);
  return reader.read_request();
}

HttpResponse read_response(Channel& channel) {
  HttpReader reader(channel);
  return reader.read_response();
}

void send_request(Channel& channel, const HttpRequest& request) {
  std::string wire =
      cat(request.method, " ", request.path,
          request.keep_alive ? " HTTP/1.1\r\n" : " HTTP/1.0\r\n",
          "Content-Length: ", request.body.size(), "\r\nConnection: ",
          request.keep_alive ? "keep-alive" : "close", "\r\n\r\n",
          request.body);
  channel.send_all(wire.data(), wire.size());
}

void send_response(Channel& channel, int status, std::string_view body,
                   bool keep_alive, std::string_view extra_headers) {
  // Headers and body go out as one gathered send: no concatenation copy
  // of the payload on the serving hot path.
  std::string head =
      cat("HTTP/1.1 ", status, " ", reason_phrase(status),
          "\r\nContent-Length: ", body.size(),
          "\r\nContent-Type: application/octet-stream\r\nConnection: ",
          keep_alive ? "keep-alive" : "close", "\r\n", extra_headers, "\r\n");
  const std::span<const std::byte> parts[] = {
      std::as_bytes(std::span<const char>(body.data(), body.size()))};
  channel.send_gather(
      std::as_bytes(std::span<const char>(head.data(), head.size())), parts);
}

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

}  // namespace clio::net
