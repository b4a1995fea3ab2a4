#include "obs/exposition.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/trace.h"
#include "util/build_info.h"
#include "util/memory.h"

namespace iuad::obs {

namespace {

/// Uptime anchor, taken at static initialization (process start for all
/// practical purposes).
const int64_t g_process_start_ns = NowNs();

void AppendLine(std::string* out, const std::string& name,
                const char* suffix, const std::string& value) {
  out->append("iuad_");
  out->append(name);
  out->append(suffix);
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
}

std::string FmtInt(int64_t v) { return std::to_string(v); }

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendType(std::string* out, const std::string& name, const char* type) {
  out->append("# TYPE iuad_");
  out->append(name);
  out->push_back(' ');
  out->append(type);
  out->push_back('\n');
}

void AppendHistogram(std::string* out, const HistogramSnapshot& h) {
  AppendType(out, h.name, "histogram");
  int64_t cumulative = 0;
  for (const auto& [idx, c] : h.buckets) {
    cumulative += c;
    const std::string le =
        idx < Histogram::kNumFiniteBounds
            ? FmtDouble(Histogram::BucketUpperBoundUs(idx))
            : std::string("+Inf");
    if (le == "+Inf") continue;  // the overflow folds into the +Inf line
    out->append("iuad_");
    out->append(h.name);
    out->append("_bucket{le=\"");
    out->append(le);
    out->append("\"} ");
    out->append(FmtInt(cumulative));
    out->push_back('\n');
  }
  out->append("iuad_");
  out->append(h.name);
  out->append("_bucket{le=\"+Inf\"} ");
  out->append(FmtInt(h.count));
  out->push_back('\n');
  AppendLine(out, h.name, "_sum",
             FmtDouble(static_cast<double>(h.sum_ns) / 1000.0));
  AppendLine(out, h.name, "_count", FmtInt(h.count));
  AppendLine(out, h.name, "_max", FmtDouble(h.MaxUs()));
  AppendLine(out, h.name, "_p50", FmtDouble(h.PercentileUs(50)));
  AppendLine(out, h.name, "_p90", FmtDouble(h.PercentileUs(90)));
  AppendLine(out, h.name, "_p95", FmtDouble(h.PercentileUs(95)));
  AppendLine(out, h.name, "_p99", FmtDouble(h.PercentileUs(99)));
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string TextExposition(const RegistrySnapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    AppendType(&out, c.name, "counter");
    AppendLine(&out, c.name, "", FmtInt(c.value));
  }
  for (const auto& g : snapshot.gauges) {
    AppendType(&out, g.name, "gauge");
    AppendLine(&out, g.name, "", FmtInt(g.value));
  }
  for (const auto& h : snapshot.histograms) AppendHistogram(&out, h);
  out.append(ProcessExposition());
  return out;
}

std::string ProcessExposition() {
  std::string out;
  AppendType(&out, "uptime_seconds", "gauge");
  AppendLine(&out, "uptime_seconds", "",
             FmtDouble(static_cast<double>(NowNs() - g_process_start_ns) /
                       1e9));
  AppendType(&out, "rss_mb", "gauge");
  AppendLine(&out, "rss_mb", "", FmtDouble(util::CurrentRssMb()));
  AppendType(&out, "build_info", "gauge");
  out.append("iuad_build_info{version=\"");
  out.append(util::BuildVersion());
  out.append("\",compiler=\"");
  out.append(util::BuildCompiler());
  out.append("\",sanitizer=\"");
  out.append(util::BuildSanitizer());
  out.append("\"} 1\n");
  return out;
}

iuad::Status MetricsServer::Start(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return iuad::Status::IoError(std::string("metrics socket: ") +
                                 std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return iuad::Status::IoError("metrics bind port " + std::to_string(port) +
                                 ": " + err);
  }
  if (::listen(listen_fd_, 8) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return iuad::Status::IoError("metrics listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    bound_port_ = ntohs(addr.sin_port);
  }
  thread_ = std::thread([this] { ServeLoop(); });
  return iuad::Status::OK();
}

void MetricsServer::ServeLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Shutdown) or fatal
    }
    // Read the whole request head, up to its blank line, before answering:
    // closing a socket with unread request bytes makes the kernel send RST,
    // which discards the response at the client. Scrapers may write the
    // request line and the blank line separately (bash's line-buffered
    // printf does). The receive timeout keeps a client that never finishes
    // its head from holding this loop. The path selects between the two
    // read-only surfaces.
    const timeval recv_timeout{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_timeout,
                 sizeof(recv_timeout));
    std::string head;
    char buf[1024];
    while (head.size() < 8192 && head.find("\r\n\r\n") == std::string::npos &&
           head.find("\n\n") == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;  // EOF, error or timeout: answer what arrived
      head.append(buf, static_cast<size_t>(n));
    }
    std::string body;
    const char* content_type = "text/plain; version=0.0.4";
    if (head.rfind("GET /trace", 0) == 0) {
      body = ChromeTraceJson(ChromeTraceEvents(
          FlightRecorder::Instance().Drain()));
      content_type = "application/json";
    } else {
      body = TextExposition(registry_->Snapshot());
    }
    std::string resp = "HTTP/1.0 200 OK\r\nContent-Type: " +
                       std::string(content_type) + "\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body;
    SendAll(fd, resp);
    ::close(fd);
  }
}

void MetricsServer::Shutdown() {
  // Same teardown order as api::Server: shutdown() unblocks the accept,
  // close() waits for the join so the fd can't be reused under the loop.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace iuad::obs
