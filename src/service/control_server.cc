#include "service/control_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/logging.h"

namespace dash {
namespace {

// k=v rendering keeps the responses greppable and trivially parsable.
std::string Render(const JobRecord& record) {
  std::ostringstream out;
  out << "state=" << JobStateName(record.state)
      << " checksum=" << record.checksum
      << " cache_hit=" << (record.metrics.phase1_cache_hit ? 1 : 0)
      << " rounds=" << record.metrics.rounds
      << " bytes=" << record.metrics.total_bytes
      << " messages=" << record.metrics.total_messages
      << " queue_ms=" << record.queue_seconds * 1e3
      << " run_ms=" << record.run_seconds * 1e3;
  if (record.metrics.streamed) {
    out << " streamed=1 resumed_from=" << record.metrics.resumed_from_panel
        << " panels_streamed=" << record.metrics.panels_streamed
        << " checkpoints=" << record.metrics.checkpoints_written;
  }
  if (!record.error.ok()) {
    // Last field, free-form: everything after "error=" is the message.
    out << " error=" << StatusCodeToString(record.error.code()) << ": "
        << record.error.message();
  }
  return out.str();
}

std::string ErrLine(const Status& status) {
  return std::string("ERR ") + StatusCodeToString(status.code()) + ": " +
         status.message();
}

Status SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(std::string("control send: ") + strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

ControlServer::ControlServer(JobScheduler* scheduler, Phase1Cache* cache,
                             std::function<void()> on_shutdown,
                             ControlServerOptions options)
    : scheduler_(scheduler),
      cache_(cache),
      on_shutdown_(std::move(on_shutdown)),
      options_(std::move(options)) {}

ControlServer::~ControlServer() { Stop(); }

Status ControlServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return IoError(std::string("control socket: ") + strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("control host must be a literal IPv4 "
                                "address, got " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return IoError("control bind " + options_.host + ":" +
                   std::to_string(options_.port) + ": " + strerror(errno));
  }
  if (::listen(listen_fd_, 16) < 0) {
    return IoError(std::string("control listen: ") + strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) < 0) {
    return IoError(std::string("control getsockname: ") + strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ControlServer::Stop() {
  const bool was_stopping = stopping_.exchange(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (!was_stopping && listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> conns;
  {
    MutexLock lock(&conn_mu_);
    conns.swap(connections_);
  }
  for (auto& t : conns) {
    if (t.joinable()) t.join();
  }
}

void ControlServer::AcceptLoop() {
  while (!stopping_.load()) {
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    MutexLock lock(&conn_mu_);
    connections_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void ControlServer::ServeConnection(int fd) {
  std::string buffer;
  char chunk[512];
  while (!stopping_.load()) {
    // Serve complete lines already buffered before reading more.
    size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::string response = HandleLine(line) + "\n";
      if (!SendAll(fd, response).ok()) {
        ::close(fd);
        return;
      }
      // SHUTDOWN acknowledges first, then stops the daemon.
      if (line.rfind("SHUTDOWN", 0) == 0) {
        ::close(fd);
        if (on_shutdown_) on_shutdown_();
        return;
      }
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // peer closed or errored
    buffer.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
}

std::string ControlServer::HandleLine(const std::string& line) {
  std::istringstream in(line);
  std::string verb;
  in >> verb;

  if (verb == "PING") return "OK pong";

  if (verb == "SUBMIT") {
    std::string args;
    std::getline(in, args);
    const Result<JobSpec> parsed = ParseJobSpec(args);
    if (!parsed.ok()) return ErrLine(parsed.status());
    const JobSpec& spec = parsed.value();
    const Status valid = ValidateJobSpec(spec, options_.num_parties);
    if (!valid.ok()) return ErrLine(valid);
    const Status submitted = scheduler_->Submit(spec);
    if (!submitted.ok()) return ErrLine(submitted);
    return "OK submitted " + std::to_string(spec.job_id);
  }

  if (verb == "STATUS" || verb == "RESULT") {
    uint32_t job_id = 0;
    in >> job_id;
    if (in.fail()) return "ERR InvalidArgument: want " + verb + " <job_id>";
    const Result<JobRecord> record = scheduler_->Query(job_id);
    if (!record.ok()) return ErrLine(record.status());
    if (verb == "STATUS") return "OK " + Render(record.value());
    if (record.value().state != JobState::kDone) {
      return "ERR FailedPrecondition: job " + std::to_string(job_id) +
             " is " + JobStateName(record.value().state);
    }
    return "OK " + std::to_string(record.value().checksum);
  }

  if (verb == "CANCEL") {
    uint32_t job_id = 0;
    in >> job_id;
    if (in.fail()) return "ERR InvalidArgument: want CANCEL <job_id>";
    const Status cancelled = scheduler_->Cancel(job_id);
    if (!cancelled.ok()) return ErrLine(cancelled);
    return "OK cancelled " + std::to_string(job_id);
  }

  if (verb == "INVALIDATE") {
    std::string cohort;
    in >> cohort;
    if (in.fail() || cohort.empty()) {
      return "ERR InvalidArgument: want INVALIDATE <cohort>";
    }
    if (cache_ == nullptr) {
      return "ERR FailedPrecondition: Phase-1 caching is disabled";
    }
    cache_->Invalidate(cohort);
    return "OK invalidated " + cohort;
  }

  if (verb == "STATS") {
    const JobSchedulerStats s = scheduler_->stats();
    std::ostringstream out;
    out << "OK submitted=" << s.submitted << " completed=" << s.completed
        << " failed=" << s.failed << " cancelled=" << s.cancelled
        << " rejected=" << s.rejected << " running=" << s.running
        << " queued=" << s.queued
        << " phase1_cache_hits=" << s.phase1_cache_hits;
    if (cache_ != nullptr) {
      const Phase1CacheStats c = cache_->stats();
      out << " cache_entries=" << c.entries
          << " cache_take_hits=" << c.take_hits
          << " cache_take_misses=" << c.take_misses
          << " cache_evictions=" << c.evictions
          << " cache_invalidations=" << c.invalidations;
    }
    return out.str();
  }

  if (verb == "SHUTDOWN") return "OK shutting-down";

  return "ERR InvalidArgument: unknown verb '" + verb + "'";
}

}  // namespace dash
