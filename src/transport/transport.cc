#include "transport/transport.h"

#include <algorithm>
#include <string>

#include "net/trace.h"
#include "util/check.h"

namespace dash {

TrafficMetrics::TrafficMetrics(int num_parties)
    : num_parties_(num_parties),
      link_bytes_(static_cast<size_t>(num_parties) * num_parties) {}

void TrafficMetrics::Record(int from, int to, int64_t wire_bytes) {
  total_bytes_.fetch_add(wire_bytes, std::memory_order_relaxed);
  total_messages_.fetch_add(1, std::memory_order_relaxed);
  link_bytes_[static_cast<size_t>(from) * static_cast<size_t>(num_parties_) +
              static_cast<size_t>(to)]
      .fetch_add(wire_bytes, std::memory_order_relaxed);
}

void TrafficMetrics::Reset() {
  total_bytes_.store(0, std::memory_order_relaxed);
  total_messages_.store(0, std::memory_order_relaxed);
  rounds_.store(0, std::memory_order_relaxed);
  for (auto& b : link_bytes_) b.store(0, std::memory_order_relaxed);
}

int64_t TrafficMetrics::LinkBytes(int from, int to) const {
  DASH_CHECK(0 <= from && from < num_parties_);
  DASH_CHECK(0 <= to && to < num_parties_);
  return link_bytes_[static_cast<size_t>(from) *
                         static_cast<size_t>(num_parties_) +
                     static_cast<size_t>(to)]
      .load(std::memory_order_relaxed);
}

int64_t TrafficMetrics::MaxLinkBytes() const {
  int64_t best = 0;
  for (const auto& b : link_bytes_) {
    best = std::max(best, b.load(std::memory_order_relaxed));
  }
  return best;
}

int64_t TrafficMetrics::BytesSentBy(int party) const {
  DASH_CHECK(0 <= party && party < num_parties_);
  int64_t sum = 0;
  for (int to = 0; to < num_parties_; ++to) {
    sum += link_bytes_[static_cast<size_t>(party) *
                           static_cast<size_t>(num_parties_) +
                       static_cast<size_t>(to)]
               .load(std::memory_order_relaxed);
  }
  return sum;
}

Transport::Transport(int num_parties)
    : num_parties_(num_parties), metrics_(num_parties) {
  DASH_CHECK_GE(num_parties, 1);
}

Transport::~Transport() = default;

Status Transport::Broadcast(int from, MessageTag tag,
                            const std::vector<uint8_t>& payload) {
  DASH_RETURN_IF_ERROR(ValidateParty(from, "sender"));
  for (int to = 0; to < num_parties_; ++to) {
    if (to == from) continue;
    DASH_RETURN_IF_ERROR(Send(from, to, tag, payload));
  }
  return Status::Ok();
}

Status Transport::SendOnSession(uint32_t session, int from, int to,
                                MessageTag tag,
                                std::vector<uint8_t> payload) {
  if (session != 0) {
    return UnimplementedError(
        "this transport backend carries only the sessionless stream "
        "(session 0); wrap a session-capable backend in a SessionMux");
  }
  return Send(from, to, tag, std::move(payload));
}

Result<Message> Transport::TryReceiveAny(int to, int from) {
  (void)to;
  (void)from;
  return UnimplementedError(
      "this transport backend has no session demultiplexer intake "
      "(TryReceiveAny); use Receive with the expected tag");
}

Status Transport::PumpWait(int timeout_ms) {
  (void)timeout_ms;
  return Status::Ok();
}

Status Transport::LinkStatus(int peer) {
  DASH_RETURN_IF_ERROR(ValidateParty(peer, "peer"));
  return Status::Ok();
}

void Transport::RecordSend(const Message& msg) {
  RecordSend(msg.from, msg.to, msg.tag, msg.payload.size());
}

void Transport::RecordSend(int from, int to, MessageTag tag,
                           size_t payload_bytes) {
  const auto wire_bytes =
      static_cast<int64_t>(payload_bytes + Message::kHeaderBytes);
  metrics_.Record(from, to, wire_bytes);
  if (trace_ != nullptr) {
    trace_->Record(metrics_.rounds(), from, to, tag, wire_bytes);
  }
}

Status Transport::ValidateParty(int id, const char* what) const {
  if (id < 0 || id >= num_parties_) {
    return InvalidArgumentError(std::string(what) + " party id " +
                                std::to_string(id) + " out of range [0, " +
                                std::to_string(num_parties_) + ")");
  }
  return Status::Ok();
}

}  // namespace dash
