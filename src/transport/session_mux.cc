#include "transport/session_mux.h"

#include <chrono>
#include <string>
#include <utility>

#include "net/abort.h"
#include "transport/frame.h"
#include "util/check.h"

namespace dash {
namespace {

// How long the pump blocks in the inner transport's PumpWait per
// iteration; bounds the latency of a queued send.
constexpr int kPumpIntervalMs = 1;

}  // namespace

SessionMux::SessionMux(Transport* inner, SessionMuxOptions options)
    : inner_(inner),
      options_(options),
      num_parties_(inner->num_parties()),
      local_party_(inner->local_party()),
      link_fail_(static_cast<size_t>(inner->num_parties())) {
  DASH_CHECK(inner != nullptr);
  DASH_CHECK(local_party_ >= 0) << "SessionMux needs a party-bound transport";
  pump_ = std::thread([this] { PumpLoop(); });
}

SessionMux::~SessionMux() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  pump_.join();
}

int SessionMux::num_parties() const { return num_parties_; }
int SessionMux::local_party() const { return local_party_; }

Result<std::unique_ptr<SessionChannel>> SessionMux::OpenSession(
    uint32_t session_id) {
  if (session_id == 0 || session_id > kFrameMaxSessionId) {
    return InvalidArgumentError(
        "session id must be in [1, " + std::to_string(kFrameMaxSessionId) +
        "]; 0 is the sessionless stream");
  }
  MutexLock lock(&mu_);
  if (stopping_) {
    return UnavailableError("session mux shut down");
  }
  if (sessions_.count(session_id) != 0) {
    return AlreadyExistsError("session " + std::to_string(session_id) +
                              " is already open on this mux");
  }
  auto state = std::make_unique<SessionState>();
  state->id = session_id;
  state->inboxes.resize(static_cast<size_t>(num_parties_));
  SessionState* raw = state.get();
  sessions_[session_id] = std::move(state);
  stats_.sessions_opened += 1;
  stats_.open_sessions = static_cast<int>(sessions_.size());

  // A peer's scheduler may have started this job first: its frames wait
  // in the orphan buffer and are replayed now, in arrival order.
  auto orphaned = orphans_.find(session_id);
  if (orphaned != orphans_.end()) {
    for (Message& msg : orphaned->second) {
      orphan_count_ -= 1;
      DeliverLocked(raw, std::move(msg));
    }
    orphans_.erase(orphaned);
  }
  // A link that died before this session opened still dooms it.
  for (const Status& link : link_fail_) {
    if (!link.ok() && raw->fail.ok()) raw->fail = link;
  }
  return std::unique_ptr<SessionChannel>(
      new SessionChannel(this, session_id));
}

Status SessionMux::LinkHealth() const {
  MutexLock lock(&mu_);
  for (const Status& link : link_fail_) {
    if (!link.ok()) return link;
  }
  return Status::Ok();
}

SessionMuxStats SessionMux::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void SessionMux::PumpLoop() {
  while (true) {
    // Phase 1: execute queued sends. The inner transport is touched
    // WITHOUT the lock held (a send can block on a full kernel buffer
    // up to its deadline); op pointers stay valid because the enqueuing
    // thread blocks until `done`.
    std::vector<SendOp*> ops;
    bool stop = false;
    {
      MutexLock lock(&mu_);
      ops.swap(pending_sends_);
      stop = stopping_;
    }
    for (SendOp* op : ops) {
      Status result = inner_->SendOnSession(
          op->msg.session, op->msg.from, op->msg.to, op->msg.tag,
          std::move(op->msg.payload));
      MutexLock lock(&mu_);
      op->result = std::move(result);
      op->done = true;
      send_cv_.NotifyAll();
    }
    if (stop) break;

    // Phase 2: drain the intake and route by session id; note link
    // deaths so blocked sessions fail promptly instead of waiting out
    // their own deadlines.
    for (int peer = 0; peer < num_parties_; ++peer) {
      if (peer == local_party_) continue;
      while (true) {
        Result<Message> msg = inner_->TryReceiveAny(local_party_, peer);
        if (!msg.ok()) break;  // NotFound: nothing deliverable now
        MutexLock lock(&mu_);
        RouteLocked(std::move(msg).value());
      }
      Status link = inner_->LinkStatus(peer);
      if (!link.ok()) {
        MutexLock lock(&mu_);
        if (link_fail_[static_cast<size_t>(peer)].ok()) {
          link_fail_[static_cast<size_t>(peer)] = link;
          FailAllSessionsLocked(link);
        }
      }
    }

    // Phase 3: block briefly for inbound bytes (and bound the latency
    // of the next queued send).
    const Status pumped = inner_->PumpWait(kPumpIntervalMs);
    (void)pumped;
  }

  // Shutdown: nothing may stay blocked on a thread that no longer runs.
  MutexLock lock(&mu_);
  const Status gone = UnavailableError("session mux shut down");
  for (SendOp* op : pending_sends_) {
    op->result = gone;
    op->done = true;
  }
  pending_sends_.clear();
  send_cv_.NotifyAll();
  FailAllSessionsLocked(gone);
}

void SessionMux::RouteLocked(Message msg) {
  if (msg.session == 0) {
    // A sessionless frame on a multiplexed endpoint: a peer that is not
    // muxing (deployment mismatch) or a hostile stream. Dropping it
    // cannot desync any session.
    stats_.hostile_rejects += 1;
    return;
  }
  auto it = sessions_.find(msg.session);
  if (it != sessions_.end()) {
    DeliverLocked(it->second.get(), std::move(msg));
    return;
  }
  // Unknown session: buffer until OpenSession claims the id (submit
  // races across daemons are normal), bounded so a hostile or leaky
  // peer cannot grow memory without limit.
  while (orphan_count_ >= options_.max_orphan_messages && !orphans_.empty()) {
    auto oldest = orphans_.begin();
    oldest->second.pop_front();
    orphan_count_ -= 1;
    stats_.dropped_orphans += 1;
    if (oldest->second.empty()) orphans_.erase(oldest);
  }
  orphans_[msg.session].push_back(std::move(msg));
  orphan_count_ += 1;
  stats_.orphaned_messages += 1;
}

void SessionMux::DeliverLocked(SessionState* session, Message msg) {
  if (msg.tag == MessageTag::kAbort) {
    // Scoped abort: latch THIS session only; the message itself is
    // consumed (mirrors the transport-wide latch of the sessionless
    // stream, but per session).
    if (session->fail.ok()) {
      session->fail = MakeAbortStatus(DecodeAbortPayload(msg.payload));
    }
    session->cv.NotifyAll();
    return;
  }
  session->inboxes[static_cast<size_t>(msg.from)].push_back(std::move(msg));
  stats_.routed_messages += 1;
  session->cv.NotifyAll();
}

void SessionMux::FailAllSessionsLocked(const Status& status) {
  for (auto& entry : sessions_) {
    SessionState* session = entry.second.get();
    if (session->fail.ok()) session->fail = status;
    session->cv.NotifyAll();
  }
}

Status SessionMux::ChannelSend(uint32_t session_id, Message msg) {
  SendOp op;
  op.msg = std::move(msg);
  MutexLock lock(&mu_);
  if (stopping_) return UnavailableError("session mux shut down");
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return FailedPreconditionError("session " + std::to_string(session_id) +
                                   " is not open");
  }
  // A poisoned session fails fast — except for the abort notification
  // itself, which must still reach the peers so they fail this session
  // with the originator's status instead of their own timeouts.
  if (!it->second->fail.ok() && op.msg.tag != MessageTag::kAbort) {
    return it->second->fail;
  }
  pending_sends_.push_back(&op);
  // The pump always completes every queued op (its own deadline bounds
  // a stuck send; shutdown fails the queue), so this wait terminates.
  while (!op.done) send_cv_.Wait(&mu_);
  return op.result;
}

Result<Message> SessionMux::ChannelReceive(uint32_t session_id, int from,
                                           MessageTag expected_tag) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return FailedPreconditionError("session " + std::to_string(session_id) +
                                   " is not open");
  }
  SessionState* session = it->second.get();
  auto& inbox = session->inboxes[static_cast<size_t>(from)];
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.receive_timeout_ms);
  while (inbox.empty()) {
    // A latched failure (peer abort, dead link, local poison) beats
    // waiting out the timeout — same rule as the TCP backend.
    if (!session->fail.ok()) return session->fail;
    if (session->cv.WaitUntil(&mu_, deadline) == std::cv_status::timeout &&
        inbox.empty() && session->fail.ok()) {
      return DeadlineExceededError(
          "session " + std::to_string(session_id) + ": party " +
          std::to_string(local_party_) + " timed out after " +
          std::to_string(options_.receive_timeout_ms) + " ms waiting for " +
          MessageTagName(expected_tag) + " from party " +
          std::to_string(from));
    }
  }
  Message msg = std::move(inbox.front());
  inbox.pop_front();
  if (msg.tag != expected_tag) {
    return FailedPreconditionError(
        std::string("protocol desync: expected tag ") +
        MessageTagName(expected_tag) + " but received " +
        MessageTagName(msg.tag));
  }
  return msg;
}

bool SessionMux::ChannelHasPending(uint32_t session_id, int from) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return false;
  return !it->second->inboxes[static_cast<size_t>(from)].empty();
}

void SessionMux::ChannelAbort(uint32_t session_id, Status status) {
  DASH_CHECK(!status.ok());
  MutexLock lock(&mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  if (it->second->fail.ok()) it->second->fail = std::move(status);
  it->second->cv.NotifyAll();
}

void SessionMux::CloseSession(uint32_t session_id) {
  MutexLock lock(&mu_);
  sessions_.erase(session_id);
  stats_.open_sessions = static_cast<int>(sessions_.size());
}

// --- SessionChannel --------------------------------------------------

SessionChannel::~SessionChannel() { mux_->CloseSession(session_id_); }

Status SessionChannel::Send(int from, int to, MessageTag tag,
                            std::vector<uint8_t> payload) {
  if (from != local_party()) {
    return InvalidArgumentError(
        "session channel for party " + std::to_string(local_party()) +
        " cannot send as party " + std::to_string(from));
  }
  DASH_RETURN_IF_ERROR(ValidateParty(to, "receiver"));
  if (to == from) {
    return InvalidArgumentError("party " + std::to_string(from) +
                                " attempted to send a message to itself");
  }
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.session = session_id_;
  msg.tag = tag;
  msg.payload = std::move(payload);
  // The accounting copy: ChannelSend consumes the payload, so size the
  // metrics message first (header-only; Record uses WireSize()).
  Message accounting;
  accounting.from = msg.from;
  accounting.to = msg.to;
  accounting.session = msg.session;
  accounting.tag = msg.tag;
  accounting.payload.resize(msg.payload.size());
  DASH_RETURN_IF_ERROR(mux_->ChannelSend(session_id_, std::move(msg)));
  RecordSend(accounting);
  return Status::Ok();
}

Result<Message> SessionChannel::Receive(int to, int from,
                                        MessageTag expected_tag) {
  if (to != local_party()) {
    return InvalidArgumentError(
        "session channel for party " + std::to_string(local_party()) +
        " cannot receive as party " + std::to_string(to));
  }
  DASH_RETURN_IF_ERROR(ValidateParty(from, "sender"));
  if (from == local_party()) {
    return InvalidArgumentError("party cannot receive from itself");
  }
  return mux_->ChannelReceive(session_id_, from, expected_tag);
}

bool SessionChannel::HasPending(int to, int from) {
  if (to != local_party() || from < 0 || from >= num_parties() ||
      from == local_party()) {
    return false;
  }
  return mux_->ChannelHasPending(session_id_, from);
}

void SessionChannel::Abort(Status status) {
  mux_->ChannelAbort(session_id_, std::move(status));
}

}  // namespace dash
