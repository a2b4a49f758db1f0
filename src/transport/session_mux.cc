#include "transport/session_mux.h"

#include <chrono>
#include <string>
#include <utility>

#include "net/abort.h"
#include "transport/frame.h"
#include "util/check.h"

namespace dash {
namespace {

// Longest single PumpWait. A safety net only: every event the pump
// must act on (a queued send, shutdown, inbound bytes, a frame already
// parsed) ends the wait early, so no path waits this out.
constexpr int kPumpSafetyTimeoutMs = 100;

}  // namespace

SessionMux::SessionMux(Transport* inner, SessionMuxOptions options)
    : core_(std::make_shared<Core>(inner, options)) {
  pump_ = std::thread([core = core_.get()] { core->PumpLoop(); });
}

SessionMux::~SessionMux() {
  core_->Stop();
  pump_.join();
}

int SessionMux::num_parties() const { return core_->num_parties(); }
int SessionMux::local_party() const { return core_->local_party(); }

Result<std::unique_ptr<SessionChannel>> SessionMux::OpenSession(
    uint32_t session_id) {
  DASH_RETURN_IF_ERROR(core_->OpenSession(session_id));
  return std::unique_ptr<SessionChannel>(
      new SessionChannel(core_, session_id));
}

Status SessionMux::LinkHealth() const { return core_->LinkHealth(); }

SessionMuxStats SessionMux::stats() const { return core_->stats(); }

// --- SessionMux::Core ------------------------------------------------

SessionMux::Core::Core(Transport* inner, SessionMuxOptions options)
    : inner_(inner),
      options_(options),
      num_parties_(inner->num_parties()),
      local_party_(inner->local_party()),
      link_fail_(static_cast<size_t>(inner->num_parties())) {
  DASH_CHECK(inner != nullptr);
  DASH_CHECK(local_party_ >= 0) << "SessionMux needs a party-bound transport";
}

void SessionMux::Core::Stop() {
  MutexLock lock(&mu_);
  stopping_ = true;
  inner_->WakePumpWait();
}

Status SessionMux::Core::OpenSession(uint32_t session_id) {
  if (session_id == 0 || session_id > kFrameMaxSessionId) {
    return InvalidArgumentError(
        "session id must be in [1, " + std::to_string(kFrameMaxSessionId) +
        "]; 0 is the sessionless stream");
  }
  MutexLock lock(&mu_);
  if (stopping_) return UnavailableError("session mux shut down");
  if (sessions_.count(session_id) != 0) {
    return AlreadyExistsError("session " + std::to_string(session_id) +
                              " is already open on this mux");
  }
  auto state = std::make_unique<SessionState>();
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
  return Status::Ok();
}

Status SessionMux::Core::LinkHealth() const {
  MutexLock lock(&mu_);
  for (const Status& link : link_fail_) {
    if (!link.ok()) return link;
  }
  return Status::Ok();
}

SessionMuxStats SessionMux::Core::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void SessionMux::Core::PumpLoop() {
  // Peers whose link failure has already failed the open sessions; the
  // pump thread's own mirror of the non-Ok entries of link_fail_.
  std::vector<bool> link_failure_applied(static_cast<size_t>(num_parties_));
  std::vector<Message> frames;
  while (true) {
    // Phase 1: write the queued frames in FIFO order, whether or not
    // their session is still open. The inner transport is touched
    // WITHOUT the lock held (a send can block on a full kernel buffer
    // up to its deadline). The one exception is WakePumpWait, which
    // never blocks and which ChannelSend and Stop call under mu_. A
    // stop seen here ends the loop after this pass, and ChannelSend
    // queues nothing once stopping_ is set, so no frame is left behind.
    frames.clear();
    bool stop = false;
    {
      MutexLock lock(&mu_);
      frames.swap(send_queue_);
      stop = stopping_;
    }
    for (Message& msg : frames) {
      Status sent = inner_->SendOnSession(msg.session, msg.from, msg.to,
                                          msg.tag, std::move(msg.payload));
      if (sent.ok()) continue;
      MutexLock lock(&mu_);
      auto it = sessions_.find(msg.session);
      if (it != sessions_.end()) FailLocked(it->second.get(), std::move(sent));
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
      if (link_failure_applied[static_cast<size_t>(peer)]) continue;
      Status link = inner_->LinkStatus(peer);
      if (!link.ok()) {
        link_failure_applied[static_cast<size_t>(peer)] = true;
        MutexLock lock(&mu_);
        link_fail_[static_cast<size_t>(peer)] = link;
        FailAllSessionsLocked(link);
      }
    }

    // Phase 3: wait for the next event (inbound bytes, a parsed frame,
    // the doorbell). Never block with work in hand: a send queued since
    // Phase 1, shutdown, or a link that an intake pump above found dead
    // after its own peer's turn (the next pass routes the frames ahead
    // of its EOF first, then fails the sessions).
    bool idle = true;
    for (int peer = 0; peer < num_parties_ && idle; ++peer) {
      if (peer == local_party_ ||
          link_failure_applied[static_cast<size_t>(peer)]) {
        continue;
      }
      idle = inner_->LinkStatus(peer).ok();
    }
    {
      MutexLock lock(&mu_);
      idle = idle && send_queue_.empty() && !stopping_;
    }
    (void)inner_->PumpWait(idle ? kPumpSafetyTimeoutMs : 0);
  }

  // Shutdown: no Receive may stay blocked on a pump that no longer runs.
  MutexLock lock(&mu_);
  FailAllSessionsLocked(UnavailableError("session mux shut down"));
}

void SessionMux::Core::RouteLocked(Message msg) {
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
  // peer cannot grow memory without limit. Beyond the cap the oldest
  // frame of the lowest orphaned session id goes first.
  while (orphan_count_ >= options_.max_orphan_messages && !orphans_.empty()) {
    auto lowest = orphans_.begin();
    lowest->second.pop_front();
    orphan_count_ -= 1;
    stats_.dropped_orphans += 1;
    if (lowest->second.empty()) orphans_.erase(lowest);
  }
  orphans_[msg.session].push_back(std::move(msg));
  orphan_count_ += 1;
  stats_.orphaned_messages += 1;
}

void SessionMux::Core::DeliverLocked(SessionState* session, Message msg) {
  if (msg.tag == MessageTag::kAbort) {
    // Scoped abort: latch THIS session only; the message itself is
    // consumed (mirrors the transport-wide latch of the sessionless
    // stream, but per session).
    FailLocked(session, MakeAbortStatus(DecodeAbortPayload(msg.payload)));
    return;
  }
  session->inboxes[static_cast<size_t>(msg.from)].push_back(std::move(msg));
  stats_.routed_messages += 1;
  session->cv.NotifyAll();
}

void SessionMux::Core::FailLocked(SessionState* session, Status status) {
  if (session->fail.ok()) session->fail = std::move(status);
  session->cv.NotifyAll();
}

void SessionMux::Core::FailAllSessionsLocked(const Status& status) {
  for (auto& entry : sessions_) FailLocked(entry.second.get(), status);
}

Status SessionMux::Core::ChannelSend(Message msg) {
  MutexLock lock(&mu_);
  if (stopping_) return UnavailableError("session mux shut down");
  auto it = sessions_.find(msg.session);
  if (it == sessions_.end()) {
    return FailedPreconditionError("session " + std::to_string(msg.session) +
                                   " is not open");
  }
  // A poisoned session fails fast — except for the abort notification
  // itself, which must still reach the peers so they fail this session
  // with the originator's status instead of their own timeouts.
  if (!it->second->fail.ok() && msg.tag != MessageTag::kAbort) {
    return it->second->fail;
  }
  send_queue_.push_back(std::move(msg));
  inner_->WakePumpWait();
  return Status::Ok();
}

Result<Message> SessionMux::Core::ChannelReceive(uint32_t session_id, int from,
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

bool SessionMux::Core::ChannelHasPending(uint32_t session_id, int from) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return false;
  return !it->second->inboxes[static_cast<size_t>(from)].empty();
}

void SessionMux::Core::ChannelAbort(uint32_t session_id, Status status) {
  DASH_CHECK(!status.ok());
  MutexLock lock(&mu_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) FailLocked(it->second.get(), std::move(status));
}

void SessionMux::Core::CloseSession(uint32_t session_id) {
  MutexLock lock(&mu_);
  sessions_.erase(session_id);
  stats_.open_sessions = static_cast<int>(sessions_.size());
}

// --- SessionChannel --------------------------------------------------

SessionChannel::~SessionChannel() { core_->CloseSession(session_id_); }

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
  // ChannelSend consumes the payload, so take its size for the
  // accounting first.
  const size_t payload_bytes = payload.size();
  DASH_RETURN_IF_ERROR(core_->ChannelSend(
      Message{from, to, session_id_, tag, std::move(payload)}));
  RecordSend(from, to, tag, payload_bytes);
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
  return core_->ChannelReceive(session_id_, from, expected_tag);
}

bool SessionChannel::HasPending(int to, int from) {
  if (to != local_party() || from < 0 || from >= num_parties() ||
      from == local_party()) {
    return false;
  }
  return core_->ChannelHasPending(session_id_, from);
}

void SessionChannel::Abort(Status status) {
  core_->ChannelAbort(session_id_, std::move(status));
}

}  // namespace dash
