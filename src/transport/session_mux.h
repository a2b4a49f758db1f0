// Session multiplexer: many concurrent logical scan sessions over ONE
// party-bound transport (one TCP connection per peer).
//
// A SessionMux decorates a session-capable Transport (today
// TcpTransport; anything implementing SendOnSession / TryReceiveAny /
// PumpWait / WakePumpWait / LinkStatus) and hands out SessionChannel
// objects, each a full Transport bound to one session id. Protocol code
// written against Transport — RunPartySecureScan in particular — runs
// unchanged on a channel, and any number of channels run CONCURRENTLY
// from different threads over the same mesh: the resident daemon's
// substrate (service/job_scheduler.h).
//
// Threading model. The inner transport keeps its single-threaded
// contract: exactly one pump thread owned by the mux ever touches it,
// save for WakePumpWait, the one call any thread may make. Job threads
// talk to the pump through queues:
//   * Send — the channel enqueues the message, rings the inner
//     transport's doorbell (WakePumpWait) and blocks until the pump has
//     written it to the inner transport (so backpressure is real);
//   * Receive — the channel blocks on its per-(session, peer) inbox,
//     which the pump fills by draining the inner transport's intake
//     (TryReceiveAny) and routing frames by their session id.
// The pump loops: run the queued sends, drain and route the intake,
// then block in PumpWait until inbound bytes, the doorbell or a frame
// already parsed gives it work, so a queued send reaches the wire at
// once. Three rules keep a wake-up from being lost:
//   1. only PumpWait consumes the doorbell: the inner transport's other
//      pumps (the intake's, and a send's while its socket is full)
//      leave it rung, so a send queued meanwhile still ends the wait;
//   2. PumpWait returns at once while a frame sits parsed in a peer
//      inbox: an intake pump for one peer may read another peer's
//      bytes after that peer was drained, and its socket is then empty;
//   3. the pump never blocks with work in hand: it checks the send
//      queue (and shutdown) under the lock just before PumpWait, and
//      waits with timeout 0 when it is non-empty — or when a link died
//      after its peer's turn in the routing pass.
// PumpWait's timeout is a safety net that no path relies on. With no
// link open it blocks on the doorbell alone instead of spinning. This
// is the "blocking reader feeding per-session queues" shape; the wire
// format (transport/frame.h: session id in the header) and this API
// are what a later event-loop transport must preserve — swapping the
// pump for an epoll loop is invisible to channel users.
//
// Failure scoping:
//   * a kAbort frame inside session S latches session S alone — every
//     blocked Receive on S returns the originator's status, and no
//     other session notices (the transport-wide latch of the
//     sessionless stream does not apply; tcp_transport.cc only latches
//     session-0 aborts);
//   * a DEAD LINK affects every open session (a scan needs all
//     parties), so the pump poisons all open channels with the link's
//     sticky status — but queued jobs that have not opened a session
//     yet are untouched, which is the daemon's "fail only the affected
//     sessions" guarantee;
//   * SessionChannel::Abort poisons one session locally (job deadline,
//     client cancel); the scan running on it fails on its next
//     operation and its abort broadcast still goes through, so peers
//     fail the same session with the originator's code.
//
// Frames for a session that is not open here yet (a peer's scheduler
// started the job first) wait in a bounded orphan buffer and are
// replayed when OpenSession claims the id; beyond the cap the oldest
// frame of the LOWEST orphaned session id is dropped (counted in
// stats). Sessionless frames reaching a muxed endpoint are hostile by
// definition and are dropped + counted.

#ifndef DASH_TRANSPORT_SESSION_MUX_H_
#define DASH_TRANSPORT_SESSION_MUX_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "transport/transport.h"
#include "util/mutex.h"

namespace dash {

class SessionChannel;

struct SessionMuxOptions {
  // Deadline for one SessionChannel::Receive. A Send waits for the pump
  // with no deadline of its own; the inner transport's send deadline
  // (TcpTransportOptions::receive_timeout_ms) bounds it.
  int receive_timeout_ms = 30000;

  // Total frames buffered for sessions nobody opened yet; beyond this
  // the oldest frame of the lowest orphaned session id is dropped.
  size_t max_orphan_messages = 1024;
};

// Relaxed snapshot for monitors; see stats().
struct SessionMuxStats {
  int64_t routed_messages = 0;    // delivered into an open session
  int64_t orphaned_messages = 0;  // buffered for a not-yet-open session
  int64_t dropped_orphans = 0;    // discarded beyond the orphan cap
  int64_t hostile_rejects = 0;    // sessionless frames on a muxed link
  int64_t sessions_opened = 0;
  int open_sessions = 0;
};

class SessionMux {
 public:
  // `inner` is borrowed, must outlive the mux, must be party-bound
  // (local_party() >= 0) and session-capable. The constructor starts
  // the pump thread; from here on the mux owns all access to `inner`.
  explicit SessionMux(Transport* inner, SessionMuxOptions options = {});

  // Joins the pump thread. Every still-open channel is poisoned with
  // Unavailable("session mux shut down"); channels may outlive the mux
  // only to be destroyed.
  ~SessionMux();

  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  // Claims `session_id` (1..kFrameMaxSessionId; 0 is the sessionless
  // stream) and returns its channel. Orphaned frames for the id are
  // replayed into the new session in arrival order. AlreadyExists if
  // the id is open.
  Result<std::unique_ptr<SessionChannel>> OpenSession(uint32_t session_id);

  // First failed link's sticky status, or Ok while the mesh is whole.
  Status LinkHealth() const;

  SessionMuxStats stats() const;

  int num_parties() const;
  int local_party() const;

 private:
  friend class SessionChannel;

  // Every field of SessionState (and of SendOp once queued) is guarded
  // by the owning mux's mu_; the annotation cannot be written on the
  // nested struct (mu_ is not in its scope), so the discipline is
  // carried by DASH_REQUIRES(mu_) on every method that touches one.
  struct SessionState {
    uint32_t id = 0;
    // inboxes[peer] = frames from that peer awaiting Receive.
    std::vector<std::deque<Message>> inboxes;
    // First failure this session saw: a peer's kAbort, a dead link, a
    // local Abort() poison. Sticky.
    Status fail = Status::Ok();
    CondVar cv;
  };

  struct SendOp {
    Message msg;
    Status result = Status::Ok();
    bool done = false;
  };

  void PumpLoop();
  // Routes one intake frame to its session / orphans / drops.
  void RouteLocked(Message msg) DASH_REQUIRES(mu_);
  // Applies one frame to an open session (latches aborts).
  void DeliverLocked(SessionState* session, Message msg) DASH_REQUIRES(mu_);
  // Poisons every open session with the link failure.
  void FailAllSessionsLocked(const Status& status) DASH_REQUIRES(mu_);

  // Channel-side entry points (any job thread).
  Status ChannelSend(uint32_t session_id, Message msg);
  Result<Message> ChannelReceive(uint32_t session_id, int from,
                                 MessageTag expected_tag);
  bool ChannelHasPending(uint32_t session_id, int from);
  void ChannelAbort(uint32_t session_id, Status status);
  void CloseSession(uint32_t session_id);

  Transport* inner_;
  SessionMuxOptions options_;
  int num_parties_;
  int local_party_;

  mutable Mutex mu_{LockRank::kSessionMux};
  bool stopping_ DASH_GUARDED_BY(mu_) = false;
  std::map<uint32_t, std::unique_ptr<SessionState>> sessions_
      DASH_GUARDED_BY(mu_);
  std::map<uint32_t, std::deque<Message>> orphans_ DASH_GUARDED_BY(mu_);
  size_t orphan_count_ DASH_GUARDED_BY(mu_) = 0;
  std::vector<SendOp*> pending_sends_ DASH_GUARDED_BY(mu_);
  CondVar send_cv_;
  // Per peer; Ok while healthy.
  std::vector<Status> link_fail_ DASH_GUARDED_BY(mu_);
  SessionMuxStats stats_ DASH_GUARDED_BY(mu_);

  std::thread pump_;
};

// One logical session as a Transport. Single-threaded like every
// Transport (one job thread drives it); distinct channels of the same
// mux are independent and may run concurrently. Carries its OWN
// TrafficMetrics, so concurrent jobs get attributable bytes/messages/
// rounds while the inner transport keeps the mesh-wide totals.
class SessionChannel : public Transport {
 public:
  ~SessionChannel() override;

  int local_party() const override { return mux_->local_party(); }
  uint32_t session_id() const override { return session_id_; }

  Status Send(int from, int to, MessageTag tag,
              std::vector<uint8_t> payload) override;
  Result<Message> Receive(int to, int from, MessageTag expected_tag) override;
  bool HasPending(int to, int from) override;

  // Poisons the session with `status` (deadline expiry, client cancel):
  // every later Receive fails with it, while kAbort sends still pass so
  // the scan's abort broadcast reaches the peers.
  void Abort(Status status);

 private:
  friend class SessionMux;
  SessionChannel(SessionMux* mux, uint32_t session_id)
      : Transport(mux->num_parties()), mux_(mux), session_id_(session_id) {}

  SessionMux* mux_;
  uint32_t session_id_;
};

}  // namespace dash

#endif  // DASH_TRANSPORT_SESSION_MUX_H_
