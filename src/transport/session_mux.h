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
//   * Send — the channel moves the message into the pump's send queue,
//     rings the inner transport's doorbell (WakePumpWait) and returns.
//     It never waits for the write; the rules below keep that safe;
//   * Receive — the channel blocks on its per-(session, peer) inbox,
//     which the pump fills by draining the inner transport's intake
//     (TryReceiveAny) and routing frames by their session id.
// The pump loops: write the queued frames, drain and route the intake,
// then block in PumpWait until inbound bytes, the doorbell or a frame
// already parsed gives it work, so a queued frame reaches the wire at
// once. Three rules keep a wake-up from being lost:
//   1. only PumpWait consumes the doorbell: the inner transport's other
//      pumps (the intake's, and a send's while its socket is full)
//      leave it rung, so a frame queued meanwhile still ends the wait;
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

// Queued sends. A Send that returned has handed its frame to the pump,
// not to the wire. Four rules make that indistinguishable from a
// written frame to every protocol on a channel:
//   1. frames outlive their session: the pump writes every queued frame
//      in FIFO order, also after its channel was destroyed, so each
//      (session, peer) link keeps its order and its bytes — a job's
//      last commit broadcast or abort notifications are often still
//      queued when the scheduler drops the channel;
//   2. frames outlive the mux: ~SessionMux stops intake of new frames,
//      and the pump's last pass writes everything queued before it
//      exits and fails the open sessions;
//   3. failures surface: a failed write latches its status on the
//      frame's session, if still open, so the session's next Send, or
//      its next Receive that finds no frame waiting, returns it. A dead
//      link still fails every open session through LinkStatus, and
//      kAbort frames still pass a poisoned session;
//   4. memory stays bounded by the protocol, not by a cap: a job thread
//      queues only the frames it sends between two of its own Receives,
//      which the protocol bounds at a round or two of payloads — the
//      tree R-combine's root broadcast is followed by the next round's
//      broadcast and a Receive, and the abort path sends at most P−1
//      frames and returns. Each payload was built by the caller and is
//      moved into the queue, never copied.
// Accounting: SessionChannel::Send counts a frame's bytes once it is
// queued.

class SessionChannel;

struct SessionMuxOptions {
  // Deadline for one SessionChannel::Receive. A Send never waits: it
  // queues its frame for the pump (see "Queued sends" above).
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

  // Refuses new frames, lets the pump write every frame already queued,
  // and joins it. Every still-open channel is then poisoned with
  // Unavailable("session mux shut down"). A channel may outlive the
  // mux: its calls fail with that status, and destroying it is safe.
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
  class Core;

  // Shared with every channel, so a channel that outlives the mux still
  // closes its session on live memory.
  std::shared_ptr<Core> core_;
  std::thread pump_;
};

// Everything the pump thread and the channels share. ~SessionMux stops
// it; after that it never touches the inner transport again.
class SessionMux::Core {
 public:
  Core(Transport* inner, SessionMuxOptions options);

  int num_parties() const { return num_parties_; }
  int local_party() const { return local_party_; }

  // The pump thread's body; returns once Stop() was called and every
  // frame queued before it is written.
  void PumpLoop();
  void Stop();

  Status OpenSession(uint32_t session_id);
  Status LinkHealth() const;
  SessionMuxStats stats() const;

  // Channel-side entry points (any job thread).
  // Queues `msg` for its session (msg.session) and rings the pump.
  Status ChannelSend(Message msg);
  Result<Message> ChannelReceive(uint32_t session_id, int from,
                                 MessageTag expected_tag);
  bool ChannelHasPending(uint32_t session_id, int from);
  void ChannelAbort(uint32_t session_id, Status status);
  void CloseSession(uint32_t session_id);

 private:
  // Every field of SessionState is guarded by mu_; the annotation
  // cannot be written on the nested struct (mu_ is not in its scope),
  // so the discipline is carried by DASH_REQUIRES(mu_) on every method
  // that touches one.
  struct SessionState {
    // inboxes[peer] = frames from that peer awaiting Receive.
    std::vector<std::deque<Message>> inboxes;
    // First failure this session saw: a peer's kAbort, a dead link, a
    // failed write, a local Abort() poison. Sticky.
    Status fail = Status::Ok();
    CondVar cv;
  };

  // Routes one intake frame to its session / orphans / drops.
  void RouteLocked(Message msg) DASH_REQUIRES(mu_);
  // Applies one frame to an open session (latches aborts).
  void DeliverLocked(SessionState* session, Message msg) DASH_REQUIRES(mu_);
  // Latches `status` on `session` unless it already failed, and wakes
  // its Receive.
  void FailLocked(SessionState* session, Status status) DASH_REQUIRES(mu_);
  // Poisons every open session with the link failure.
  void FailAllSessionsLocked(const Status& status) DASH_REQUIRES(mu_);

  Transport* const inner_;
  const SessionMuxOptions options_;
  const int num_parties_;
  const int local_party_;

  mutable Mutex mu_{LockRank::kSessionMux};
  bool stopping_ DASH_GUARDED_BY(mu_) = false;
  std::map<uint32_t, std::unique_ptr<SessionState>> sessions_
      DASH_GUARDED_BY(mu_);
  std::map<uint32_t, std::deque<Message>> orphans_ DASH_GUARDED_BY(mu_);
  size_t orphan_count_ DASH_GUARDED_BY(mu_) = 0;
  // Frames queued by ChannelSend, oldest first, for the pump to write.
  std::vector<Message> send_queue_ DASH_GUARDED_BY(mu_);
  // Per peer; Ok while healthy.
  std::vector<Status> link_fail_ DASH_GUARDED_BY(mu_);
  SessionMuxStats stats_ DASH_GUARDED_BY(mu_);
};

// One logical session as a Transport. Single-threaded like every
// Transport (one job thread drives it); distinct channels of the same
// mux are independent and may run concurrently. Carries its OWN
// TrafficMetrics, so concurrent jobs get attributable bytes/messages/
// rounds while the inner transport keeps the mesh-wide totals.
class SessionChannel : public Transport {
 public:
  ~SessionChannel() override;

  int local_party() const override { return core_->local_party(); }
  uint32_t session_id() const override { return session_id_; }

  // Queues the frame for the mux's pump and returns (see "Queued
  // sends"): Ok means queued, and a later write failure surfaces from
  // this session's next call.
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
  SessionChannel(std::shared_ptr<SessionMux::Core> core, uint32_t session_id)
      : Transport(core->num_parties()),
        core_(std::move(core)),
        session_id_(session_id) {}

  std::shared_ptr<SessionMux::Core> core_;
  uint32_t session_id_;
};

}  // namespace dash

#endif  // DASH_TRANSPORT_SESSION_MUX_H_
