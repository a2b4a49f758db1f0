// TCP transport: one process per party, full mesh over POSIX sockets.
//
// Connection establishment tolerates parties starting in ANY order:
// every party first opens its own listening socket, then actively dials
// every lower-numbered party (retrying with exponential backoff plus
// jitter while the peer's listener is not up yet) and accepts
// connections from every higher-numbered party. Both sides of each link
// exchange a hello frame naming their party id and cluster size, so a
// stray or stale connection (e.g. from a party killed mid-handshake and
// restarted) is identified and discarded without poisoning the mesh. A
// peer that never appears within connect_timeout_ms yields
// DeadlineExceeded, not a hang.
//
// Data flow is single-threaded and poll-driven: Send frames the message
// (transport/frame.h) and writes it to the peer's socket, draining any
// inbound frames whenever the outbound buffer is full — this is what
// prevents the classic all-parties-broadcast deadlock where every
// kernel buffer fills while every process is blocked in write(). Receive
// returns the next queued frame from the requested peer, blocking up to
// receive_timeout_ms (then DeadlineExceeded). Tag mismatches are
// FailedPrecondition, exactly as on the in-process backend.
//
// Failure semantics (PROTOCOL.md "Failure modes" has the full table):
// every post-handshake fault maps to exactly one of three codes, never
// a hang or a CHECK. A peer closing its socket (clean FIN or reset),
// including mid-frame, is Unavailable("peer N disconnected ...") on
// every later operation touching that link; a corrupted or malformed
// frame (bad magic/version/CRC/routing) is DataLoss and also poisons
// the link; silence is DeadlineExceeded. Failures are sticky per link
// and are reported only on operations that use the failed link — a dead
// link never fails a Receive on a healthy one. Additionally, Receive
// watches EVERY open link for MessageTag::kAbort notifications
// (net/abort.h): one received abort latches transport-wide and is
// returned — with the originator's status code — from every subsequent
// blocking Receive, which is how all surviving parties converge on one
// consistent status within a single receive timeout.
//
// Threading: all protocol calls (Send/Receive/Broadcast/BeginRound) must
// come from one thread, like every Transport. Because the socket reader
// runs inside Send/Receive on that same thread, TrafficMetrics updates
// are already serialized; they are additionally guarded by a mutex so a
// separate monitoring thread may call metrics()/wire_stats() while the
// protocol runs. The other cross-thread call is WakePumpWait: it rings
// a doorbell (a non-blocking, close-on-exec eventfd) that PumpWait polls
// beside the peer sockets, so a SessionMux job thread can end the pump
// thread's wait without touching any other state of the transport.
//
// Accounting: TrafficMetrics counts logical Message::WireSize() bytes at
// the sender, identically to the in-process backend, so the O(M) claim
// is checked on the same numbers. The physical truth (frame headers
// included, both directions) is reported by wire_stats().

#ifndef DASH_TRANSPORT_TCP_TRANSPORT_H_
#define DASH_TRANSPORT_TCP_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "transport/cluster_config.h"
#include "transport/transport.h"
#include "util/mutex.h"

namespace dash {

struct TcpTransportOptions {
  // Overall deadline for establishing the full mesh.
  int connect_timeout_ms = 20000;

  // Deadline for one Receive (and for draining one Send).
  int receive_timeout_ms = 30000;

  // Exponential backoff between reconnect attempts while a peer's
  // listener is not up yet; each sleep is uniformly jittered in
  // [backoff/2, backoff] so restarted parties do not dial in lockstep.
  int backoff_initial_ms = 25;
  int backoff_max_ms = 1000;
};

// Physical byte counters (frame headers included), both directions.
struct TcpWireStats {
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t frames_sent = 0;
  int64_t frames_received = 0;
};

class TcpTransport : public Transport {
 public:
  // Establishes the mesh for `local_party` per `cluster`; blocks until
  // every link is up (any start order) or the connect deadline expires.
  static Result<std::unique_ptr<TcpTransport>> Connect(
      const ClusterConfig& cluster, int local_party,
      const TcpTransportOptions& options = {});

  ~TcpTransport() override;

  int local_party() const override { return local_party_; }

  // `from` must be the local party (a TCP endpoint can only speak for
  // itself); `to` must be a distinct valid party.
  Status Send(int from, int to, MessageTag tag,
              std::vector<uint8_t> payload) override;

  // `to` must be the local party. Blocks up to receive_timeout_ms.
  // Delivers the sessionless stream only: a frame carrying a nonzero
  // session id on this path is a desync (the peer multiplexes, we do
  // not) and fails with FailedPrecondition.
  Result<Message> Receive(int to, int from, MessageTag expected_tag) override;

  // True if a frame from -> local is already buffered or readable now.
  bool HasPending(int to, int from) override;

  // Session extension points (transport/transport.h): the frame header
  // carries the session id, aborts latch transport-wide only for the
  // sessionless stream (session aborts are scoped by the SessionMux),
  // and TryReceiveAny is the demultiplexer intake.
  Status SendOnSession(uint32_t session, int from, int to, MessageTag tag,
                       std::vector<uint8_t> payload) override;
  Result<Message> TryReceiveAny(int to, int from) override;
  // Returns at once while a parsed frame waits in any inbox; otherwise
  // polls the open peer sockets and the doorbell (the doorbell alone
  // when no link is open) and consumes a ring.
  Status PumpWait(int timeout_ms) override;
  void WakePumpWait() override;
  Status LinkStatus(int peer) override;

  TcpWireStats wire_stats() const;

  const TcpTransportOptions& options() const { return options_; }

 private:
  struct Peer {
    int fd = -1;
    std::vector<uint8_t> rx;        // unparsed bytes off the socket
    size_t rx_consumed = 0;         // parsed prefix of rx
    std::deque<Message> inbox;      // complete frames awaiting Receive
    bool closed = false;
    // Sticky link failure (Unavailable/DataLoss); set when closed is.
    Status fail = Status::Ok();
  };

  TcpTransport(const ClusterConfig& cluster, int local_party,
               const TcpTransportOptions& options);

  Status EstablishMesh();
  Status DialPeer(int peer, int64_t deadline_ms);
  Status AcceptPeers(int64_t deadline_ms);
  Status FinishHandshake(int fd, int expected_peer, int64_t deadline_ms,
                         int* hello_party);

  // Drains whatever is readable on every open peer socket into the
  // inboxes, waiting at most `timeout_ms` for the first byte. Socket
  // and framing failures are recorded per peer (Peer::fail), never
  // propagated here, so one broken link cannot fail another link's
  // Receive. With `doorbell` (PumpWait only) a ring also ends the wait
  // and is consumed; every other pump leaves the doorbell rung, so a
  // send queued meanwhile still wakes the next PumpWait.
  Status Pump(int timeout_ms, bool doorbell = false);
  void ReadAvailable(int peer) DASH_EXCLUDES(stats_mutex_);
  Status ParseFrames(int peer) DASH_EXCLUDES(stats_mutex_);

  // Latches the first kAbort found in any inbox into abort_status_.
  void ScanForAborts();

  // A locally-detected link failure is often the shadow of a deliberate
  // peer abort: the peer broadcast kAbort, tore down its transport, and
  // our send/receive failed before we read the abort still sitting in
  // the socket buffer. Drain every open peer, latch aborts, and return
  // abort_status_ if set — it carries the originator's Status, so every
  // survivor reports the same code — else return `local` unchanged.
  Status PreferAbort(Status local);

  // Records one outbound frame in both the logical TrafficMetrics and
  // the physical wire counters; takes stats_mutex_ itself (callers on
  // the protocol thread hold no lock here).
  void RecordWireSend(const Message& msg, size_t frame_bytes)
      DASH_EXCLUDES(stats_mutex_);
  void CloseAll();

  ClusterConfig cluster_;
  int local_party_;
  TcpTransportOptions options_;
  int listen_fd_ = -1;
  // Written by WakePumpWait from any thread, read by PumpWait; set once
  // before the transport is shared.
  int doorbell_fd_ = -1;
  std::vector<Peer> peers_;  // index == party id; slot local_party_ unused
  Status abort_status_ = Status::Ok();  // first peer abort, transport-wide

  // Guards the wire counters (and serializes TrafficMetrics snapshots
  // against the protocol thread) for the one supported cross-thread
  // reader: a monitor thread polling metrics()/wire_stats().
  mutable Mutex stats_mutex_{LockRank::kTransportStats};
  TcpWireStats wire_stats_ DASH_GUARDED_BY(stats_mutex_);
};

}  // namespace dash

#endif  // DASH_TRANSPORT_TCP_TRANSPORT_H_
