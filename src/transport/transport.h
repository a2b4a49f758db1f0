// Abstract message transport between P parties.
//
// Transport is the seam between the protocol layer and the bytes-moving
// layer. Every Transport is bound to ONE party (local_party()), and the
// per-party protocol code (transport/party_runner.h, the per-party
// secure sum and R-combine) talks only to this interface, so the same
// protocol runs unchanged over
//
//  * the in-process mesh (net/network.h) — the simulator runs P threads,
//    one endpoint each, in one process; and
//  * a real TCP mesh (transport/tcp_transport.h) — this process is ONE
//    party and every Send/Receive crosses a socket.
//
// Accounting is part of the interface contract: every message is counted
// once, BY ITS SENDER, with Message::WireSize() bytes (payload + the
// 16-byte logical header). A party's metrics are therefore its outgoing
// half of the global picture on every backend, and the union over the
// parties is the whole run's traffic — which keeps the paper's O(M)
// communication claim verifiable on real wire bytes.
//
// Threading: a Transport instance is single-threaded — all calls must
// come from one thread. The one exception is WakePumpWait, which any
// thread may call. Distinct instances (the P endpoints of one mesh, or
// several TcpTransport endpoints in one test process) are independent.
// See net/network.h and transport/tcp_transport.h for backend-specific
// notes.

#ifndef DASH_TRANSPORT_TRANSPORT_H_
#define DASH_TRANSPORT_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "util/status.h"

namespace dash {

class ProtocolTrace;

// Cumulative traffic counters kept by every Transport. Counters are
// logical: each message contributes Message::WireSize() once, attributed
// to its sender, regardless of backend (physical framing overhead is
// reported separately by backends that have any; see
// TcpTransport::wire_stats).
//
// Thread safety: counters are independent relaxed atomics, so a
// monitoring thread may read them (and Reset may zero them) while the
// protocol thread records traffic — the one cross-thread access every
// backend supports. Each counter is individually exact; a reader racing
// a Record may observe one counter from before the message and another
// from after it, which is fine for monitoring. Relaxed ordering suffices
// because no reader infers other memory state from a counter value.
class TrafficMetrics {
 public:
  explicit TrafficMetrics(int num_parties);

  // One message of `wire_bytes` (Message::WireSize()) from -> to.
  void Record(int from, int to, int64_t wire_bytes);
  void BumpRound() { rounds_.fetch_add(1, std::memory_order_relaxed); }
  void Reset();

  int64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  int64_t total_messages() const {
    return total_messages_.load(std::memory_order_relaxed);
  }
  int rounds() const { return rounds_.load(std::memory_order_relaxed); }
  int64_t LinkBytes(int from, int to) const;

  // Largest bytes sent over any single directed link.
  int64_t MaxLinkBytes() const;

  // Bytes sent by one party over all its outgoing links.
  int64_t BytesSentBy(int party) const;

 private:
  int num_parties_;
  std::atomic<int64_t> total_bytes_{0};
  std::atomic<int64_t> total_messages_{0};
  std::atomic<int> rounds_{0};
  // num_parties^2 entries, row-major [from][to].
  std::vector<std::atomic<int64_t>> link_bytes_;
};

class Transport {
 public:
  // A transport among parties 0..num_parties-1. Requires num_parties >= 1.
  explicit Transport(int num_parties);
  virtual ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  int num_parties() const { return num_parties_; }

  // The party this endpoint acts for. Backends reject Send with a
  // foreign `from` and Receive with a foreign `to`.
  virtual int local_party() const = 0;

  // Queues/transmits a message; from/to must be distinct valid party ids.
  virtual Status Send(int from, int to, MessageTag tag,
                      std::vector<uint8_t> payload) = 0;

  // Sends the same payload to every other party.
  virtual Status Broadcast(int from, MessageTag tag,
                           const std::vector<uint8_t>& payload);

  // Delivers the next message queued from -> to, blocking until it is
  // there. Backends differ only in how a message that never comes is
  // reported: the in-process mesh fails when the sender has departed
  // (Unavailable) or every party is blocked (FailedPrecondition), while
  // the TCP backend waits up to its configured timeout and then fails
  // with DeadlineExceeded. A tag mismatch is FailedPrecondition on every
  // backend (protocol desync).
  virtual Result<Message> Receive(int to, int from,
                                  MessageTag expected_tag) = 0;

  // True if a message from -> to is already deliverable without blocking.
  virtual bool HasPending(int to, int from) = 0;

  // --- Session extension points (transport/session_mux.h) -----------
  //
  // A backend that supports multiplexed logical sessions over its links
  // overrides the five below session_id(); the defaults keep every
  // existing backend valid for the sessionless stream (session 0). The
  // session id is carried in the frame header (transport/frame.h), so
  // the wire format is fixed here and a later event-loop backend only
  // swaps the implementation behind these hooks.

  // The logical session every plain Send/Receive on this transport
  // belongs to. 0 everywhere except on a session-bound channel handed
  // out by a SessionMux.
  virtual uint32_t session_id() const { return 0; }

  // Send tagged with an explicit session id. Backends without session
  // support accept only the sessionless stream.
  virtual Status SendOnSession(uint32_t session, int from, int to,
                               MessageTag tag, std::vector<uint8_t> payload);

  // Pops the next deliverable message from -> to regardless of tag or
  // session (the demultiplexer's intake; it routes by Message::session).
  // Non-blocking: NotFound when nothing is deliverable right now.
  virtual Result<Message> TryReceiveAny(int to, int from);

  // Blocks up to timeout_ms until there is something to do: inbound
  // bytes on a socket, a frame an earlier pump already parsed and left
  // deliverable, or a WakePumpWait since the last PumpWait returned.
  // Only PumpWait consumes a wake-up. The default is a no-op so callers
  // over queue-backed backends simply spin on TryReceiveAny.
  virtual Status PumpWait(int timeout_ms);

  // Ends the PumpWait that is blocked now, or else the next one. Never
  // blocks; the one call any thread may make on a Transport. The
  // default is a no-op (PumpWait does not block there).
  virtual void WakePumpWait() {}

  // Health of the link to `peer`: Ok while usable, else the sticky
  // failure (Unavailable/DataLoss/...). Backends without per-link state
  // report Ok.
  virtual Status LinkStatus(int peer);

  // Marks the start of a new synchronous protocol round (metrics only).
  // Virtual so decorators (transport/fault_transport.h) can observe the
  // round boundary; overrides must call the base to keep metrics right.
  virtual void BeginRound() { metrics_.BumpRound(); }

  // Attaches a transcript recorder (net/trace.h); nullptr detaches. The
  // recorder must outlive the transport or be detached first.
  void AttachTrace(ProtocolTrace* trace) { trace_ = trace; }

  TrafficMetrics& metrics() { return metrics_; }
  const TrafficMetrics& metrics() const { return metrics_; }

 protected:
  // Sender-side accounting shared by all backends: counts the message in
  // the metrics and appends it to the attached trace, tagged with the
  // current round.
  void RecordSend(const Message& msg);
  // The same, from the header fields and the payload size, for a sender
  // that has already handed its payload on.
  void RecordSend(int from, int to, MessageTag tag, size_t payload_bytes);

  Status ValidateParty(int id, const char* what) const;

 private:
  int num_parties_;
  TrafficMetrics metrics_;
  ProtocolTrace* trace_ = nullptr;
};

}  // namespace dash

#endif  // DASH_TRANSPORT_TRANSPORT_H_
