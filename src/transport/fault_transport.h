// Deterministic fault injection for any Transport.
//
// FaultInjectingTransport decorates one party's transport (an endpoint
// of the in-process mesh or a TcpTransport) and applies a seeded
// FaultPlan: a list of rules keyed by (round, sender, receiver, nth
// matching message). The plan is pure data, so the SAME plan handed to
// every party of a run
// describes one global fault schedule; because the protocol's send and
// receive sequences are deterministic and every party calls BeginRound
// at the same protocol points, the sender-side decorator and the
// receiver-side decorator independently agree on which (round, link,
// nth) a given message is — no cross-party coordination channel exists
// or is needed.
//
// Fault semantics (sender transform + receiver detection):
//   kDrop        sender swallows the message; the receiver's matching
//                Receive reports DeadlineExceeded (TCP would time out)
//                without consuming anything.
//   kDelay       sender sleeps delay_ms before forwarding. Outlasting
//                a TCP peer's receive_timeout_ms turns this into a
//                timeout fault; the in-process mesh has no timeout, so
//                there a delay only slows the run down.
//   kDuplicate   sender forwards the message twice; the receiver's
//                matching Receive consumes both copies and delivers
//                one. The run must stay bit-identical to fault-free.
//   kReorder     sender holds the message and releases it AFTER the
//                next message on the same link (reorder-within-tag when
//                the next send carries the same tag). Detected by
//                tag/commit checks.
//   kCorrupt     sender XORs corrupt_xor into one payload byte; the
//                receiver's matching Receive consumes the mangled
//                message and reports DataLoss (modeling the CRC check
//                a physical wire performs; FaultProxy exercises the
//                real CRC path in tcp framing).
//   kDisconnect  the link (both directions between the two parties) is
//                dead from this message on; every later Send/Receive on
//                it reports Unavailable.
//
// A FaultInjectingTransport is single-threaded like every Transport.
// Traffic accounting is mirrored: every message actually forwarded to
// the inner backend is also recorded on the decorator's own metrics and
// trace (dropped messages on neither), so a protocol driver handed the
// decorator reads the same numbers the inner transport counts.

#ifndef DASH_TRANSPORT_FAULT_TRANSPORT_H_
#define DASH_TRANSPORT_FAULT_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "transport/transport.h"

namespace dash {

enum class FaultKind {
  kDrop = 0,
  kDelay = 1,
  kDuplicate = 2,
  kReorder = 3,
  kCorrupt = 4,
  kDisconnect = 5,
};

const char* FaultKindName(FaultKind kind);

// One fault. round/from/to of -1 match anything; nth counts messages
// that matched (round, from, to) so far, -1 matches every occurrence.
// Rounds are numbered from 1: a message sent after the k-th BeginRound
// is in round k (before any BeginRound: round 0).
struct FaultRule {
  FaultKind kind = FaultKind::kDrop;
  int round = -1;
  int from = -1;
  int to = -1;
  int nth = 0;
  int delay_ms = 0;          // kDelay only
  uint8_t corrupt_xor = 0x40;  // kCorrupt only; must be nonzero

  std::string ToString() const;
};

// A deterministic fault schedule: rules are matched in order, first
// match wins. The same FaultPlan value must be given to every party's
// decorator.
struct FaultPlan {
  std::vector<FaultRule> rules;

  // Human-readable, one rule per line — printed by the sweep test so a
  // failing plan can be read straight out of the CI log.
  std::string ToString() const;

  struct SweepOptions {
    int num_parties = 3;
    int max_rounds = 6;   // rounds the random rules may target
    int min_rules = 1;
    int max_rules = 3;
  };

  // The plan is a pure function of (seed, options): re-running with a
  // logged seed reproduces a sweep case byte-for-byte.
  static FaultPlan Random(uint64_t seed, const SweepOptions& options);
};

class FaultInjectingTransport : public Transport {
 public:
  // Decorates `inner` (not owned; must outlive this object) with the
  // faults in `plan`.
  FaultInjectingTransport(Transport* inner, FaultPlan plan);

  int local_party() const override { return inner_->local_party(); }

  // Decorators must not change the session identity of the link they
  // wrap: per-session mask-key derivation reads session_id() from the
  // transport handed to the protocol, and a decorator that reported the
  // default 0 for a wrapped SessionChannel would silently put this
  // party in a different mask domain than its peers.
  uint32_t session_id() const override { return inner_->session_id(); }

  Status Send(int from, int to, MessageTag tag,
              std::vector<uint8_t> payload) override;
  Result<Message> Receive(int to, int from, MessageTag expected_tag) override;
  bool HasPending(int to, int from) override;
  void BeginRound() override;

  Transport* inner() { return inner_; }

 private:
  struct LinkKey {
    int round;
    int from;
    int to;
    bool operator<(const LinkKey& other) const {
      if (round != other.round) return round < other.round;
      if (from != other.from) return from < other.from;
      return to < other.to;
    }
  };

  // First rule matching the n-th (round, from, to) message, or nullptr.
  const FaultRule* Match(int round, int from, int to, int nth) const;

  // Records the message on this transport's metrics/trace, then hands
  // it to the inner backend.
  Status ForwardSend(int from, int to, MessageTag tag,
                     std::vector<uint8_t> payload);

  bool LinkDead(int a, int b) const;
  void KillLink(int a, int b);
  Status DeadLinkError(int from, int to) const;

  Transport* inner_;
  FaultPlan plan_;
  int round_ = 0;
  std::map<LinkKey, int> send_counts_;
  std::map<LinkKey, int> recv_counts_;
  // Held (reordered) message per directed link, keyed from*P+to.
  std::map<int, Message> held_;
  std::vector<bool> dead_pairs_;  // symmetric, indexed min*P+max
};

}  // namespace dash

#endif  // DASH_TRANSPORT_FAULT_TRANSPORT_H_
