// A timing decorator over a party's Transport, and the spans it records.
//
// TimedTransport wraps the transport a party's scan runs on and records
// one span per Send and per Receive: which op (scan index or job id),
// which party, which protocol round, start and end on the steady clock,
// and the logical bytes moved. The round is derived from the message tag
// with the round keys of tools/protocol_model.yaml, so the benchmark
// times every round from outside without touching the library.
//
// The decorator is transparent to the protocol: it forwards
// local_party(), session_id() (the per-session mask domain) and
// BeginRound(), passes every payload through untouched, and mirrors the
// logical TrafficMetrics the way FaultInjectingTransport does. The scan
// workloads check that a decorated run reproduces the undecorated run's
// result checksum and byte counts exactly.
//
// Spans stay in memory (a vector append per message) and are written
// out once at the end as Chrome trace-event JSON.

#ifndef PERFBENCH_TIMED_TRANSPORT_H_
#define PERFBENCH_TIMED_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "transport/transport.h"
#include "util/mutex.h"

namespace perfbench {

// The rounds of a masked-mode scan with the broadcast-stack R combine,
// in protocol order (tools/protocol_model.yaml).
inline constexpr int kNumRoundKeys = 6;
extern const char* const kRoundKeys[kNumRoundKeys];
// Index of phase1_rfactor: a scan without it skipped Phase 1 (cache hit).
inline constexpr int kPhase1RFactorRound = 2;

// Index into kRoundKeys for a message tag; -1 for tags outside those
// rounds (abort notifications, other aggregation modes).
int RoundIndexOfTag(dash::MessageTag tag);

struct Span {
  uint32_t op = 0;
  int party = -1;
  int round = -1;     // index into kRoundKeys, or -1
  bool receive = false;
  int peer = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t bytes = 0;  // Message::WireSize() of the message moved
};

// A party-level window that the round spans of one op fall inside:
// the whole scan (or job) as that party ran it.
struct OpWindow {
  uint32_t op = 0;
  int party = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Thread-safe collector the decorators flush into.
class SpanSink {
 public:
  void Add(std::vector<Span> spans);
  void AddWindow(const OpWindow& window);
  std::vector<Span> spans() const;
  std::vector<OpWindow> windows() const;

 private:
  mutable dash::Mutex mu_{dash::LockRank::kLeaf};
  std::vector<Span> spans_ DASH_GUARDED_BY(mu_);
  std::vector<OpWindow> windows_ DASH_GUARDED_BY(mu_);
};

class TimedTransport : public dash::Transport {
 public:
  // Decorates `inner` (borrowed; must outlive this object).
  explicit TimedTransport(dash::Transport* inner);
  // Decorates and owns `inner` (a per-job SessionChannel).
  explicit TimedTransport(std::unique_ptr<dash::Transport> inner);

  int local_party() const override { return inner_->local_party(); }
  uint32_t session_id() const override { return inner_->session_id(); }

  dash::Status Send(int from, int to, dash::MessageTag tag,
                    std::vector<uint8_t> payload) override;
  dash::Result<dash::Message> Receive(int to, int from,
                                      dash::MessageTag expected_tag) override;
  bool HasPending(int to, int from) override;
  void BeginRound() override;

  dash::Transport* inner() { return inner_; }

  // Tags the spans recorded from now on.
  void set_op(uint32_t op) { op_ = op; }

  // Moves the recorded spans into `sink`.
  void FlushTo(SpanSink* sink);

 private:
  std::unique_ptr<dash::Transport> owned_;
  dash::Transport* inner_;
  uint32_t op_ = 0;
  std::vector<Span> spans_;
};

// Writes spans and windows as Chrome trace-event JSON ("X" events; one
// process per party, one thread row per op) to `path`.
dash::Status WriteTraceEvents(const std::string& path,
                              const std::vector<Span>& spans,
                              const std::vector<OpWindow>& windows,
                              const std::string& window_name);

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_TRANSPORT_H_
