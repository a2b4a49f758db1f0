// Protocol transcript recording for audit and debugging.
//
// Attach a ProtocolTrace to a Transport and every message's metadata
// (sequence, round, endpoints, tag, wire bytes — never payloads) is
// captured. Deployments use such transcripts to verify after the fact
// that a protocol run exchanged exactly the message pattern it was
// supposed to: the privacy argument of the paper is precisely a claim
// about which bytes flow where.
//
// Record is safe for concurrent callers: the simulator attaches one
// trace to all P party endpoints, each on its own thread. The readers
// below expect recording to have stopped (the run joined).

#ifndef DASH_NET_TRACE_H_
#define DASH_NET_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"
#include "util/mutex.h"
#include "util/status.h"

namespace dash {

struct TraceEvent {
  int64_t sequence = 0;  // global send order
  int round = 0;         // protocol round at send time
  int from = -1;
  int to = -1;
  MessageTag tag = MessageTag::kPlainStats;
  int64_t wire_bytes = 0;
};

class ProtocolTrace {
 public:
  // One message of `wire_bytes` (Message::WireSize()).
  void Record(int round, int from, int to, MessageTag tag,
              int64_t wire_bytes) DASH_EXCLUDES(mu_);
  void Clear() DASH_EXCLUDES(mu_);

  const std::vector<TraceEvent>& events() const
      DASH_NO_THREAD_SAFETY_ANALYSIS(
          "read after the recording threads joined; a reference cannot "
          "carry the lock");
  int64_t size() const { return static_cast<int64_t>(events().size()); }

  // Events carrying a particular tag.
  int64_t CountTag(MessageTag tag) const;

  // Writes sequence,round,from,to,tag,bytes rows.
  Status WriteCsv(const std::string& path) const;

  // One line per (round, tag): "round 2: 6x AdditiveShare (1824 B)".
  std::string Summary() const;

 private:
  mutable Mutex mu_{LockRank::kLeaf};
  std::vector<TraceEvent> events_ DASH_GUARDED_BY(mu_);
};

}  // namespace dash

#endif  // DASH_NET_TRACE_H_
