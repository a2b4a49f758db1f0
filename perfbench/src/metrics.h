// Metric reporting and the round-span accounting of a traced run.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "timed_transport.h"

namespace perfbench {

// Named metrics in insertion order, printed as the benchmark's result.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  // The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson(bool correct, int64_t attempted,
                         int64_t failed) const;

  // One "name value unit" line per metric, for humans (stderr).
  std::string Table() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// Per-round totals summed over every (op, party) window.
struct RoundTotals {
  double send_s = 0.0;  // inside Send
  double wait_s = 0.0;  // blocked in Receive
  double pre_s = 0.0;   // local work since the previous round
  int64_t bytes = 0;    // logical bytes sent
  int64_t msgs = 0;     // messages sent
};

// A party's scan split into rounds and the gaps between them.
//
// Inside one window, a party's spans are ordered and disjoint (a
// Transport is single-threaded). Consecutive spans of one round form a
// segment; the time before a segment, back to the end of the previous
// one (or to the window start), is that round's pre_s; the time after
// the last segment is the tail. Segments, gaps and tail add up to the
// window exactly; a span outside its window or overlapping another
// breaks that identity and is reported in `closure_error_s`.
struct WindowBreakdown {
  uint32_t op = 0;
  int party = -1;
  double window_s = 0.0;
  double gaps_s = 0.0;  // all pre_s plus the tail
  bool phase1_ran = false;  // a phase1_rfactor round ran (no cache hit)
};

struct RoundAccounting {
  RoundTotals rounds[kNumRoundKeys];
  double other_wait_s = 0.0;  // Receive time on tags outside kRoundKeys
  double window_s = 0.0;      // sum over windows
  double closure_error_s = 0.0;  // largest |window - (segments + gaps)|
  std::vector<WindowBreakdown> windows;
};

RoundAccounting AccountRounds(const std::vector<Span>& spans,
                              const std::vector<OpWindow>& windows);

// round.<key>.{send_s,wait_s,pre_s} per (op, party) window,
// round.<key>.{bytes,msgs} per op summed over parties, and
// transport.wait_frac (time blocked in Receive over window time).
void AddRoundMetrics(const RoundAccounting& acc, int64_t ops, MetricSet* out);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
