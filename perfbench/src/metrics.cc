#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common.h"

namespace perfbench {

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string MetricSet::ResultJson(bool correct, int64_t attempted,
                                  int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit; JSON has no NaN/Inf, so those become null.
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string MetricSet::Table() const {
  std::string out;
  char line[160];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += line;
  }
  return out;
}

RoundAccounting AccountRounds(const std::vector<Span>& spans,
                              const std::vector<OpWindow>& windows) {
  RoundAccounting acc;
  std::map<std::pair<uint32_t, int>, std::vector<const Span*>> by_window;
  for (const Span& s : spans) by_window[{s.op, s.party}].push_back(&s);

  for (const OpWindow& w : windows) {
    WindowBreakdown b;
    b.op = w.op;
    b.party = w.party;
    b.window_s = NsToSeconds(w.end_ns - w.start_ns);
    acc.window_s += b.window_s;

    std::vector<const Span*> mine = by_window[{w.op, w.party}];
    std::sort(mine.begin(), mine.end(), [](const Span* x, const Span* y) {
      return x->start_ns < y->start_ns;
    });
    int64_t prev_end = w.start_ns;  // end of the previous span
    int64_t gaps_ns = 0;
    int64_t violation_ns = 0;  // overlap, or time outside the window
    int current = -2;          // round of the open segment
    for (const Span* s : mine) {
      if (s->start_ns < prev_end) violation_ns += prev_end - s->start_ns;
      if (s->round != current) {
        const int64_t gap = std::max<int64_t>(0, s->start_ns - prev_end);
        gaps_ns += gap;
        if (s->round >= 0) {
          acc.rounds[s->round].pre_s += NsToSeconds(gap);
        }
        current = s->round;
      }
      const double dur = NsToSeconds(s->end_ns - s->start_ns);
      if (s->round >= 0) {
        RoundTotals& r = acc.rounds[s->round];
        if (s->receive) {
          r.wait_s += dur;
        } else {
          r.send_s += dur;
          r.bytes += s->bytes;
          r.msgs += 1;
        }
      } else if (s->receive) {
        acc.other_wait_s += dur;
      }
      prev_end = std::max(prev_end, s->end_ns);
      b.phase1_ran = b.phase1_ran || s->round == kPhase1RFactorRound;
    }
    if (prev_end > w.end_ns) violation_ns += prev_end - w.end_ns;
    const int64_t tail_ns = std::max<int64_t>(0, w.end_ns - prev_end);
    gaps_ns += tail_ns;
    b.gaps_s = NsToSeconds(gaps_ns);
    // Segments are the window minus the gaps; they add up exactly only
    // when the spans are disjoint and inside the window.
    acc.closure_error_s =
        std::max(acc.closure_error_s, NsToSeconds(violation_ns));
    acc.windows.push_back(b);
  }
  return acc;
}

void AddRoundMetrics(const RoundAccounting& acc, int64_t ops, MetricSet* out) {
  const double windows =
      std::max<double>(1.0, static_cast<double>(acc.windows.size()));
  const double per_op = std::max<double>(1.0, static_cast<double>(ops));
  double wait_s = acc.other_wait_s;
  for (int r = 0; r < kNumRoundKeys; ++r) {
    const RoundTotals& t = acc.rounds[r];
    const std::string key = std::string("round.") + kRoundKeys[r];
    out->Add(key + ".send_s", t.send_s / windows, "s");
    out->Add(key + ".wait_s", t.wait_s / windows, "s");
    out->Add(key + ".pre_s", t.pre_s / windows, "s");
    out->Add(key + ".bytes", static_cast<double>(t.bytes) / per_op, "B");
    out->Add(key + ".msgs", static_cast<double>(t.msgs) / per_op, "count");
    wait_s += t.wait_s;
  }
  out->Add("transport.wait_frac",
           acc.window_s > 0.0 ? wait_s / acc.window_s : 0.0, "ratio");
}

}  // namespace perfbench
