// Small helpers shared by dash_perfbench: a monotonic clock, a
// reusable barrier, order statistics, loopback ports, and the process
// resource counters behind cpu_s_per_op and peak_rss_mb.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/mutex.h"

namespace perfbench {

// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

inline double NsToSeconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// A reusable rendezvous for a fixed number of threads. The last thread
// to arrive runs `on_last` (outside the lock) before anyone is released,
// so the completion step sees every arriving thread's prior writes and
// every released thread sees the completion step's writes.
class Barrier {
 public:
  explicit Barrier(int count) : count_(count) {}
  void Arrive(const std::function<void()>& on_last = nullptr);

 private:
  dash::Mutex mu_{dash::LockRank::kLeaf};
  dash::CondVar cv_;
  const int count_;
  int arrived_ DASH_GUARDED_BY(mu_) = 0;
  int64_t generation_ DASH_GUARDED_BY(mu_) = 0;
};

// Linear-interpolated percentile (pct in [0, 100]); 0 for no values.
double Percentile(std::vector<double> values, double pct);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
double Mean(const std::vector<double>& values);

// `count` distinct free loopback TCP ports (bound, read back, released).
std::vector<uint16_t> FreePorts(int count);

// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();

// Resets the kernel's resident-set high-water mark to the current RSS
// (writes "5" to /proc/self/clear_refs); false when not permitted.
bool ResetPeakRss();

// VmHWM of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
