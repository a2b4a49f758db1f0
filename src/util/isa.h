// The process-wide instruction-set choice behind every runtime-dispatched
// body: the sufficient-statistics kernels (core/kernels/stats_kernels.h)
// and the ChaCha20 mask batch (util/chacha20.h). One probe serves both,
// so a pinned ISA pins every SIMD path at once (DESIGN.md §13).
//
// The choice is made once per process:
//   1. DASH_FORCE_ISA=portable|avx2|avx512 pins it (and aborts if the
//      requested ISA is not available — a forced ISA that silently fell
//      back would invalidate what a test claims to cover);
//   2. otherwise the best ISA the CPU supports (cpuid via
//      __builtin_cpu_supports; AVX-512 requires F+BW+DQ+VL).
// Tests iterate AvailableIsas() and pin each in-process with
// ScopedIsaForTesting, so one machine exercises every path it can.

#ifndef DASH_UTIL_ISA_H_
#define DASH_UTIL_ISA_H_

#include <string>
#include <vector>

namespace dash {

enum class Isa { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

// "portable" / "avx2" / "avx512".
const char* IsaName(Isa isa);

// Parses "portable" / "avx2" / "avx512"; false on anything else.
bool ParseIsa(const std::string& name, Isa* isa);

// The ISA every dispatched body runs: the testing pin if one is set,
// else the DASH_FORCE_ISA choice, else the best ISA the CPU supports.
// Stable after the first call (aside from the testing pin).
Isa ActiveIsa();

// ISAs usable in this process (portable first, then ascending), i.e.
// compiled in AND supported by the CPU. Ignores DASH_FORCE_ISA.
std::vector<Isa> AvailableIsas();

// Pins ActiveIsa() to `isa` for its lifetime. CHECK-fails when `isa` is
// not in AvailableIsas(). Not thread-safe; tests and benches only —
// construct and destroy it with no concurrent scan running.
class ScopedIsaForTesting {
 public:
  explicit ScopedIsaForTesting(Isa isa);
  ~ScopedIsaForTesting();
  ScopedIsaForTesting(const ScopedIsaForTesting&) = delete;
  ScopedIsaForTesting& operator=(const ScopedIsaForTesting&) = delete;
};

}  // namespace dash

#endif  // DASH_UTIL_ISA_H_
