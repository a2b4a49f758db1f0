// Runtime ISA probe shared by every dispatched body.
//
// DASH_HAVE_X86_KERNELS is defined by the build exactly when the AVX2 /
// AVX-512 translation units are compiled in (x86-64 targets); on other
// architectures the probe reports portable as the sole available ISA.

#include "util/isa.h"

#include <cstdlib>
#include <optional>

#include "util/check.h"

namespace dash {
namespace {

// The testing pin; read by ActiveIsa on every call so a test can flip
// ISAs between scans. Plain global, tests only.
std::optional<Isa> g_forced_isa;

bool CpuSupports(Isa isa) {
  switch (isa) {
    case Isa::kPortable:
      return true;
    case Isa::kAvx2:
#ifdef DASH_HAVE_X86_KERNELS
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Isa::kAvx512:
#ifdef DASH_HAVE_X86_KERNELS
      // The AVX-512 units are compiled with f+bw+dq+vl; require them all.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#else
      return false;
#endif
  }
  return false;
}

// Resolves DASH_FORCE_ISA / the cpuid probe exactly once.
Isa ResolveDefaultIsa() {
  const char* forced = std::getenv("DASH_FORCE_ISA");
  if (forced != nullptr && forced[0] != '\0') {
    Isa isa;
    DASH_CHECK(ParseIsa(forced, &isa))
        << "DASH_FORCE_ISA must be portable, avx2 or avx512; got '" << forced
        << "'";
    DASH_CHECK(CpuSupports(isa))
        << "DASH_FORCE_ISA=" << forced
        << " requests an ISA this build/CPU does not support";
    return isa;
  }
  if (CpuSupports(Isa::kAvx512)) return Isa::kAvx512;
  if (CpuSupports(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kPortable;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kPortable:
      return "portable";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseIsa(const std::string& name, Isa* isa) {
  if (name == "portable") {
    *isa = Isa::kPortable;
  } else if (name == "avx2") {
    *isa = Isa::kAvx2;
  } else if (name == "avx512") {
    *isa = Isa::kAvx512;
  } else {
    return false;
  }
  return true;
}

Isa ActiveIsa() {
  if (g_forced_isa.has_value()) return *g_forced_isa;
  static const Isa isa = ResolveDefaultIsa();
  return isa;
}

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> isas{Isa::kPortable};
  if (CpuSupports(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  if (CpuSupports(Isa::kAvx512)) isas.push_back(Isa::kAvx512);
  return isas;
}

ScopedIsaForTesting::ScopedIsaForTesting(Isa isa) {
  DASH_CHECK(CpuSupports(isa))
      << "cannot force " << IsaName(isa)
      << ": not available in this build/CPU";
  g_forced_isa = isa;
}

ScopedIsaForTesting::~ScopedIsaForTesting() { g_forced_isa.reset(); }

}  // namespace dash
