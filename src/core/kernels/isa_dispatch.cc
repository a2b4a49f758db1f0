// The function-pointer dispatch table, chosen by the process ISA
// (util/isa.h).
//
// DASH_HAVE_X86_KERNELS is defined by the build exactly when the AVX2 /
// AVX-512 translation units are compiled in (x86-64 targets); on other
// architectures only the portable table exists, and the probe never
// reports another ISA.

#include "core/kernels/stats_kernels.h"

namespace dash {
namespace kernels {
namespace {

const StatsKernelTable kPortableTable{Isa::kPortable, DensePanelPortable,
                                      PackedColumnsPortable};
#ifdef DASH_HAVE_X86_KERNELS
const StatsKernelTable kAvx2Table{Isa::kAvx2, DensePanelAvx2,
                                  PackedColumnsAvx2};
const StatsKernelTable kAvx512Table{Isa::kAvx512, DensePanelAvx512,
                                    PackedColumnsAvx512};
#endif

}  // namespace

const StatsKernelTable& ActiveStatsKernels() {
  switch (ActiveIsa()) {
#ifdef DASH_HAVE_X86_KERNELS
    case Isa::kAvx2:
      return kAvx2Table;
    case Isa::kAvx512:
      return kAvx512Table;
#endif
    default:
      return kPortableTable;
  }
}

}  // namespace kernels
}  // namespace dash
