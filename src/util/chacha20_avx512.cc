// The ChaCha20 mask batch built for AVX-512 (util/chacha20_batch.h):
// AVX512VL gives the ymm-wide lanes a one-instruction rotate.

#ifndef __AVX512F__
#error "chacha20_avx512.cc must be compiled with -mavx512f (see src/CMakeLists.txt)"
#endif

#include "util/chacha20_batch.h"

namespace dash {

void ChaCha20BatchAvx512(const uint32_t* state, uint64_t* words) {
  LaneMajorBatch(state, words);
}

}  // namespace dash
