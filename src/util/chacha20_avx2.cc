// The ChaCha20 mask batch built for AVX2 (util/chacha20_batch.h): the
// eight lanes of one state word fill one ymm register.

#ifndef __AVX2__
#error "chacha20_avx2.cc must be compiled with -mavx2 (see src/CMakeLists.txt)"
#endif

#include "util/chacha20_batch.h"

namespace dash {

void ChaCha20BatchAvx2(const uint32_t* state, uint64_t* words) {
  LaneMajorBatch(state, words);
}

}  // namespace dash
