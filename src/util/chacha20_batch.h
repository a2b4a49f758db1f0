// The lane-major 8-block ChaCha20 batch behind ChaCha20Rng::AddTo and
// SubtractFrom, compiled once per ISA (DESIGN.md §13).
//
// The body is plain C++ whose innermost loop runs across eight
// independent blocks, so the compiler vectorizes it at whatever width
// the unit's target flags allow. Three translation units include this
// header: util/chacha20.cc (portable), util/chacha20_avx2.cc (-mavx2)
// and util/chacha20_avx512.cc (-mavx512*). Each exports one entry point
// below, and ChaCha20Rng calls the one ActiveIsa() (util/isa.h) selects.
// Every unit computes the same words: the arithmetic is 32-bit integer
// adds, xors and rotates, exact at any vector width.
//
// The body sits in an anonymous namespace on purpose, and uses no STL:
// each including unit gets its own internal copy. An external inline
// function or a standard-library template instantiated in an AVX-512
// unit is a weak symbol the linker may pick for every caller, and that
// copy would fault on a CPU without AVX-512.

#ifndef DASH_UTIL_CHACHA20_BATCH_H_
#define DASH_UTIL_CHACHA20_BATCH_H_

#include <cstdint>

namespace dash {

// Fills words[0, 64) with the next 8 keystream blocks of `state` (the
// 16-word ChaCha20 input, block counter in state[12]) in NextU64 order:
// block l uses counter state[12] + l. The caller advances the counter
// and checks it for wrap-around.
void ChaCha20BatchPortable(const uint32_t* state, uint64_t* words);
void ChaCha20BatchAvx2(const uint32_t* state, uint64_t* words);
void ChaCha20BatchAvx512(const uint32_t* state, uint64_t* words);

namespace {

inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b; d ^= a; d = Rotl32(d, 16);
  c += d; b ^= c; b = Rotl32(b, 12);
  a += b; d ^= a; d = Rotl32(d, 8);
  c += d; b ^= c; b = Rotl32(b, 7);
}

// Eight blocks side by side: x[w][l] is state word w of block l.
constexpr int kLanes = 8;

inline void LaneMajorBatch(const uint32_t* state, uint64_t* words) {
  uint32_t init[16][kLanes];
  for (int w = 0; w < 16; ++w) {
    for (int l = 0; l < kLanes; ++l) init[w][l] = state[w];
  }
  for (int l = 0; l < kLanes; ++l) init[12][l] += static_cast<uint32_t>(l);

  uint32_t x[16][kLanes];
  for (int w = 0; w < 16; ++w) {
    for (int l = 0; l < kLanes; ++l) x[w][l] = init[w][l];
  }
  for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double rounds
    // The lane loop is innermost and independent across lanes, so the
    // compiler vectorizes it at whatever width the target has. It wraps a
    // whole double round: a lane loop per quarter round is small enough
    // for -O3 to unroll it completely first, and then it runs scalar.
    for (int l = 0; l < kLanes; ++l) {
      QuarterRound(x[0][l], x[4][l], x[8][l], x[12][l]);
      QuarterRound(x[1][l], x[5][l], x[9][l], x[13][l]);
      QuarterRound(x[2][l], x[6][l], x[10][l], x[14][l]);
      QuarterRound(x[3][l], x[7][l], x[11][l], x[15][l]);
      QuarterRound(x[0][l], x[5][l], x[10][l], x[15][l]);
      QuarterRound(x[1][l], x[6][l], x[11][l], x[12][l]);
      QuarterRound(x[2][l], x[7][l], x[8][l], x[13][l]);
      QuarterRound(x[3][l], x[4][l], x[9][l], x[14][l]);
    }
  }
  for (int w = 0; w < 16; w += 2) {
    for (int l = 0; l < kLanes; ++l) {
      const uint64_t lo = x[w][l] + init[w][l];
      const uint64_t hi = x[w + 1][l] + init[w + 1][l];
      words[8 * l + w / 2] = lo | (hi << 32);
    }
  }
}

}  // namespace
}  // namespace dash

#endif  // DASH_UTIL_CHACHA20_BATCH_H_
