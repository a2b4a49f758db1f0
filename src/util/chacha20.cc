#include "util/chacha20.h"

#include "util/chacha20_batch.h"
#include "util/check.h"
#include "util/isa.h"
#include "util/random.h"

namespace dash {

// The portable build of the batch body, and the reference the ISA
// builds must match word for word.
void ChaCha20BatchPortable(const uint32_t* state, uint64_t* words) {
  LaneMajorBatch(state, words);
}

ChaCha20Rng::ChaCha20Rng(const Key& key, uint64_t stream_id) {
  // "expand 32-byte k" constants per RFC 8439.
  state_[0] = 0x61707865u;
  state_[1] = 0x3320646eu;
  state_[2] = 0x79622d32u;
  state_[3] = 0x6b206574u;
  for (int i = 0; i < 8; ++i) {
    state_[4 + i] = static_cast<uint32_t>(key[4 * i]) |
                    static_cast<uint32_t>(key[4 * i + 1]) << 8 |
                    static_cast<uint32_t>(key[4 * i + 2]) << 16 |
                    static_cast<uint32_t>(key[4 * i + 3]) << 24;
  }
  state_[12] = 0;  // block counter
  state_[13] = 0;  // nonce word 0 (reserved)
  state_[14] = static_cast<uint32_t>(stream_id);
  state_[15] = static_cast<uint32_t>(stream_id >> 32);
}

ChaCha20Rng::Key ChaCha20Rng::KeyFromSeed(uint64_t seed) {
  Key key;
  uint64_t sm = seed;
  for (int i = 0; i < 4; ++i) {
    const uint64_t w = SplitMix64(&sm);
    for (int b = 0; b < 8; ++b) {
      key[8 * i + b] = static_cast<uint8_t>(w >> (8 * b));
    }
  }
  return key;
}

void ChaCha20Rng::Refill() {
  std::array<uint32_t, 16> x = state_;
  for (int round = 0; round < 10; ++round) {  // 20 rounds = 10 double rounds
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) block_[i] = x[i] + state_[i];
  state_[12] += 1;
  DASH_CHECK(state_[12] != 0) << "ChaCha20 block counter wrapped";
  next_word_ = 0;
}

uint64_t ChaCha20Rng::NextU64() {
  if (next_word_ >= 16) Refill();
  const uint64_t lo = block_[next_word_];
  const uint64_t hi = block_[next_word_ + 1];
  next_word_ += 2;
  return lo | (hi << 32);
}

// DASH_HAVE_X86_KERNELS is defined by the build exactly when the AVX2 /
// AVX-512 units are compiled in; elsewhere ActiveIsa() is portable.
ChaCha20Rng::BatchFn ChaCha20Rng::ActiveBatch() {
  switch (ActiveIsa()) {
#ifdef DASH_HAVE_X86_KERNELS
    case Isa::kAvx2:
      return ChaCha20BatchAvx2;
    case Isa::kAvx512:
      return ChaCha20BatchAvx512;
#endif
    default:
      return ChaCha20BatchPortable;
  }
}

void ChaCha20Rng::NextBatch(BatchFn batch, uint64_t* words) {
  static_assert(kBatchWords == 8 * kLanes, "a block is 8 words");
  batch(state_.data(), words);
  // The sequential path aborts before handing out a block generated at
  // counter 2^32 - 1; the batch uses counters c .. c + 7, so it aborts
  // exactly when that path would within the same 8 blocks.
  const uint32_t counter = state_[12];
  state_[12] = counter + kLanes;
  DASH_CHECK(state_[12] > counter) << "ChaCha20 block counter wrapped";
}

template <typename Op>
void ChaCha20Rng::Combine(uint64_t* out, size_t n, Op op) {
  size_t i = 0;
  // Finish the buffered block so batches start on a block boundary.
  for (; i < n && next_word_ < 16; ++i) op(out[i], NextU64());
  const BatchFn batch = ActiveBatch();
  uint64_t words[kBatchWords] = {};
  for (; n - i >= kBatchWords; i += kBatchWords) {
    NextBatch(batch, words);
    for (size_t j = 0; j < kBatchWords; ++j) op(out[i + j], words[j]);
  }
  // The tail goes through the one-block path, which keeps the rest of
  // its block buffered for later NextU64 calls.
  for (; i < n; ++i) op(out[i], NextU64());
}

void ChaCha20Rng::AddTo(uint64_t* out, size_t n) {
  Combine(out, n, [](uint64_t& v, uint64_t w) { v += w; });
}

void ChaCha20Rng::SubtractFrom(uint64_t* out, size_t n) {
  Combine(out, n, [](uint64_t& v, uint64_t w) { v -= w; });
}

}  // namespace dash
