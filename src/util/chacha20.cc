#include "util/chacha20.h"

#include "util/check.h"
#include "util/random.h"

namespace dash {
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
using LaneState = std::array<std::array<uint32_t, kLanes>, 16>;

}  // namespace

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

void ChaCha20Rng::NextBatch(uint64_t* words) {
  static_assert(kBatchWords == 8 * kLanes, "a block is 8 words");
  LaneState init{};
  for (int w = 0; w < 16; ++w) init[w].fill(state_[w]);
  for (int l = 0; l < kLanes; ++l) init[12][l] += static_cast<uint32_t>(l);
  // The sequential path aborts before handing out a block generated at
  // counter 2^32 - 1; the batch uses counters c .. c + 7, so it aborts
  // exactly when that path would within the same 8 blocks.
  const uint32_t counter = state_[12];
  state_[12] = counter + kLanes;
  DASH_CHECK(state_[12] > counter) << "ChaCha20 block counter wrapped";

  LaneState x = init;
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

template <typename Op>
void ChaCha20Rng::Combine(uint64_t* out, size_t n, Op op) {
  size_t i = 0;
  // Finish the buffered block so batches start on a block boundary.
  for (; i < n && next_word_ < 16; ++i) op(out[i], NextU64());
  uint64_t words[kBatchWords] = {};
  for (; n - i >= kBatchWords; i += kBatchWords) {
    NextBatch(words);
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
