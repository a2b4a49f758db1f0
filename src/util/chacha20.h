// ChaCha20 stream cipher (RFC 8439 block function) used as a
// cryptographic PRG for pairwise masks in the secure-sum protocols.
//
// Two parties that share a 32-byte key derive identical mask streams, so
// masks added by one party and subtracted by the other cancel exactly in
// an aggregate. Key agreement is provided by mpc/key_exchange.h.

#ifndef DASH_UTIL_CHACHA20_H_
#define DASH_UTIL_CHACHA20_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace dash {

// Deterministic cryptographic pseudo-random stream from a 256-bit key and
// 64-bit stream id (mapped into the ChaCha20 nonce).
class ChaCha20Rng {
 public:
  using Key = std::array<uint8_t, 32>;

  ChaCha20Rng(const Key& key, uint64_t stream_id);

  // Derives a Key from a 64-bit seed (for tests and simulations where a
  // full key-exchange is not under test).
  static Key KeyFromSeed(uint64_t seed);

  // Next 64 pseudo-random bits of the keystream.
  uint64_t NextU64();

  // out[i] += NextU64() (resp. -=) for i in [0, n), wrapping mod 2^64:
  // the same words in the same order as n NextU64 calls, but whole runs
  // of 8 blocks are generated together by the lane-major batch body
  // (util/chacha20_batch.h) built for the process ISA (util/isa.h), so
  // the eight blocks share the vector registers. Every ISA's body yields
  // the same words. Afterwards the generator stands where n NextU64
  // calls would have left it.
  void AddTo(uint64_t* out, size_t n);
  void SubtractFrom(uint64_t* out, size_t n);

 private:
  // Words of one 8-block batch, in NextU64 order.
  static constexpr size_t kBatchWords = 64;
  // One build of the batch body: 8 blocks from a 16-word state.
  using BatchFn = void (*)(const uint32_t* state, uint64_t* words);

  // The build ActiveIsa() selects.
  static BatchFn ActiveBatch();
  void Refill();
  // Fills `words` with the next 8 blocks through `batch` and advances
  // the counter by 8.
  void NextBatch(BatchFn batch, uint64_t* words);
  template <typename Op>
  void Combine(uint64_t* out, size_t n, Op op);

  std::array<uint32_t, 16> state_;
  std::array<uint32_t, 16> block_;
  int next_word_ = 16;  // forces Refill on first use
};

}  // namespace dash

#endif  // DASH_UTIL_CHACHA20_H_
