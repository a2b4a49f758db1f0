#include "util/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/chacha20.h"
#include "util/isa.h"

namespace dash {
namespace {

TEST(SplitMix64Test, KnownSequence) {
  // Reference values for seed 0 (standard SplitMix64).
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(&state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(&state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(SplitMix64(&state), 0x06c45d188009454fULL);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(7), 7u);
  }
  EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  bool seen[5] = {false, false, false, false, false};
  for (int i = 0; i < 1000; ++i) seen[rng.UniformInt(5)] = true;
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsScales) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic) {
  Rng a(21);
  Rng b(21);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fa.NextU64(), fb.NextU64());
}

TEST(ChaCha20Test, DeterministicPerKeyAndStream) {
  const auto key = ChaCha20Rng::KeyFromSeed(42);
  ChaCha20Rng a(key, 5);
  ChaCha20Rng b(key, 5);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(ChaCha20Test, DifferentStreamsDiffer) {
  const auto key = ChaCha20Rng::KeyFromSeed(42);
  ChaCha20Rng a(key, 1);
  ChaCha20Rng b(key, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LE(same, 1);
}

TEST(ChaCha20Test, DifferentKeysDiffer) {
  ChaCha20Rng a(ChaCha20Rng::KeyFromSeed(1), 0);
  ChaCha20Rng b(ChaCha20Rng::KeyFromSeed(2), 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LE(same, 1);
}

TEST(ChaCha20Test, OutputLooksUniform) {
  ChaCha20Rng rng(ChaCha20Rng::KeyFromSeed(99), 0);
  const int n = 100000;
  int ones = 0;
  for (int i = 0; i < n; ++i) ones += __builtin_popcountll(rng.NextU64());
  // 64n/2 expected one-bits, ~0.1% tolerance.
  EXPECT_NEAR(static_cast<double>(ones) / (64.0 * n), 0.5, 0.002);
}

// RFC 8439 keystream bytes (hex) as the NextU64 words that carry them:
// each word is 8 keystream bytes, little-endian.
std::vector<uint64_t> KeystreamWords(const std::string& hex) {
  std::vector<uint64_t> words(hex.size() / 16, 0);
  for (size_t i = 0; i < hex.size() / 2; ++i) {
    const uint64_t byte = std::stoul(hex.substr(2 * i, 2), nullptr, 16);
    words[i / 8] |= byte << (8 * (i % 8));
  }
  return words;
}

struct Rfc8439Vector {
  const char* name;
  uint8_t last_key_byte;  // the key is zero except for its byte 31
  uint64_t stream_id;     // nonce bytes 4..11, little-endian
  int counter;            // the block the keystream comes from
  const char* keystream;
};

// RFC 8439 Appendix A.1 (ChaCha20 block function), test vectors 1, 2, 3
// and 5.
const Rfc8439Vector kRfc8439Vectors[] = {
    {"#1", 0, 0, 0,
     "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
     "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"},
    {"#2", 0, 0, 1,
     "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
     "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"},
    {"#3", 1, 0, 1,
     "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a"
     "8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0"},
    {"#5", 0, 0x0200000000000000ull, 0,
     "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7"
     "8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d"},
};

TEST(ChaCha20Test, MatchesRfc8439KnownAnswers) {
  for (const Rfc8439Vector& v : kRfc8439Vectors) {
    SCOPED_TRACE(v.name);
    ChaCha20Rng::Key key{};
    key[31] = v.last_key_byte;
    const std::vector<uint64_t> want = KeystreamWords(v.keystream);
    ASSERT_EQ(want.size(), 8u);
    const size_t first = 8 * static_cast<size_t>(v.counter);

    // One block at a time: skip `counter` blocks, then read one.
    ChaCha20Rng one(key, v.stream_id);
    for (size_t i = 0; i < first; ++i) one.NextU64();
    for (size_t i = 0; i < 8; ++i) EXPECT_EQ(one.NextU64(), want[i]) << i;

    // Batched: the vector's block lies inside the first 8-block batch.
    ChaCha20Rng added(key, v.stream_id);
    std::vector<uint64_t> sum(64, 0);
    added.AddTo(sum.data(), sum.size());
    ChaCha20Rng subtracted(key, v.stream_id);
    std::vector<uint64_t> diff(64, 0);
    subtracted.SubtractFrom(diff.data(), diff.size());
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(sum[first + i], want[i]) << i;
      EXPECT_EQ(diff[first + i], 0 - want[i]) << i;
    }
  }
}

// The one-block NextU64 path is the reference for every ISA's batch
// body, each pinned in-process; n runs past four 64-word batches, so
// several batches, partial blocks and the tail all run.
TEST(ChaCha20Test, AddToAndSubtractFromFollowNextU64) {
  const auto key = ChaCha20Rng::KeyFromSeed(7);
  for (const Isa isa : AvailableIsas()) {
    ScopedIsaForTesting pin(isa);
    for (size_t skip = 0; skip < 16; ++skip) {
      for (size_t n = 0; n <= 300; ++n) {
        SCOPED_TRACE(std::string(IsaName(isa)) + ", skip " +
                     std::to_string(skip) + ", n " + std::to_string(n));
        ChaCha20Rng ref(key, 3);
        ChaCha20Rng add(key, 3);
        ChaCha20Rng sub(key, 3);
        for (size_t i = 0; i < skip; ++i) {
          ref.NextU64();
          add.NextU64();
          sub.NextU64();
        }
        std::vector<uint64_t> base(n);
        for (size_t i = 0; i < n; ++i) {
          base[i] = 0x9E3779B97F4A7C15ull * (i + 1);
        }
        std::vector<uint64_t> sum = base;
        std::vector<uint64_t> diff = base;
        add.AddTo(sum.data(), n);
        sub.SubtractFrom(diff.data(), n);
        for (size_t i = 0; i < n; ++i) {
          const uint64_t w = ref.NextU64();
          ASSERT_EQ(sum[i], base[i] + w) << i;
          ASSERT_EQ(diff[i], base[i] - w) << i;
        }
        // Both stand where n NextU64 calls would have left them.
        for (int i = 0; i < 20; ++i) {
          const uint64_t w = ref.NextU64();
          ASSERT_EQ(add.NextU64(), w);
          ASSERT_EQ(sub.NextU64(), w);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dash
