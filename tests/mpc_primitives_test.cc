// Fixed point, prime field, additive sharing, DH, masking.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "mpc/additive_sharing.h"
#include "mpc/fixed_point.h"
#include "mpc/key_exchange.h"
#include "mpc/masked_aggregation.h"
#include "mpc/prime_field.h"
#include "util/isa.h"
#include "util/random.h"

namespace dash {
namespace {

TEST(FixedPointTest, RoundTripsWithinResolution) {
  const FixedPointCodec codec(40);
  for (const double v : {0.0, 1.0, -1.0, 3.141592653589793, -1234.5678,
                         1e-9, -1e-9, 8.0e6, -8.0e6}) {
    EXPECT_NEAR(codec.Decode(codec.Encode(v)), v, codec.Resolution());
  }
}

TEST(FixedPointTest, ResolutionAndHeadroom) {
  const FixedPointCodec codec(40);
  EXPECT_DOUBLE_EQ(codec.Resolution(), std::ldexp(1.0, -40));
  EXPECT_DOUBLE_EQ(codec.MaxMagnitude(), std::ldexp(1.0, 23));
  const FixedPointCodec coarse(16);
  EXPECT_DOUBLE_EQ(coarse.MaxMagnitude(), std::ldexp(1.0, 47));
}

TEST(FixedPointTest, RingAdditionMatchesRealAddition) {
  const FixedPointCodec codec(32);
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const double a = rng.Uniform(-1000.0, 1000.0);
    const double b = rng.Uniform(-1000.0, 1000.0);
    const uint64_t ra = codec.Encode(a);
    const uint64_t rb = codec.Encode(b);
    EXPECT_NEAR(codec.Decode(RingAdd(ra, rb)), a + b, 2 * codec.Resolution());
    EXPECT_NEAR(codec.Decode(RingSub(ra, rb)), a - b, 2 * codec.Resolution());
  }
}

TEST(FixedPointTest, OutOfRangeAndNonFiniteRejected) {
  const FixedPointCodec codec(40);
  EXPECT_EQ(codec.TryEncode(1e10).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(codec.TryEncode(std::nan("")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(codec.TryEncode(std::numeric_limits<double>::infinity()).ok());
}

TEST(FixedPointTest, VectorRoundTrip) {
  const FixedPointCodec codec(30);
  const Vector v = {1.5, -2.25, 0.0, 100.125};
  const auto encoded = codec.EncodeVector(v).value();
  const Vector back = codec.DecodeVector(encoded);
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(back[i], v[i], codec.Resolution());
  }
  EXPECT_FALSE(codec.EncodeVector({1e30}).ok());
}

// EncodeVector's range pass and truncate-and-adjust rounding give what
// TryEncode's llround gives, at every boundary of both.
TEST(FixedPointTest, EncodeVectorMatchesTryEncode) {
  for (const int frac_bits : {1, 16, 40, 62}) {
    SCOPED_TRACE("frac_bits " + std::to_string(frac_bits));
    const FixedPointCodec codec(frac_bits);
    const double step = codec.Resolution();  // 2^-frac_bits
    const double max = codec.MaxMagnitude();  // 2^63 · step
    Vector values;
    const auto both_signs = [&](double v) {
      values.push_back(v);
      values.push_back(-v);
    };
    // Exact halves, which llround rounds away from zero.
    for (const double k : {0.0, 1.0, 2.0, 3.0, 1000.0, 0x1p51}) {
      both_signs((k + 0.5) * step);
    }
    both_signs(0.49999999999999994 * step);  // the double below 1/2
    // Around 2^52, where the last halves are representable.
    for (const double m : {0x1p52 - 1.5, 0x1p52 - 0.5, 0x1p52 - 1.0, 0x1p52,
                           0x1p52 + 1.0}) {
      both_signs(m * step);
    }
    // Next to ±2^63 · step, the ends of the int64 range.
    both_signs(std::nextafter(max, 0.0));
    values.push_back(-max);
    both_signs(max * (1.0 - 1e-12));
    Rng rng(static_cast<uint64_t>(frac_bits));
    for (int i = 0; i < 2000; ++i) {
      values.push_back(rng.Uniform(-1.0, 1.0) * std::ldexp(max, -(i % 64)));
    }
    const Result<RingVector> encoded = codec.EncodeVector(values);
    ASSERT_TRUE(encoded.ok()) << encoded.status();
    ASSERT_EQ(encoded.value().size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(encoded.value()[i], codec.TryEncode(values[i]).value())
          << "value " << values[i];
    }
  }
}

// A NaN, ±inf or out-of-range value first, in the middle or last fails
// EncodeVector with the code and message TryEncode gives that value; with
// two offenders, the first one's.
TEST(FixedPointTest, EncodeVectorReportsTheFirstOffenderLikeTryEncode) {
  const FixedPointCodec codec(40);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf, codec.MaxMagnitude(),
                           -2.0 * codec.MaxMagnitude(), 1e300}) {
    const Status want = codec.TryEncode(bad).status();
    ASSERT_FALSE(want.ok());
    for (const size_t at : {size_t{0}, size_t{4}, size_t{8}}) {
      Vector values(9, 1.25);
      values[at] = bad;
      const Status got = codec.EncodeVector(values).status();
      EXPECT_EQ(got.code(), want.code()) << bad << " at " << at;
      EXPECT_EQ(got.message(), want.message()) << bad << " at " << at;
    }
  }
  Vector values(9, 1.25);
  values[3] = 1e30;
  values[6] = std::nan("");
  EXPECT_EQ(codec.EncodeVector(values).status().message(),
            codec.TryEncode(1e30).status().message());
}

TEST(PrimeFieldTest, BasicIdentities) {
  EXPECT_EQ(FieldMul(2, 3), 6u);
  EXPECT_EQ(FieldReduce(kFieldPrime), 0u);
  EXPECT_EQ(FieldReduce(kFieldPrime + 5), 5u);
}

TEST(PrimeFieldTest, MulMatchesBigIntegerReference) {
  Rng rng(2);
  for (int trial = 0; trial < 1000; ++trial) {
    const uint64_t a = FieldUniform(&rng);
    const uint64_t b = FieldUniform(&rng);
    const unsigned __int128 ref =
        static_cast<unsigned __int128>(a) * b % kFieldPrime;
    EXPECT_EQ(FieldMul(a, b), static_cast<uint64_t>(ref));
  }
}

TEST(PrimeFieldTest, FermatInverse) {
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const uint64_t a = FieldUniform(&rng);
    if (a == 0) continue;
    EXPECT_EQ(FieldMul(a, FieldPow(a, kFieldPrime - 2)), 1u);
  }
  EXPECT_EQ(FieldPow(5, 0), 1u);
  EXPECT_EQ(FieldPow(5, 1), 5u);
}

TEST(PrimeFieldTest, MersenneStructure) {
  // 2^61 ≡ 1 (mod 2^61 - 1).
  EXPECT_EQ(FieldPow(2, 61), 1u);
}

TEST(AdditiveSharingTest, SharesReconstruct) {
  Rng rng(4);
  for (const int n : {1, 2, 3, 8}) {
    for (int trial = 0; trial < 50; ++trial) {
      const RingVector secret = {rng.NextU64()};
      const auto shares =
          AdditiveShareVector(Secret<RingVector>(secret), n, &rng);
      EXPECT_EQ(static_cast<int>(shares.size()), n);
      EXPECT_EQ(AdditiveReconstructVector(shares).value(), secret);
    }
  }
}

TEST(AdditiveSharingTest, PartialSharesLookUniform) {
  // With the secret fixed, individual shares should still cover the
  // space: collect the top bit of share 1 across many sharings.
  Rng rng(5);
  int ones = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    const auto shares =
        AdditiveShareVector(Secret<RingVector>(RingVector{42}), 3, &rng);
    const RingVector share1 =
        DASH_DECLASSIFY(shares[1], "test inspects one share's top bit");
    ones += static_cast<int>((share1[0] >> 63) & 1);
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.05);
}

TEST(AdditiveSharingTest, VectorSharesReconstruct) {
  Rng rng(6);
  const std::vector<uint64_t> secrets = {1, 2, 3, 0xffffffffffffffffULL};
  const auto shares =
      AdditiveShareVector(Secret<RingVector>(secrets), 4, &rng);
  EXPECT_EQ(shares.size(), 4u);
  EXPECT_EQ(AdditiveReconstructVector(shares).value(), secrets);
  EXPECT_FALSE(AdditiveReconstructVector({}).ok());
  EXPECT_FALSE(AdditiveReconstructVector(
                   {Secret<RingVector>(RingVector{1, 2}),
                    Secret<RingVector>(RingVector{1})})
                   .ok());
}

TEST(DiffieHellmanTest, SharedSecretsAgree) {
  Rng rng(13);
  const Secret<uint64_t> a = DiffieHellman::GeneratePrivate(&rng);
  const Secret<uint64_t> b = DiffieHellman::GeneratePrivate(&rng);
  const uint64_t pub_a = DiffieHellman::PublicValue(a);
  const uint64_t pub_b = DiffieHellman::PublicValue(b);
  const uint64_t shared_ab =
      DASH_DECLASSIFY(DiffieHellman::SharedSecret(a, pub_b),
                      "test compares both parties' shared secrets");
  const uint64_t shared_ba =
      DASH_DECLASSIFY(DiffieHellman::SharedSecret(b, pub_a),
                      "test compares both parties' shared secrets");
  EXPECT_EQ(shared_ab, shared_ba);
  const auto key_ab =
      DASH_DECLASSIFY(DiffieHellman::DeriveKey(DiffieHellman::SharedSecret(
                          a, pub_b)),
                      "test compares derived mask keys");
  const auto key_ba =
      DASH_DECLASSIFY(DiffieHellman::DeriveKey(DiffieHellman::SharedSecret(
                          b, pub_a)),
                      "test compares derived mask keys");
  EXPECT_EQ(key_ab, key_ba);
  // A third party's secret differs.
  const Secret<uint64_t> c = DiffieHellman::GeneratePrivate(&rng);
  EXPECT_NE(DASH_DECLASSIFY(DiffieHellman::SharedSecret(c, pub_b),
                            "test checks a third party's secret differs"),
            shared_ab);
}

// keys[i][j] == keys[j][i]: one key per pair of parties.
std::vector<std::vector<Secret<ChaCha20Rng::Key>>> SymmetricPairwiseKeys(
    int p, uint64_t seed) {
  std::vector<std::vector<Secret<ChaCha20Rng::Key>>> keys(
      p, std::vector<Secret<ChaCha20Rng::Key>>(p));
  for (int i = 0; i < p; ++i) {
    for (int j = i + 1; j < p; ++j) {
      const auto key = ChaCha20Rng::KeyFromSeed(SplitMix64(&seed));
      keys[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          Secret<ChaCha20Rng::Key>(key);
      keys[static_cast<size_t>(j)][static_cast<size_t>(i)] =
          Secret<ChaCha20Rng::Key>(key);
    }
  }
  return keys;
}

TEST(MaskedAggregationTest, MasksCancelInTheSum) {
  const int p = 4;
  const size_t len = 16;
  const auto keys = SymmetricPairwiseKeys(p, 77);
  Rng rng(14);
  std::vector<std::vector<uint64_t>> inputs(p, std::vector<uint64_t>(len));
  std::vector<uint64_t> expected(len, 0);
  for (int i = 0; i < p; ++i) {
    for (size_t e = 0; e < len; ++e) {
      inputs[static_cast<size_t>(i)][e] = rng.NextU64();
      expected[e] += inputs[static_cast<size_t>(i)][e];
    }
  }
  std::vector<uint64_t> total(len, 0);
  for (int i = 0; i < p; ++i) {
    const auto masked = ApplyPairwiseMasks(
        i, Secret<RingVector>(inputs[static_cast<size_t>(i)]),
        keys[static_cast<size_t>(i)], 3);
    // Masked vectors differ from the raw inputs (the point of masking);
    // the sealed wire view is the broadcastable representation.
    EXPECT_NE(masked.wire(), inputs[static_cast<size_t>(i)]);
    for (size_t e = 0; e < len; ++e) total[e] += masked.wire()[e];
  }
  EXPECT_EQ(total, expected);
}

// Every ISA's ChaCha20 batch body masks to the same words: 10,007 words
// are 156 full batches and a partial block, and at P = 3 every party
// both adds and subtracts (or subtracts twice).
TEST(MaskedAggregationTest, MaskedWordsIdenticalUnderEveryIsa) {
  const int p = 3;
  const size_t len = 10007;
  const auto keys = SymmetricPairwiseKeys(p, 91);
  Rng rng(15);
  std::vector<RingVector> inputs(p, RingVector(len));
  for (RingVector& input : inputs) {
    for (uint64_t& word : input) word = rng.NextU64();
  }
  std::vector<std::vector<RingVector>> masked_by_isa;
  for (const Isa isa : AvailableIsas()) {
    ScopedIsaForTesting pin(isa);
    std::vector<RingVector>& masked = masked_by_isa.emplace_back();
    for (int i = 0; i < p; ++i) {
      masked.push_back(ApplyPairwiseMasks(
                           i, Secret<RingVector>(inputs[static_cast<size_t>(i)]),
                           keys[static_cast<size_t>(i)], 5)
                           .wire());
    }
  }
  const std::vector<Isa> isas = AvailableIsas();
  for (size_t k = 1; k < isas.size(); ++k) {
    for (size_t i = 0; i < static_cast<size_t>(p); ++i) {
      EXPECT_EQ(masked_by_isa[k][i], masked_by_isa[0][i])
          << IsaName(isas[k]) << " vs portable, party " << i;
    }
  }
}

TEST(MaskedAggregationTest, DifferentNoncesProduceDifferentMasks) {
  std::vector<Secret<ChaCha20Rng::Key>> keys(2);
  keys[1] = Secret<ChaCha20Rng::Key>(ChaCha20Rng::KeyFromSeed(5));
  const std::vector<uint64_t> zero(8, 0);
  const auto round1 = ApplyPairwiseMasks(0, Secret<RingVector>(zero), keys, 1);
  const auto round2 = ApplyPairwiseMasks(0, Secret<RingVector>(zero), keys, 2);
  EXPECT_NE(round1.wire(), round2.wire());
}

}  // namespace
}  // namespace dash
