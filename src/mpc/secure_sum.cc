#include "mpc/secure_sum.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "mpc/additive_sharing.h"
#include "mpc/key_exchange.h"
#include "mpc/masked_aggregation.h"
#include "net/round_annotations.h"
#include "net/serialization.h"

namespace dash {

const char* AggregationModeName(AggregationMode mode) {
  switch (mode) {
    case AggregationMode::kPublicShare:
      return "public";
    case AggregationMode::kAdditive:
      return "additive";
    case AggregationMode::kMasked:
      return "masked";
  }
  return "unknown";
}

Result<AggregationMode> ParseAggregationMode(const std::string& name) {
  for (const AggregationMode mode :
       {AggregationMode::kPublicShare, AggregationMode::kAdditive,
        AggregationMode::kMasked}) {
    if (name == AggregationModeName(mode)) return mode;
  }
  return InvalidArgumentError("unknown mode '" + name +
                              "' (public|additive|masked)");
}

namespace {

// Party `local`'s randomness: the local-th output of the SplitMix64
// chain over the shared seed. A nonzero mask_domain (the session id of
// a multiplexed job) perturbs the chain's starting point, so concurrent
// sessions with the same protocol seed draw DISJOINT randomness and
// never share a DH exponent or pairwise mask key; domain 0 preserves
// the historical chain bit for bit.
Rng PartyRng(const SecureSumOptions& options, int local) {
  uint64_t seed_state = options.seed;
  if (options.mask_domain != 0) {
    uint64_t domain_state = options.mask_domain;
    seed_state ^= SplitMix64(&domain_state);
  }
  uint64_t seed = SplitMix64(&seed_state);
  for (int i = 0; i < local; ++i) seed = SplitMix64(&seed_state);
  return Rng(seed);
}

// Party `owner`'s chunk of an L-word summand is [ChunkBegin(L, P, owner),
// ChunkBegin(L, P, owner + 1)); with L < P some chunks are empty.
size_t ChunkBegin(size_t length, int parties, int owner) {
  return length * static_cast<size_t>(owner) / static_cast<size_t>(parties);
}

// Parses one reduce message (MaskAndSerialize's chunk form): the
// sender's full length, then its words for our chunk. A length other
// than ours is a desync, caught before anything is added.
Result<RingVector> ReadChunk(const Message& msg, size_t length) {
  ByteReader r(msg.payload);
  DASH_ASSIGN_OR_RETURN(uint64_t peer_length, r.GetU64());
  if (peer_length != length) {
    return FailedPreconditionError(
        "protocol desync: party " + std::to_string(msg.from) +
        " sums a vector of length " + std::to_string(peer_length) +
        ", this party one of length " + std::to_string(length));
  }
  return r.GetU64Vector();
}

}  // namespace

// Secrecy discipline (mpc/secrecy.h, DESIGN.md §11): the party's
// contribution arrives as Secret<Vector> and this class never reads it
// directly — every buffer handed to the transport is produced by a
// blessed reveal point (SerializeShareForHolder, MaskAndSerialize,
// DiffieHellman::PublicValue) except the public-share baseline, whose
// plaintext broadcast is an explicit DASH_DECLASSIFY.
PartySecureVectorSum::PartySecureVectorSum(Transport* transport,
                                           const SecureSumOptions& options)
    : net_(transport),
      local_(transport->local_party()),
      options_(options),
      codec_(options.frac_bits),
      rng_(PartyRng(options, transport->local_party())) {}

Status PartySecureVectorSum::Setup() {
  if (setup_done_) return Status::Ok();
  const int p = net_->num_parties();
  if (options_.mode == AggregationMode::kMasked && p > 1) {
    // Diffie-Hellman: broadcast g^a, then derive one key per peer. One
    // 8-byte message per ordered pair.
    net_->BeginRound();
    const Secret<uint64_t> private_key = DiffieHellman::GeneratePrivate(&rng_);
    ByteWriter w;
    w.PutU64(DiffieHellman::PublicValue(private_key));
    DASH_ROUND(phase0b_keyagree, kPublicKey);
    DASH_RETURN_IF_ERROR(
        net_->Broadcast(local_, MessageTag::kPublicKey, w.Take()));
    pairwise_keys_.assign(static_cast<size_t>(p), Secret<ChaCha20Rng::Key>{});
    for (int q = 0; q < p; ++q) {
      if (q == local_) continue;
      DASH_ROUND(phase0b_keyagree, kPublicKey);
      DASH_ASSIGN_OR_RETURN(Message msg,
                            net_->Receive(local_, q, MessageTag::kPublicKey));
      ByteReader r(msg.payload);
      DASH_ASSIGN_OR_RETURN(uint64_t peer_public, r.GetU64());
      pairwise_keys_[static_cast<size_t>(q)] = DiffieHellman::DeriveKey(
          DiffieHellman::SharedSecret(private_key, peer_public));
    }
  }
  setup_done_ = true;
  return Status::Ok();
}

Result<Vector> PartySecureVectorSum::Run(const Secret<Vector>& input) {
  DASH_RETURN_IF_ERROR(Setup());
  if (net_->num_parties() == 1) {
    return DASH_DECLASSIFY(
        input, "phase2-single: a single party's total IS its own input");
  }
  ++round_nonce_;
  if (options_.mode == AggregationMode::kPublicShare) return RunPublic(input);
  // The secure modes differ only in how this party's sealed vector is
  // made from its encoded contribution.
  net_->BeginRound();
  DASH_ASSIGN_OR_RETURN(Secret<RingVector> encoded,
                        codec_.EncodeSecretVector(input));
  if (options_.mode == AggregationMode::kMasked) {
    // The masks cancel element by element in the sum over all P parties.
    return ReduceScatter(
        ApplyPairwiseMasks(local_, encoded, pairwise_keys_, round_nonce_));
  }
  DASH_ASSIGN_OR_RETURN(const Masked<RingVector> partial,
                        ShareAndAccumulate(encoded));
  return ReduceScatter(partial);
}

Result<Vector> PartySecureVectorSum::RunPublic(
    const Secret<Vector>& secret_input) {
  const int p = net_->num_parties();
  // The public-share baseline deliberately reveals every summand; this
  // is the protocol's documented insecure mode, not a leak.
  const Vector input = DASH_DECLASSIFY(
      secret_input, "phase2-public: baseline broadcasts plaintext summands");
  net_->BeginRound();
  ByteWriter w;
  w.PutDoubleVector(input);
  DASH_ROUND(phase2_public, kPlainStats);
  DASH_RETURN_IF_ERROR(
      net_->Broadcast(local_, MessageTag::kPlainStats, w.Take()));
  // Sum in ascending party order — float addition is order-sensitive,
  // so every party must reduce 0, 1, ..., P-1.
  Vector total;
  for (int q = 0; q < p; ++q) {
    Vector v;
    if (q == local_) {
      v = input;
    } else {
      DASH_ROUND(phase2_public, kPlainStats);
      DASH_ASSIGN_OR_RETURN(
          Message msg, net_->Receive(local_, q, MessageTag::kPlainStats));
      ByteReader r(msg.payload);
      DASH_ASSIGN_OR_RETURN(v, r.GetDoubleVector());
    }
    if (q == 0) {
      total = std::move(v);
    } else {
      if (v.size() != total.size()) {
        return FailedPreconditionError(
            "protocol desync: public-share vector length mismatch");
      }
      for (size_t e = 0; e < total.size(); ++e) total[e] += v[e];
    }
  }
  return total;
}

Result<Vector> PartySecureVectorSum::GatherTotal(const RingVector& own_chunk,
                                                 size_t length) {
  const int p = net_->num_parties();
  // All-gather: every owner sends its opened chunk to every peer, and
  // each party places the P chunks side by side and decodes the total
  // with its own codec — a party configured differently from its peers
  // reveals a different result, which the commit round catches.
  net_->BeginRound();
  ByteWriter w;
  w.PutU64Vector(own_chunk);
  DASH_ROUND(phase2_gather, kTotalChunk);
  DASH_RETURN_IF_ERROR(
      net_->Broadcast(local_, MessageTag::kTotalChunk, w.Take()));
  RingVector total(length);
  std::copy(own_chunk.begin(), own_chunk.end(),
            total.begin() + static_cast<std::ptrdiff_t>(
                                ChunkBegin(length, p, local_)));
  for (int q = 0; q < p; ++q) {
    if (q == local_) continue;
    DASH_ROUND(phase2_gather, kTotalChunk);
    DASH_ASSIGN_OR_RETURN(Message msg,
                          net_->Receive(local_, q, MessageTag::kTotalChunk));
    const size_t begin = ChunkBegin(length, p, q);
    const size_t size = ChunkBegin(length, p, q + 1) - begin;
    ByteReader r(msg.payload);
    DASH_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
    if (n != size) {
      return FailedPreconditionError(
          "protocol desync: party " + std::to_string(q) + " opened " +
          std::to_string(n) + " words of its " + std::to_string(size) +
          "-word chunk");
    }
    DASH_RETURN_IF_ERROR(r.GetWords(total.data() + begin, size));
  }
  return codec_.DecodeVector(total);
}

Result<Masked<RingVector>> PartySecureVectorSum::ShareAndAccumulate(
    const Secret<RingVector>& encoded) {
  const int p = net_->num_parties();
  // Keep our own share and send share j to party j (one share per
  // holder — the sanctioned SerializeShareForHolder reveal point).
  auto shares = AdditiveShareVector(encoded, p, &rng_);
  const Secret<RingVector> own = std::move(shares[static_cast<size_t>(local_)]);
  for (int j = 0; j < p; ++j) {
    if (j == local_) continue;
    DASH_ROUND(phase2_additive_share, kAdditiveShare);
    DASH_RETURN_IF_ERROR(
        net_->Send(local_, j, MessageTag::kAdditiveShare,
                   SerializeShareForHolder(shares[static_cast<size_t>(j)])));
  }

  // The sum of the shares we hold is individually uniform, hence
  // Masked; all P partials add up to the total.
  net_->BeginRound();
  std::vector<RingVector> received;
  received.reserve(static_cast<size_t>(p - 1));
  for (int i = 0; i < p; ++i) {
    if (i == local_) continue;
    DASH_ROUND(phase2_additive_share, kAdditiveShare);
    DASH_ASSIGN_OR_RETURN(
        Message msg, net_->Receive(local_, i, MessageTag::kAdditiveShare));
    ByteReader r(msg.payload);
    DASH_ASSIGN_OR_RETURN(RingVector share, r.GetU64Vector());
    received.push_back(std::move(share));
  }
  return AccumulateAdditiveShares(own, received);
}

Result<Vector> PartySecureVectorSum::ReduceScatter(
    const Masked<RingVector>& sealed) {
  const int p = net_->num_parties();
  const size_t length = sealed.wire().size();
  for (int o = 0; o < p; ++o) {
    if (o == local_) continue;
    DASH_ROUND(phase2_masked, kMaskedValue);
    DASH_RETURN_IF_ERROR(net_->Send(
        local_, o, MessageTag::kMaskedValue,
        MaskAndSerialize(sealed, ChunkBegin(length, p, o),
                         ChunkBegin(length, p, o + 1))));
  }
  std::vector<RingVector> peers;
  peers.reserve(static_cast<size_t>(p - 1));
  for (int q = 0; q < p; ++q) {
    if (q == local_) continue;
    DASH_ROUND(phase2_masked, kMaskedValue);
    DASH_ASSIGN_OR_RETURN(Message msg,
                          net_->Receive(local_, q, MessageTag::kMaskedValue));
    DASH_ASSIGN_OR_RETURN(RingVector chunk, ReadChunk(msg, length));
    peers.push_back(std::move(chunk));
  }
  DASH_ASSIGN_OR_RETURN(
      RingVector own_total,
      OpenMaskedChunk(sealed, ChunkBegin(length, p, local_),
                      ChunkBegin(length, p, local_ + 1), peers));
  return GatherTotal(own_total, length);
}

}  // namespace dash
