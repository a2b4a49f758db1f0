#include "mpc/secure_sum.h"

#include <string>
#include <utility>

#include "mpc/additive_sharing.h"
#include "mpc/key_exchange.h"
#include "mpc/masked_aggregation.h"
#include "mpc/shamir.h"
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
    case AggregationMode::kShamir:
      return "shamir";
  }
  return "unknown";
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
  switch (options_.mode) {
    case AggregationMode::kPublicShare:
      return RunPublic(input);
    case AggregationMode::kAdditive:
      return RunAdditive(input);
    case AggregationMode::kMasked:
      return RunMasked(input);
    case AggregationMode::kShamir:
      return RunShamir(input);
  }
  return InternalError("unknown aggregation mode");
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

Result<Vector> PartySecureVectorSum::RunAdditive(const Secret<Vector>& input) {
  const int p = net_->num_parties();

  // Round 1: keep our own share, send share j to party j (one share per
  // holder — the sanctioned SerializeShareForHolder reveal point).
  net_->BeginRound();
  DASH_ASSIGN_OR_RETURN(Secret<RingVector> encoded,
                        codec_.EncodeSecretVector(input));
  auto shares = AdditiveShareVector(encoded, p, &rng_);
  const Secret<RingVector> own = std::move(shares[static_cast<size_t>(local_)]);
  for (int j = 0; j < p; ++j) {
    if (j == local_) continue;
    DASH_ROUND(phase2_additive_share, kAdditiveShare);
    DASH_RETURN_IF_ERROR(
        net_->Send(local_, j, MessageTag::kAdditiveShare,
                   SerializeShareForHolder(shares[static_cast<size_t>(j)])));
  }

  // Round 2: sum the shares we hold and broadcast the partial; partials
  // are uniformly random individually (hence Masked), and all of them
  // open the total.
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
  DASH_ASSIGN_OR_RETURN(Masked<RingVector> partial,
                        AccumulateAdditiveShares(own, received));
  DASH_ROUND(phase2_additive_reveal, kPartialSum);
  DASH_RETURN_IF_ERROR(net_->Broadcast(local_, MessageTag::kPartialSum,
                                       MaskAndSerialize(partial)));

  std::vector<RingVector> peer_partials;
  peer_partials.reserve(static_cast<size_t>(p - 1));
  for (int q = 0; q < p; ++q) {
    if (q == local_) continue;
    DASH_ROUND(phase2_additive_reveal, kPartialSum);
    DASH_ASSIGN_OR_RETURN(Message msg,
                          net_->Receive(local_, q, MessageTag::kPartialSum));
    ByteReader r(msg.payload);
    DASH_ASSIGN_OR_RETURN(RingVector peer, r.GetU64Vector());
    peer_partials.push_back(std::move(peer));
  }
  return OpenAdditiveTotal(partial, peer_partials, codec_);
}

Result<Vector> PartySecureVectorSum::RunMasked(const Secret<Vector>& input) {
  const int p = net_->num_parties();

  // One round: broadcast our masked contribution; the masks cancel in
  // the sum over all P masked vectors, our own included.
  net_->BeginRound();
  DASH_ASSIGN_OR_RETURN(Secret<RingVector> encoded,
                        codec_.EncodeSecretVector(input));
  const Masked<RingVector> masked =
      ApplyPairwiseMasks(local_, encoded, pairwise_keys_, round_nonce_);
  DASH_ROUND(phase2_masked, kMaskedValue);
  DASH_RETURN_IF_ERROR(net_->Broadcast(local_, MessageTag::kMaskedValue,
                                       MaskAndSerialize(masked)));

  std::vector<RingVector> peers;
  peers.reserve(static_cast<size_t>(p - 1));
  for (int q = 0; q < p; ++q) {
    if (q == local_) continue;
    DASH_ROUND(phase2_masked, kMaskedValue);
    DASH_ASSIGN_OR_RETURN(Message msg,
                          net_->Receive(local_, q, MessageTag::kMaskedValue));
    ByteReader r(msg.payload);
    DASH_ASSIGN_OR_RETURN(RingVector peer, r.GetU64Vector());
    peers.push_back(std::move(peer));
  }
  return OpenMaskedTotal(masked, peers, codec_);
}

Result<Vector> PartySecureVectorSum::RunShamir(const Secret<Vector>& input) {
  const int p = net_->num_parties();
  const int threshold = (options_.shamir_threshold >= 0)
                            ? options_.shamir_threshold
                            : (p - 1) / 2;
  if (threshold >= p) {
    return InvalidArgumentError("Shamir threshold must be < num parties");
  }
  // Field-encodes AND validates headroom — deliberately before
  // BeginRound so validation failures precede any traffic.
  DASH_ASSIGN_OR_RETURN(Secret<RingVector> encoded,
                        ShamirFieldEncode(codec_, input, p));

  // Round 1: distribute shares of our input (party j gets the
  // evaluation at x = j+1); keep our own.
  net_->BeginRound();
  DASH_ASSIGN_OR_RETURN(
      auto shares, ShamirShareVectorForParties(encoded, p, threshold, &rng_));
  const Secret<RingVector> own = std::move(shares[static_cast<size_t>(local_)]);
  for (int j = 0; j < p; ++j) {
    if (j == local_) continue;
    DASH_ROUND(phase2_shamir_share, kShamirShare);
    DASH_RETURN_IF_ERROR(
        net_->Send(local_, j, MessageTag::kShamirShare,
                   SerializeShareForHolder(shares[static_cast<size_t>(j)])));
  }

  // Round 2: sum the shares we hold (a share of the total by linearity —
  // individually uniform, hence Masked) and exchange the sum shares.
  net_->BeginRound();
  std::vector<RingVector> received;
  received.reserve(static_cast<size_t>(p - 1));
  for (int i = 0; i < p; ++i) {
    if (i == local_) continue;
    DASH_ROUND(phase2_shamir_share, kShamirShare);
    DASH_ASSIGN_OR_RETURN(Message msg,
                          net_->Receive(local_, i, MessageTag::kShamirShare));
    ByteReader r(msg.payload);
    DASH_ASSIGN_OR_RETURN(RingVector ys, r.GetU64Vector());
    received.push_back(std::move(ys));
  }
  DASH_ASSIGN_OR_RETURN(Masked<RingVector> held,
                        AccumulateShamirShares(own, received));
  const std::vector<uint8_t> payload = MaskAndSerialize(held);
  for (int to = 0; to < p; ++to) {
    if (to == local_) continue;
    DASH_ROUND(phase2_shamir_reveal, kPartialSum);
    DASH_RETURN_IF_ERROR(
        net_->Send(local_, to, MessageTag::kPartialSum, payload));
  }

  // Reconstruct at x = 0 from all P sum shares (our own slot comes from
  // `held`; the vector's local slot stays empty).
  std::vector<RingVector> sum_shares(static_cast<size_t>(p));
  for (int q = 0; q < p; ++q) {
    if (q == local_) continue;
    DASH_ROUND(phase2_shamir_reveal, kPartialSum);
    DASH_ASSIGN_OR_RETURN(Message msg,
                          net_->Receive(local_, q, MessageTag::kPartialSum));
    ByteReader r(msg.payload);
    DASH_ASSIGN_OR_RETURN(sum_shares[static_cast<size_t>(q)],
                          r.GetU64Vector());
  }
  return OpenShamirTotal(held, local_, sum_shares, codec_);
}

}  // namespace dash
