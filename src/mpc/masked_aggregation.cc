#include "mpc/masked_aggregation.h"

#include <cstddef>
#include <utility>

#include "util/check.h"

namespace dash {

Masked<RingVector> ApplyPairwiseMasks(
    int party_index, const Secret<RingVector>& values,
    const std::vector<Secret<ChaCha20Rng::Key>>& pairwise_keys,
    uint64_t round_nonce) {
  const int num_parties = static_cast<int>(pairwise_keys.size());
  DASH_CHECK(0 <= party_index && party_index < num_parties);
  RingVector out = values.Reveal(MpcPass::Get());
  for (int q = 0; q < num_parties; ++q) {
    if (q == party_index) continue;
    // Both endpoints derive the same stream from the shared key and the
    // round nonce; the lower-indexed party adds, the higher subtracts.
    ChaCha20Rng prg(pairwise_keys[static_cast<size_t>(q)].Reveal(
                        MpcPass::Get()),
                    round_nonce);
    if (party_index < q) {
      prg.AddTo(out.data(), out.size());
    } else {
      prg.SubtractFrom(out.data(), out.size());
    }
  }
  return Masked<RingVector>::Seal(std::move(out), MpcPass::Get());
}

Result<RingVector> OpenMaskedChunk(const Masked<RingVector>& own_masked,
                                   size_t begin, size_t end,
                                   const std::vector<RingVector>& peer_chunks) {
  const RingVector& own = own_masked.wire();
  DASH_CHECK(begin <= end && end <= own.size());
  RingVector total(own.begin() + static_cast<std::ptrdiff_t>(begin),
                   own.begin() + static_cast<std::ptrdiff_t>(end));
  for (const RingVector& peer : peer_chunks) {
    if (peer.size() != total.size()) {
      return FailedPreconditionError(
          "protocol desync: sealed chunk length mismatch");
    }
    for (size_t e = 0; e < total.size(); ++e) total[e] += peer[e];
  }
  return total;
}

Result<Vector> OpenMaskedTotal(const Masked<RingVector>& own_masked,
                               const std::vector<RingVector>& peer_masked,
                               const FixedPointCodec& codec) {
  DASH_ASSIGN_OR_RETURN(
      RingVector total,
      OpenMaskedChunk(own_masked, 0, own_masked.wire().size(), peer_masked));
  return codec.DecodeVector(total);
}

}  // namespace dash
