#include "mpc/additive_sharing.h"

#include <cstddef>
#include <utility>

#include "util/check.h"

namespace dash {

std::vector<Secret<RingVector>> AdditiveShareVector(
    const Secret<RingVector>& values, int n, Rng* rng) {
  DASH_CHECK_GE(n, 1);
  const RingVector& raw = values.Reveal(MpcPass::Get());
  std::vector<RingVector> out(static_cast<size_t>(n),
                              RingVector(raw.size()));
  for (size_t i = 0; i < raw.size(); ++i) {
    uint64_t acc = 0;
    for (int j = 1; j < n; ++j) {
      const uint64_t s = rng->NextU64();
      out[static_cast<size_t>(j)][i] = s;
      acc += s;
    }
    out[0][i] = raw[i] - acc;
  }
  std::vector<Secret<RingVector>> wrapped;
  wrapped.reserve(out.size());
  for (auto& share : out) {
    wrapped.emplace_back(std::move(share));
  }
  return wrapped;
}

Result<RingVector> AdditiveReconstructVector(
    const std::vector<Secret<RingVector>>& share_vectors) {
  if (share_vectors.empty()) {
    return InvalidArgumentError("no share vectors to reconstruct");
  }
  const size_t len = share_vectors[0].Reveal(MpcPass::Get()).size();
  RingVector out(len, 0);
  for (const auto& wrapped : share_vectors) {
    const RingVector& shares = wrapped.Reveal(MpcPass::Get());
    if (shares.size() != len) {
      return InvalidArgumentError("share vectors disagree in length");
    }
    for (size_t i = 0; i < len; ++i) out[i] += shares[i];
  }
  return out;
}

Result<Masked<RingVector>> AccumulateAdditiveShares(
    const Secret<RingVector>& own_share,
    const std::vector<RingVector>& received_shares) {
  RingVector partial = own_share.Reveal(MpcPass::Get());
  for (const RingVector& share : received_shares) {
    if (share.size() != partial.size()) {
      return FailedPreconditionError(
          "protocol desync: additive share length mismatch");
    }
    for (size_t e = 0; e < partial.size(); ++e) partial[e] += share[e];
  }
  return Masked<RingVector>::Seal(std::move(partial), MpcPass::Get());
}

}  // namespace dash
