#include "mpc/secure_projection.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "net/round_annotations.h"
#include "net/serialization.h"
#include "util/check.h"

namespace dash {
namespace {

// Encodes a double with `frac_bits` fractional bits into the ring.
inline uint64_t RingEncode(double v, double scale) {
  return static_cast<uint64_t>(static_cast<int64_t>(std::llround(v * scale)));
}

// Decodes a ring value carrying 2*frac_bits fractional bits.
inline double RingDecodeProduct(uint64_t v, double inv_scale2) {
  return static_cast<double>(static_cast<int64_t>(v)) * inv_scale2;
}

// Adds a peer's opened vector into `total`. Ring sums are
// order-independent, so every party opens the same bits.
Status AddPeerVector(const Message& msg, RingVector* total) {
  ByteReader r(msg.payload);
  DASH_ASSIGN_OR_RETURN(RingVector peer, r.GetU64Vector());
  if (peer.size() != total->size()) {
    return FailedPreconditionError(
        "protocol desync: party " + std::to_string(msg.from) + " opened " +
        std::to_string(peer.size()) + " Beaver values, expected " +
        std::to_string(total->size()));
  }
  for (size_t e = 0; e < peer.size(); ++e) (*total)[e] += peer[e];
  return Status::Ok();
}

}  // namespace

SecureProjectedAggregation::SecureProjectedAggregation(
    Transport* transport, const SecureProjectionOptions& options)
    : net_(transport), options_(options) {
  DASH_CHECK(transport != nullptr);
  DASH_CHECK(options.frac_bits >= 1 && options.frac_bits <= 30)
      << "frac_bits=" << options.frac_bits;
}

Result<ProjectedStats> SecureProjectedAggregation::Run(
    const Secret<Vector>& qty_secret, const Secret<Matrix>& qtx_secret) {
  constexpr MpcPass pass = MpcPass::Get();
  const int p = net_->num_parties();
  const int local = net_->local_party();
  const Vector& qty = qty_secret.Reveal(pass);
  const Matrix& qtx = qtx_secret.Reveal(pass);
  const int64_t k = static_cast<int64_t>(qty.size());
  const int64_t m = qtx.cols();
  if (qtx.rows() != k) {
    return InvalidArgumentError("Qᵀy has " + std::to_string(k) +
                                " entries but QᵀX has " +
                                std::to_string(qtx.rows()) + " rows");
  }
  if (k == 0) {
    ProjectedStats empty;
    empty.qtx_qty.assign(static_cast<size_t>(m), 0.0);
    empty.qtx_qtx.assign(static_cast<size_t>(m), 0.0);
    return empty;
  }

  // Headroom: the opened products sum K terms of (P * bound)^2 * 2^(2f);
  // require the worst case to stay inside the signed 63-bit range.
  const double scale = std::ldexp(1.0, options_.frac_bits);
  const double inv_scale2 = std::ldexp(1.0, -2 * options_.frac_bits);
  const double bound =
      std::sqrt(std::ldexp(1.0, 62 - 2 * options_.frac_bits) /
                static_cast<double>(k)) /
      static_cast<double>(p);
  double worst = MaxAbs(qty);
  for (int64_t e = 0; e < qtx.size(); ++e) {
    worst = std::max(worst, std::fabs(qtx.data()[e]));
  }
  if (!(worst <= bound)) {
    // The offending magnitude is secret-derived and deliberately kept
    // out of the (loggable) error message; only the public bound is
    // reported.
    return OutOfRangeError(
        "projected summand magnitude exceeds Beaver fixed-point headroom " +
        std::to_string(bound) + "; lower frac_bits");
  }

  // Multiplication layout (all element-wise, summed locally afterwards):
  //   [0, K)                   : qty_k   * qty_k
  //   [K + m*2K, K + m*2K + K) : qtx_km  * qty_k
  //   [... + K, ... + 2K)      : qtx_km  * qtx_km
  const int64_t total_mults = k + 2 * k * m;
  const std::vector<Secret<BeaverTripleShare>> triples =
      std::move(DealerTripleProvider(p, options_.seed)
                    .Deal(total_mults)[static_cast<size_t>(local)]);

  // Round 1: open d = x - a, e = y - b. Each d/e share is offset by a
  // uniform triple component, so it is individually uniform — sealed
  // Masked for the wire.
  net_->BeginRound();
  RingVector de(static_cast<size_t>(2 * total_mults));
  for (int64_t t = 0; t < total_mults; ++t) {
    uint64_t x = 0;
    uint64_t y = 0;
    if (t < k) {
      x = y = RingEncode(qty[static_cast<size_t>(t)], scale);
    } else {
      const int64_t col = (t - k) / (2 * k);
      const int64_t within = (t - k) % (2 * k);
      if (within < k) {
        x = RingEncode(qtx(within, col), scale);
        y = RingEncode(qty[static_cast<size_t>(within)], scale);
      } else {
        x = y = RingEncode(qtx(within - k, col), scale);
      }
    }
    const BeaverTripleShare& share =
        triples[static_cast<size_t>(t)].Reveal(pass);
    de[static_cast<size_t>(2 * t)] = x - share.a;
    de[static_cast<size_t>(2 * t + 1)] = y - share.b;
  }
  const Masked<RingVector> de_share =
      Masked<RingVector>::Seal(std::move(de), pass);
  DASH_ROUND(beaver_open_operands, kMaskedValue);
  DASH_RETURN_IF_ERROR(net_->Broadcast(local, MessageTag::kMaskedValue,
                                       MaskAndSerialize(de_share)));
  RingVector opened = de_share.wire();
  for (int q = 0; q < p; ++q) {
    if (q == local) continue;
    DASH_ROUND(beaver_open_operands, kMaskedValue);
    DASH_ASSIGN_OR_RETURN(Message msg,
                          net_->Receive(local, q, MessageTag::kMaskedValue));
    DASH_RETURN_IF_ERROR(AddPeerVector(msg, &opened));
  }

  // Local: product shares, folded into this party's share of the three
  // result families. Party 0 adds the public d*e term.
  const size_t result_len = static_cast<size_t>(2 * m + 1);
  RingVector mine(result_len, 0);
  for (int64_t t = 0; t < total_mults; ++t) {
    const uint64_t prod = BeaverProductShare(
        opened[static_cast<size_t>(2 * t)],
        opened[static_cast<size_t>(2 * t + 1)],
        triples[static_cast<size_t>(t)], /*include_de=*/local == 0);
    size_t slot = 0;  // qty.qty
    if (t >= k) {
      const int64_t col = (t - k) / (2 * k);
      slot = ((t - k) % (2 * k) < k) ? static_cast<size_t>(1 + col)
                                     : static_cast<size_t>(1 + m + col);
    }
    mine[slot] += prod;
  }

  // Round 2: open the results. A result share is one additive share of
  // the revealed scalars — individually uniform, hence Masked.
  net_->BeginRound();
  const Masked<RingVector> result_share =
      Masked<RingVector>::Seal(std::move(mine), pass);
  DASH_ROUND(beaver_open_result, kPartialSum);
  DASH_RETURN_IF_ERROR(net_->Broadcast(local, MessageTag::kPartialSum,
                                       MaskAndSerialize(result_share)));
  RingVector totals = result_share.wire();
  for (int q = 0; q < p; ++q) {
    if (q == local) continue;
    DASH_ROUND(beaver_open_result, kPartialSum);
    DASH_ASSIGN_OR_RETURN(Message msg,
                          net_->Receive(local, q, MessageTag::kPartialSum));
    DASH_RETURN_IF_ERROR(AddPeerVector(msg, &totals));
  }

  ProjectedStats out;
  out.qty_qty = RingDecodeProduct(totals[0], inv_scale2);
  out.qtx_qty.resize(static_cast<size_t>(m));
  out.qtx_qtx.resize(static_cast<size_t>(m));
  for (int64_t j = 0; j < m; ++j) {
    out.qtx_qty[static_cast<size_t>(j)] =
        RingDecodeProduct(totals[static_cast<size_t>(1 + j)], inv_scale2);
    out.qtx_qtx[static_cast<size_t>(j)] =
        RingDecodeProduct(totals[static_cast<size_t>(1 + m + j)], inv_scale2);
  }
  return out;
}

}  // namespace dash
