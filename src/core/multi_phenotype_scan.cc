#include "core/multi_phenotype_scan.h"

#include <memory>
#include <string>
#include <utility>

#include "core/suff_stats.h"
#include "linalg/qr.h"
#include "transport/party_runner.h"
#include "util/thread_pool.h"

namespace dash {
namespace {

// Phenotype-side statistics for one block: for each phenotype t, the
// scalar y_t.y_t, the K-vector Qᵀy_t, and the M-vector X.y_t. The
// X-side statistics (X.X, QᵀX) are shared across phenotypes.
struct PhenotypeSideStats {
  Vector yy;    // length T
  Matrix qty;   // K x T
  Matrix xy;    // M x T
};

PhenotypeSideStats ComputePhenotypeSide(const Matrix& x, const Matrix& ys,
                                        const Matrix& q) {
  PhenotypeSideStats s;
  const int64_t t_count = ys.cols();
  s.yy.assign(static_cast<size_t>(t_count), 0.0);
  for (int64_t t = 0; t < t_count; ++t) {
    double acc = 0.0;
    for (int64_t i = 0; i < ys.rows(); ++i) acc += ys(i, t) * ys(i, t);
    s.yy[static_cast<size_t>(t)] = acc;
  }
  s.qty = TransposeMatMul(q, ys);   // K x T
  s.xy = TransposeMatMul(x, ys);    // M x T
  return s;
}

// Flat layout: [T, then per t: yy | qty(K) | xy(M)] ++ [xx(M) | qtx(K*M)].
// The shared X side is the contiguous xx|qtx tail of a summand arena
// (StatsWireLayout) computed with any phenotype.
Vector FlattenMulti(const PhenotypeSideStats& ps, const Vector& x_arena) {
  const int64_t t_count = static_cast<int64_t>(ps.yy.size());
  const int64_t k = ps.qty.rows();
  const int64_t m = ps.xy.rows();
  const StatsWireLayout layout{m, k};
  Vector flat;
  flat.reserve(static_cast<size_t>(t_count * (1 + k + m) + m + k * m));
  for (int64_t t = 0; t < t_count; ++t) {
    flat.push_back(ps.yy[static_cast<size_t>(t)]);
    for (int64_t kk = 0; kk < k; ++kk) flat.push_back(ps.qty(kk, t));
    for (int64_t j = 0; j < m; ++j) flat.push_back(ps.xy(j, t));
  }
  flat.insert(flat.end(), x_arena.begin() + layout.xx_offset(),
              x_arena.end());
  return flat;
}

// One block's (party's) summand in the FlattenMulti layout.
Vector MultiPhenotypeSummand(const Matrix& x, const Matrix& ys,
                             const Matrix& q, int num_threads) {
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
  // Shared X-side statistics (dummy y).
  const Vector zero_y(static_cast<size_t>(x.rows()), 0.0);
  const Vector shared = ComputeLocalStatsFlat(x, zero_y, q, pool.get());
  return FlattenMulti(ComputePhenotypeSide(x, ys, q), shared);
}

Status ValidateMultiParties(
    const std::vector<MultiPhenotypePartyData>& parties) {
  if (parties.empty()) return InvalidArgumentError("no parties given");
  const int64_t m = parties[0].x.cols();
  const int64_t k = parties[0].c.cols();
  const int64_t t_count = parties[0].ys.cols();
  if (t_count < 1) return InvalidArgumentError("need at least one phenotype");
  for (size_t p = 0; p < parties.size(); ++p) {
    const auto& pd = parties[p];
    if (pd.x.cols() != m || pd.c.cols() != k || pd.ys.cols() != t_count ||
        pd.ys.rows() != pd.x.rows() || pd.c.rows() != pd.x.rows()) {
      return InvalidArgumentError("party " + std::to_string(p) +
                                  " has inconsistent shapes");
    }
    if (pd.x.rows() < k) {
      return InvalidArgumentError("party " + std::to_string(p) +
                                  " has fewer samples than covariates");
    }
  }
  return Status::Ok();
}

Result<std::vector<ScanResult>> FinalizeAll(const Vector& flat, int64_t n,
                                            int64_t m, int64_t k,
                                            int64_t t_count) {
  const int64_t expected = t_count * (1 + k + m) + m + k * m;
  if (static_cast<int64_t>(flat.size()) != expected) {
    return InternalError("multi-phenotype aggregate has wrong length");
  }
  // Shared X-side block sits at the tail.
  const size_t x_side = static_cast<size_t>(t_count * (1 + k + m));
  std::vector<ScanResult> results;
  results.reserve(static_cast<size_t>(t_count));
  for (int64_t t = 0; t < t_count; ++t) {
    ScanSufficientStats s;
    s.num_samples = n;
    size_t pos = static_cast<size_t>(t * (1 + k + m));
    s.yy = flat[pos++];
    s.qty.assign(flat.begin() + pos, flat.begin() + pos + k);
    pos += static_cast<size_t>(k);
    s.xy.assign(flat.begin() + pos, flat.begin() + pos + m);
    s.xx.assign(flat.begin() + x_side, flat.begin() + x_side + m);
    s.qtx = Matrix(k, m);
    for (int64_t i = 0; i < s.qtx.size(); ++i) {
      s.qtx.data()[i] = flat[x_side + static_cast<size_t>(m + i)];
    }
    DASH_ASSIGN_OR_RETURN(ScanResult r, FinalizeScan(s));
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace

Result<std::vector<ScanResult>> MultiPhenotypeScan(const Matrix& x,
                                                   const Matrix& ys,
                                                   const Matrix& c,
                                                   const ScanOptions& options) {
  if (x.rows() != ys.rows() || c.rows() != x.rows()) {
    return InvalidArgumentError("x, ys, c disagree on sample count");
  }
  if (x.rows() <= c.cols() + 1) {
    return InvalidArgumentError("need N > K + 1 samples");
  }
  Matrix q(x.rows(), 0);
  if (c.cols() > 0) {
    DASH_ASSIGN_OR_RETURN(QrDecomposition qr, ThinQr(c));
    q = std::move(qr.q);
  }
  return FinalizeAll(MultiPhenotypeSummand(x, ys, q, options.num_threads),
                     x.rows(), x.cols(), c.cols(), ys.cols());
}

Result<SecureMultiPhenotypeOutput> SecureMultiPhenotypeScan(
    const std::vector<MultiPhenotypePartyData>& parties,
    const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateMultiParties(parties));
  const int64_t m = parties[0].x.cols();
  const int64_t k = parties[0].c.cols();
  const int64_t t_count = parties[0].ys.cols();
  std::vector<std::vector<ScanResult>> results(parties.size());
  SecureMultiPhenotypeOutput out;
  DASH_ASSIGN_OR_RETURN(
      out.metrics,
      SimulateParties(
          static_cast<int>(parties.size()),
          [&](Transport* transport) -> Status {
            const size_t self = static_cast<size_t>(transport->local_party());
            const MultiPhenotypePartyData& p = parties[self];
            DASH_ASSIGN_OR_RETURN(
                PartySummandOutput sum,
                RunPartySummandProtocol(
                    transport, p.c, options, /*seed_salt=*/0,
                    [&](const Matrix& q_p) {
                      return MultiPhenotypeSummand(p.x, p.ys, q_p,
                                                   options.num_threads);
                    }));
            DASH_ASSIGN_OR_RETURN(
                results[self],
                FinalizeAll(sum.totals, sum.pooled_n, m, k, t_count));
            return Status::Ok();
          }));
  out.results = std::move(results[0]);
  return out;
}

}  // namespace dash
