#include "core/multi_phenotype_scan.h"

#include <memory>
#include <string>
#include <utility>

#include "core/distributed_qr.h"
#include "core/party_local.h"
#include "linalg/qr.h"
#include "net/network.h"
#include "util/thread_pool.h"

namespace dash {
namespace {

// Phenotype-side statistics for one block: for each phenotype t, the
// scalar y_t.y_t, the K-vector Qᵀy_t, and the M-vector X.y_t. The
// X-side statistics (X.X, QᵀX) live in ScanSufficientStats and are
// shared across phenotypes.
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
Vector FlattenMulti(const PhenotypeSideStats& ps, const Vector& xx,
                    const Matrix& qtx) {
  const int64_t t_count = static_cast<int64_t>(ps.yy.size());
  const int64_t k = ps.qty.rows();
  const int64_t m = ps.xy.rows();
  Vector flat;
  flat.reserve(static_cast<size_t>(t_count * (1 + k + m) + m + k * m));
  for (int64_t t = 0; t < t_count; ++t) {
    flat.push_back(ps.yy[static_cast<size_t>(t)]);
    for (int64_t kk = 0; kk < k; ++kk) flat.push_back(ps.qty(kk, t));
    for (int64_t j = 0; j < m; ++j) flat.push_back(ps.xy(j, t));
  }
  flat.insert(flat.end(), xx.begin(), xx.end());
  flat.insert(flat.end(), qtx.data(), qtx.data() + qtx.size());
  return flat;
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
  // Shared X-side statistics (dummy y).
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  const Vector zero_y(static_cast<size_t>(x.rows()), 0.0);
  ScanSufficientStats shared = ComputeLocalStats(x, zero_y, q, pool.get());
  const PhenotypeSideStats ps = ComputePhenotypeSide(x, ys, q);
  const Vector flat = FlattenMulti(ps, shared.xx, shared.qtx);
  return FinalizeAll(flat, x.rows(), x.cols(), c.cols(), ys.cols());
}

Result<SecureMultiPhenotypeOutput> SecureMultiPhenotypeScan(
    const std::vector<MultiPhenotypePartyData>& parties,
    const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateMultiParties(parties));
  const int64_t m = parties[0].x.cols();
  const int64_t k = parties[0].c.cols();
  const int64_t t_count = parties[0].ys.cols();
  int64_t total_samples = 0;
  for (const auto& p : parties) total_samples += p.num_samples();

  SecureSumOptions sum_options;
  sum_options.mode = options.aggregation;
  sum_options.frac_bits = options.frac_bits;
  sum_options.seed = options.seed;
  std::vector<std::vector<ScanResult>> results(parties.size());
  MeshTraffic traffic;
  DASH_RETURN_IF_ERROR(RunPartiesInProcess(
      static_cast<int>(parties.size()),
      [&](Transport* transport) -> Status {
        const size_t self = static_cast<size_t>(transport->local_party());
        const MultiPhenotypePartyData& p = parties[self];
        // R combination, as in the single-phenotype protocol.
        Matrix q_p(p.num_samples(), 0);
        if (k > 0) {
          DASH_ASSIGN_OR_RETURN(Matrix r, QrRFactor(p.c));
          DASH_ASSIGN_OR_RETURN(
              DistributedQrResult qr,
              CombineRFactorsOverNetwork(transport, r, options.r_combine));
          q_p = MatMul(p.c, qr.r_inverse);
        }
        std::unique_ptr<ThreadPool> pool;
        if (options.num_threads > 1) {
          pool = std::make_unique<ThreadPool>(options.num_threads);
        }
        const Vector zero_y(static_cast<size_t>(p.num_samples()), 0.0);
        const ScanSufficientStats shared =
            ComputeLocalStats(p.x, zero_y, q_p, pool.get());
        const PhenotypeSideStats ps = ComputePhenotypeSide(p.x, p.ys, q_p);
        PartySecureVectorSum secure_sum(transport, sum_options);
        DASH_ASSIGN_OR_RETURN(Vector flat_totals,
                              secure_sum.Run(Secret<Vector>(
                                  FlattenMulti(ps, shared.xx, shared.qtx))));
        DASH_ASSIGN_OR_RETURN(
            results[self],
            FinalizeAll(flat_totals, total_samples, m, k, t_count));
        return Status::Ok();
      },
      &traffic));

  SecureMultiPhenotypeOutput out;
  out.results = std::move(results[0]);
  out.metrics.total_bytes = traffic.total_bytes;
  out.metrics.total_messages = traffic.total_messages;
  out.metrics.max_link_bytes = traffic.max_link_bytes;
  out.metrics.rounds = traffic.rounds;
  return out;
}

}  // namespace dash
