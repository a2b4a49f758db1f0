#include "core/grouped_scan.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "core/distributed_qr.h"
#include "core/party_local.h"
#include "linalg/cholesky.h"
#include "linalg/qr.h"
#include "net/network.h"
#include "stats/distributions.h"

namespace dash {
namespace {

// Flat layout of the grouped sufficient statistics:
//   [yy | qty(K) | per group: Xgᵀy(T) | XgᵀXg(T*T) | QᵀXg(K*T)]
int64_t FlatLength(int64_t groups, int64_t t, int64_t k) {
  return 1 + k + groups * (t + t * t + k * t);
}

// One block's (party's) contribution, written into `flat`.
Vector ComputeGroupedFlat(const Matrix& x, int64_t t, const Vector& y,
                          const Matrix& q) {
  const int64_t n = x.rows();
  const int64_t k = q.cols();
  const int64_t groups = x.cols() / t;
  Vector flat(static_cast<size_t>(FlatLength(groups, t, k)), 0.0);
  flat[0] = SquaredNorm(y);
  const Vector qty = TransposeMatVec(q, y);
  for (int64_t kk = 0; kk < k; ++kk) flat[static_cast<size_t>(1 + kk)] = qty[static_cast<size_t>(kk)];

  const int64_t per_group = t + t * t + k * t;
  for (int64_t g = 0; g < groups; ++g) {
    const size_t base = static_cast<size_t>(1 + k + g * per_group);
    for (int64_t i = 0; i < n; ++i) {
      const double* xi = x.row_data(i) + g * t;
      const double yi = y[static_cast<size_t>(i)];
      const double* qi = q.row_data(i);
      for (int64_t a = 0; a < t; ++a) {
        const double va = xi[a];
        if (va == 0.0) continue;
        flat[base + static_cast<size_t>(a)] += va * yi;
        for (int64_t b = 0; b < t; ++b) {
          flat[base + static_cast<size_t>(t + a * t + b)] += va * xi[b];
        }
        for (int64_t kk = 0; kk < k; ++kk) {
          flat[base + static_cast<size_t>(t + t * t + kk * t + a)] +=
              va * qi[kk];
        }
      }
    }
  }
  return flat;
}

// Lemma-2.1-style finalization of the aggregated grouped statistics.
Result<GroupedScanResult> FinalizeGrouped(const Vector& flat, int64_t n,
                                          int64_t groups, int64_t t,
                                          int64_t k) {
  if (static_cast<int64_t>(flat.size()) != FlatLength(groups, t, k)) {
    return InternalError("grouped statistics have unexpected length");
  }
  const int64_t dof2 = n - k - t;
  if (dof2 <= 0) {
    return InvalidArgumentError("need N > K + T samples for the grouped scan");
  }

  Vector qty(static_cast<size_t>(k));
  for (int64_t kk = 0; kk < k; ++kk) qty[static_cast<size_t>(kk)] = flat[static_cast<size_t>(1 + kk)];
  const double yyq = flat[0] - SquaredNorm(qty);

  GroupedScanResult out;
  out.dof1 = t;
  out.dof2 = dof2;
  out.beta = Matrix(t, groups);
  out.se = Matrix(t, groups);
  out.fstat.assign(static_cast<size_t>(groups), 0.0);
  out.pval.assign(static_cast<size_t>(groups), 0.0);

  const double nan = std::nan("");
  const int64_t per_group = t + t * t + k * t;
  for (int64_t g = 0; g < groups; ++g) {
    const size_t base = static_cast<size_t>(1 + k + g * per_group);
    // Residualized right-hand side and Gram block.
    Vector b(static_cast<size_t>(t));
    Matrix gram(t, t);
    for (int64_t a = 0; a < t; ++a) {
      double qdot = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        qdot += flat[base + static_cast<size_t>(t + t * t + kk * t + a)] *
                qty[static_cast<size_t>(kk)];
      }
      b[static_cast<size_t>(a)] = flat[base + static_cast<size_t>(a)] - qdot;
      for (int64_t c = 0; c < t; ++c) {
        double qq = 0.0;
        for (int64_t kk = 0; kk < k; ++kk) {
          qq += flat[base + static_cast<size_t>(t + t * t + kk * t + a)] *
                flat[base + static_cast<size_t>(t + t * t + kk * t + c)];
        }
        gram(a, c) = flat[base + static_cast<size_t>(t + a * t + c)] - qq;
      }
    }

    const auto mark_untestable = [&] {
      for (int64_t a = 0; a < t; ++a) {
        out.beta(a, g) = nan;
        out.se(a, g) = nan;
      }
      out.fstat[static_cast<size_t>(g)] = nan;
      out.pval[static_cast<size_t>(g)] = nan;
      ++out.num_untestable;
    };

    const auto chol = Cholesky(gram);
    if (!chol.ok()) {
      mark_untestable();
      continue;
    }
    const Matrix& l = chol.value();
    // B = G⁻¹ b via the factor; explained SS = bᵀB.
    const auto z = SolveLowerTriangular(l, b);
    if (!z.ok()) {
      mark_untestable();
      continue;
    }
    const auto beta_g = SolveUpperTriangular(Transpose(l), z.value());
    if (!beta_g.ok()) {
      mark_untestable();
      continue;
    }
    const double explained = Dot(b, beta_g.value());
    double rss = yyq - explained;
    if (rss < 0.0) rss = 0.0;
    const double sigma2 = rss / static_cast<double>(dof2);

    // diag(G⁻¹) from the inverse factor: (G⁻¹)_aa = Σ_r (L⁻¹)_{r a}².
    Matrix linv(t, t);
    bool ok = true;
    for (int64_t col = 0; col < t; ++col) {
      Vector e(static_cast<size_t>(t), 0.0);
      e[static_cast<size_t>(col)] = 1.0;
      const auto sol = SolveLowerTriangular(l, e);
      if (!sol.ok()) {
        ok = false;
        break;
      }
      for (int64_t r = 0; r < t; ++r) linv(r, col) = sol.value()[static_cast<size_t>(r)];
    }
    if (!ok) {
      mark_untestable();
      continue;
    }
    for (int64_t a = 0; a < t; ++a) {
      double inv_diag = 0.0;
      for (int64_t r = 0; r < t; ++r) inv_diag += linv(r, a) * linv(r, a);
      out.beta(a, g) = beta_g.value()[static_cast<size_t>(a)];
      out.se(a, g) = std::sqrt(sigma2 * inv_diag);
    }
    const double f =
        (sigma2 > 0.0)
            ? (explained / static_cast<double>(t)) / sigma2
            : std::numeric_limits<double>::infinity();
    out.fstat[static_cast<size_t>(g)] = f;
    out.pval[static_cast<size_t>(g)] =
        FSf(f, static_cast<double>(t), static_cast<double>(dof2));
  }
  return out;
}

Status ValidateGroupShape(int64_t cols, int64_t group_size) {
  if (group_size < 1) return InvalidArgumentError("group_size must be >= 1");
  if (cols == 0 || cols % group_size != 0) {
    return InvalidArgumentError(
        "x.cols()=" + std::to_string(cols) +
        " is not a positive multiple of group_size=" +
        std::to_string(group_size));
  }
  return Status::Ok();
}

}  // namespace

Result<GroupedScanResult> GroupedScan(const Matrix& x, int64_t group_size,
                                      const Vector& y, const Matrix& c,
                                      const ScanOptions& /*options*/) {
  DASH_RETURN_IF_ERROR(ValidateGroupShape(x.cols(), group_size));
  if (x.rows() != static_cast<int64_t>(y.size()) || c.rows() != x.rows()) {
    return InvalidArgumentError("x, y, c disagree on sample count");
  }
  Matrix q(x.rows(), 0);
  if (c.cols() > 0) {
    DASH_ASSIGN_OR_RETURN(QrDecomposition qr, ThinQr(c));
    q = std::move(qr.q);
  }
  const Vector flat = ComputeGroupedFlat(x, group_size, y, q);
  return FinalizeGrouped(flat, x.rows(), x.cols() / group_size, group_size,
                         c.cols());
}

Result<SecureGroupedScanOutput> SecureGroupedScan(
    const std::vector<PartyData>& parties, int64_t group_size,
    const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateParties(parties));
  DASH_RETURN_IF_ERROR(ValidateGroupShape(parties[0].x.cols(), group_size));
  const int64_t k = parties[0].c.cols();
  const int64_t groups = parties[0].x.cols() / group_size;
  int64_t total_samples = 0;
  for (const auto& p : parties) total_samples += p.num_samples();

  SecureSumOptions sum_options;
  sum_options.mode = options.aggregation;
  sum_options.frac_bits = options.frac_bits;
  sum_options.seed = options.seed;
  std::vector<GroupedScanResult> results(parties.size());
  MeshTraffic traffic;
  DASH_RETURN_IF_ERROR(RunPartiesInProcess(
      static_cast<int>(parties.size()),
      [&](Transport* transport) -> Status {
        const size_t self = static_cast<size_t>(transport->local_party());
        const PartyData& p = parties[self];
        Matrix q_p(p.num_samples(), 0);
        if (k > 0) {
          DASH_ASSIGN_OR_RETURN(Matrix r, PartyLocalRFactor(p));
          DASH_ASSIGN_OR_RETURN(
              DistributedQrResult qr,
              CombineRFactorsOverNetwork(transport, r, options.r_combine));
          q_p = PartyLocalQ(p, qr.r_inverse);
        }
        PartySecureVectorSum secure_sum(transport, sum_options);
        DASH_ASSIGN_OR_RETURN(
            Vector totals,
            secure_sum.Run(Secret<Vector>(
                ComputeGroupedFlat(p.x, group_size, p.y, q_p))));
        DASH_ASSIGN_OR_RETURN(
            results[self],
            FinalizeGrouped(totals, total_samples, groups, group_size, k));
        return Status::Ok();
      },
      &traffic));

  SecureGroupedScanOutput out;
  out.result = std::move(results[0]);
  out.metrics.total_bytes = traffic.total_bytes;
  out.metrics.total_messages = traffic.total_messages;
  out.metrics.max_link_bytes = traffic.max_link_bytes;
  out.metrics.rounds = traffic.rounds;
  return out;
}

Result<Matrix> WithInteractionTerms(const Matrix& x, const Vector& e) {
  if (static_cast<int64_t>(e.size()) != x.rows()) {
    return InvalidArgumentError("environment vector must match sample count");
  }
  Matrix out(x.rows(), 2 * x.cols());
  for (int64_t i = 0; i < x.rows(); ++i) {
    const double ei = e[static_cast<size_t>(i)];
    for (int64_t j = 0; j < x.cols(); ++j) {
      out(i, 2 * j) = x(i, j);
      out(i, 2 * j + 1) = x(i, j) * ei;
    }
  }
  return out;
}

}  // namespace dash
