#include "core/scan_result.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "stats/distributions.h"
#include "util/csv.h"
#include "util/strings.h"

namespace dash {

int64_t ScanResult::TopHit() const {
  int64_t best = -1;
  double best_p = std::numeric_limits<double>::infinity();
  for (int64_t m = 0; m < num_variants(); ++m) {
    const double p = pval[static_cast<size_t>(m)];
    if (!std::isnan(p) && p < best_p) {
      best_p = p;
      best = m;
    }
  }
  return best;
}

Status ScanResult::WriteCsv(const std::string& path) const {
  std::string text = "variant,beta,se,tstat,pval\n";
  // About 100 bytes a row: an index and four 17-digit doubles.
  text.reserve(text.size() + 100 * beta.size());
  // One row: a 20-character int64 index, four ",%.17g" fields and '\n'.
  char row[20 + 4 * (1 + kDouble17MaxChars) + 1];
  for (int64_t m = 0; m < num_variants(); ++m) {
    const size_t i = static_cast<size_t>(m);
    char* p = std::to_chars(row, row + 20, m).ptr;
    for (const Vector* column : {&beta, &se, &tstat, &pval}) {
      *p++ = ',';
      p = FormatDouble17(p, (*column)[i]);
    }
    *p++ = '\n';
    text.append(row, p);
  }
  return WriteTextFile(path, text);
}

Result<ScanResult> FinalizeScanProjected(const ProjectedSufficientStats& s) {
  const int64_t m = static_cast<int64_t>(s.xy.size());
  const int64_t dof = s.num_samples - s.num_covariates - 1;
  if (dof <= 0) {
    return InvalidArgumentError(
        "non-positive degrees of freedom: N=" + std::to_string(s.num_samples) +
        ", K=" + std::to_string(s.num_covariates));
  }
  if (static_cast<int64_t>(s.xx.size()) != m ||
      static_cast<int64_t>(s.qtx_qty.size()) != m ||
      static_cast<int64_t>(s.qtx_qtx.size()) != m) {
    return InvalidArgumentError("projected statistics disagree in length");
  }

  const double yyq = s.yy - s.qty_qty;

  ScanResult out;
  out.dof = dof;
  out.beta.assign(static_cast<size_t>(m), 0.0);
  out.se.assign(static_cast<size_t>(m), 0.0);
  out.tstat.assign(static_cast<size_t>(m), 0.0);
  out.pval.assign(static_cast<size_t>(m), 0.0);

  const double nan = std::nan("");
  const StudentTTwoSided t_test(static_cast<double>(dof));
  for (int64_t j = 0; j < m; ++j) {
    const size_t i = static_cast<size_t>(j);
    const double xxq = s.xx[i] - s.qtx_qtx[i];
    // Relative test: residual variation indistinguishable from roundoff
    // means X_j lies in the span of the permanent covariates.
    if (!(xxq > 1e-12 * (s.xx[i] + 1.0))) {
      out.beta[i] = nan;
      out.se[i] = nan;
      out.tstat[i] = nan;
      out.pval[i] = nan;
      ++out.num_untestable;
      continue;
    }
    const double xyq = s.xy[i] - s.qtx_qty[i];
    const double beta = xyq / xxq;
    double sigma2 = (yyq / xxq - beta * beta) / static_cast<double>(dof);
    if (sigma2 < 0.0) sigma2 = 0.0;  // roundoff guard for perfect fits
    const double se = std::sqrt(sigma2);
    out.beta[i] = beta;
    out.se[i] = se;
    if (se > 0.0) {
      const double t = beta / se;
      out.tstat[i] = t;
      out.pval[i] = t_test.PValue(t);
    } else {
      out.tstat[i] = (beta == 0.0) ? 0.0 : std::copysign(
          std::numeric_limits<double>::infinity(), beta);
      out.pval[i] = (beta == 0.0) ? 1.0 : 0.0;
    }
  }
  return out;
}

Result<ScanResult> FinalizeScan(const ScanSufficientStats& totals) {
  const int64_t m = totals.num_variants();
  const int64_t k = totals.num_covariates();
  // Project the K-vector statistics down to the scalars Lemma 2.1 uses
  // and share the finalization path with the compressed study.
  ProjectedSufficientStats proj;
  proj.num_samples = totals.num_samples;
  proj.num_covariates = k;
  proj.yy = totals.yy;
  proj.xy = totals.xy;
  proj.xx = totals.xx;
  proj.qty_qty = SquaredNorm(totals.qty);
  proj.qtx_qty.assign(static_cast<size_t>(m), 0.0);
  proj.qtx_qtx.assign(static_cast<size_t>(m), 0.0);
  for (int64_t j = 0; j < m; ++j) {
    double qq = 0.0;
    double qy = 0.0;
    for (int64_t kk = 0; kk < k; ++kk) {
      const double q = totals.qtx(kk, j);
      qy += q * totals.qty[static_cast<size_t>(kk)];
      qq += q * q;
    }
    proj.qtx_qty[static_cast<size_t>(j)] = qy;
    proj.qtx_qtx[static_cast<size_t>(j)] = qq;
  }
  return FinalizeScanProjected(proj);
}

namespace {

uint64_t ChecksumVector(uint64_t h, const Vector& v) {
  for (const double x : v) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

}  // namespace

uint64_t ScanResultChecksum(const ScanResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = ChecksumVector(h, result.beta);
  h = ChecksumVector(h, result.se);
  h = ChecksumVector(h, result.tstat);
  h = ChecksumVector(h, result.pval);
  return h;
}

}  // namespace dash
