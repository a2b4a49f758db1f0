#include "core/compressed_study.h"

#include <algorithm>
#include <string>
#include <utility>

#include "linalg/cholesky.h"
#include "linalg/qr.h"
#include "net/network.h"

namespace dash {

CompressedStudy CompressedStudy::FromBlock(const Matrix& x, const Matrix& ys,
                                           const Matrix& c) {
  CompressedStudy s;
  s.n_ = x.rows();
  s.m_ = x.cols();
  s.k_ = c.cols();
  s.t_ = ys.cols();
  s.yty_ = TransposeMatMul(ys, ys);
  s.cty_ = TransposeMatMul(c, ys);
  s.ctc_ = TransposeMatMul(c, c);
  s.xty_ = TransposeMatMul(x, ys);
  s.xx_.assign(static_cast<size_t>(s.m_), 0.0);
  for (int64_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_data(i);
    for (int64_t j = 0; j < s.m_; ++j) s.xx_[static_cast<size_t>(j)] += row[j] * row[j];
  }
  s.ctx_ = TransposeMatMul(c, x);
  return s;
}

Result<CompressedStudy> CompressedStudy::Compress(const Matrix& x,
                                                  const Matrix& ys,
                                                  const Matrix& c) {
  if (x.rows() != ys.rows() || c.rows() != x.rows()) {
    return InvalidArgumentError("x, ys, c disagree on sample count");
  }
  if (ys.cols() < 1) return InvalidArgumentError("need at least one phenotype");
  return FromBlock(x, ys, c);
}

int64_t CompressedStudy::FlatLength() const {
  return t_ * t_ + k_ * t_ + k_ * k_ + m_ * t_ + m_ + k_ * m_;
}

Vector CompressedStudy::Flatten() const {
  Vector flat;
  flat.reserve(static_cast<size_t>(FlatLength()));
  const auto append = [&flat](const Matrix& m) {
    flat.insert(flat.end(), m.data(), m.data() + m.size());
  };
  append(yty_);
  append(cty_);
  append(ctc_);
  append(xty_);
  flat.insert(flat.end(), xx_.begin(), xx_.end());
  append(ctx_);
  return flat;
}

Result<CompressedStudy> CompressedStudy::Unflatten(const Vector& flat,
                                                   int64_t n, int64_t m,
                                                   int64_t k, int64_t t) {
  CompressedStudy s;
  s.n_ = n;
  s.m_ = m;
  s.k_ = k;
  s.t_ = t;
  if (static_cast<int64_t>(flat.size()) != s.FlatLength()) {
    return InternalError("compressed statistics have unexpected length");
  }
  size_t pos = 0;
  const auto take = [&flat, &pos](int64_t rows, int64_t cols) {
    Matrix out(rows, cols);
    for (int64_t i = 0; i < out.size(); ++i) out.data()[i] = flat[pos++];
    return out;
  };
  s.yty_ = take(t, t);
  s.cty_ = take(k, t);
  s.ctc_ = take(k, k);
  s.xty_ = take(m, t);
  s.xx_.assign(flat.begin() + pos, flat.begin() + pos + m);
  pos += static_cast<size_t>(m);
  s.ctx_ = take(k, m);
  return s;
}

Result<CompressedStudy::SecureOutput> CompressedStudy::SecureCompress(
    const std::vector<MultiPhenotypePartyData>& parties,
    const SecureScanOptions& options) {
  if (parties.empty()) return InvalidArgumentError("no parties given");
  const int64_t m = parties[0].x.cols();
  const int64_t k = parties[0].c.cols();
  const int64_t t = parties[0].ys.cols();
  std::vector<CompressedStudy> locals;
  for (size_t p = 0; p < parties.size(); ++p) {
    const auto& pd = parties[p];
    if (pd.x.cols() != m || pd.c.cols() != k || pd.ys.cols() != t ||
        pd.ys.rows() != pd.x.rows() || pd.c.rows() != pd.x.rows()) {
      return InvalidArgumentError("party " + std::to_string(p) +
                                  " has inconsistent shapes");
    }
    locals.push_back(FromBlock(pd.x, pd.ys, pd.c));
  }
  return SecureAggregate(locals, options);
}

Result<CompressedStudy::SecureOutput> CompressedStudy::SecureAggregate(
    const std::vector<CompressedStudy>& locals,
    const SecureScanOptions& options) {
  if (locals.empty()) return InvalidArgumentError("no parties given");
  const int64_t m = locals[0].m_;
  const int64_t k = locals[0].k_;
  const int64_t t = locals[0].t_;
  int64_t total = 0;
  for (size_t p = 0; p < locals.size(); ++p) {
    if (locals[p].m_ != m || locals[p].k_ != k || locals[p].t_ != t) {
      return InvalidArgumentError("party " + std::to_string(p) +
                                  " accumulator has inconsistent shape");
    }
    total += locals[p].n_;
  }

  SecureSumOptions sum_options;
  sum_options.mode = options.aggregation;
  sum_options.frac_bits = options.frac_bits;
  sum_options.seed = options.seed ^ 0xc0435;
  std::vector<Vector> totals(locals.size());
  MeshTraffic traffic;
  DASH_RETURN_IF_ERROR(RunPartiesInProcess(
      static_cast<int>(locals.size()),
      [&](Transport* transport) -> Status {
        const size_t self = static_cast<size_t>(transport->local_party());
        if (options.trace != nullptr) transport->AttachTrace(options.trace);
        PartySecureVectorSum secure_sum(transport, sum_options);
        DASH_ASSIGN_OR_RETURN(
            totals[self],
            secure_sum.Run(Secret<Vector>(locals[self].Flatten())));
        return Status::Ok();
      },
      &traffic));

  // Every party revealed the same totals.
  SecureOutput out;
  DASH_ASSIGN_OR_RETURN(out.study, Unflatten(totals[0], total, m, k, t));
  out.metrics.total_bytes = traffic.total_bytes;
  out.metrics.total_messages = traffic.total_messages;
  out.metrics.max_link_bytes = traffic.max_link_bytes;
  out.metrics.rounds = traffic.rounds;
  return out;
}

Result<ScanResult> CompressedStudy::Scan(
    int64_t phenotype, const std::vector<int64_t>& covariate_subset) const {
  if (phenotype < 0 || phenotype >= t_) {
    return OutOfRangeError("phenotype index out of range");
  }
  std::vector<int64_t> subset = covariate_subset;
  std::sort(subset.begin(), subset.end());
  for (size_t i = 0; i < subset.size(); ++i) {
    if (subset[i] < 0 || subset[i] >= k_) {
      return OutOfRangeError("covariate index " + std::to_string(subset[i]) +
                             " out of range");
    }
    if (i > 0 && subset[i] == subset[i - 1]) {
      return InvalidArgumentError("duplicate covariate index");
    }
  }
  const int64_t ks = static_cast<int64_t>(subset.size());

  ProjectedSufficientStats stats;
  stats.num_samples = n_;
  stats.num_covariates = ks;
  stats.yy = yty_(phenotype, phenotype);
  stats.xy.resize(static_cast<size_t>(m_));
  stats.xx = xx_;
  for (int64_t j = 0; j < m_; ++j) stats.xy[static_cast<size_t>(j)] = xty_(j, phenotype);

  if (ks == 0) {
    stats.qty_qty = 0.0;
    stats.qtx_qty.assign(static_cast<size_t>(m_), 0.0);
    stats.qtx_qtx.assign(static_cast<size_t>(m_), 0.0);
    return FinalizeScanProjected(stats);
  }

  // Selected Gram block and cross-products.
  Matrix gram(ks, ks);
  Vector cy(static_cast<size_t>(ks));
  Matrix cx(ks, m_);
  for (int64_t a = 0; a < ks; ++a) {
    const int64_t sa = subset[static_cast<size_t>(a)];
    cy[static_cast<size_t>(a)] = cty_(sa, phenotype);
    for (int64_t b = 0; b < ks; ++b) {
      gram(a, b) = ctc_(sa, subset[static_cast<size_t>(b)]);
    }
    for (int64_t j = 0; j < m_; ++j) cx(a, j) = ctx_(sa, j);
  }
  DASH_ASSIGN_OR_RETURN(Matrix l, Cholesky(gram));
  // Qᵀ· = L⁻¹ Cᵀ· over the selected block.
  DASH_ASSIGN_OR_RETURN(Vector qty, SolveLowerTriangular(l, cy));
  stats.qty_qty = SquaredNorm(qty);
  stats.qtx_qty.assign(static_cast<size_t>(m_), 0.0);
  stats.qtx_qtx.assign(static_cast<size_t>(m_), 0.0);
  Vector col(static_cast<size_t>(ks));
  for (int64_t j = 0; j < m_; ++j) {
    for (int64_t a = 0; a < ks; ++a) col[static_cast<size_t>(a)] = cx(a, j);
    DASH_ASSIGN_OR_RETURN(Vector q, SolveLowerTriangular(l, col));
    stats.qtx_qty[static_cast<size_t>(j)] = Dot(q, qty);
    stats.qtx_qtx[static_cast<size_t>(j)] = SquaredNorm(q);
  }
  return FinalizeScanProjected(stats);
}

Result<ScanResult> CompressedStudy::ScanAllCovariates(int64_t phenotype) const {
  std::vector<int64_t> all(static_cast<size_t>(k_));
  for (int64_t i = 0; i < k_; ++i) all[static_cast<size_t>(i)] = i;
  return Scan(phenotype, all);
}

Status CompressedStudy::Merge(const CompressedStudy& other) {
  if (other.m_ != m_ || other.k_ != k_ || other.t_ != t_) {
    return InvalidArgumentError("cannot merge studies with different shapes");
  }
  n_ += other.n_;
  yty_ = MatAdd(yty_, other.yty_);
  cty_ = MatAdd(cty_, other.cty_);
  ctc_ = MatAdd(ctc_, other.ctc_);
  xty_ = MatAdd(xty_, other.xty_);
  for (size_t j = 0; j < xx_.size(); ++j) xx_[j] += other.xx_[j];
  ctx_ = MatAdd(ctx_, other.ctx_);
  return Status::Ok();
}

}  // namespace dash
