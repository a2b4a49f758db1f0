#include "stats/special_functions.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace dash {
namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-15;
constexpr double kFpMin = std::numeric_limits<double>::min() / kEpsilon;

// Continued fraction for the incomplete beta (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) <= kEpsilon) break;
  }
  return h;
}

// Series form of P(a, x), valid for x < a + 1.
double LowerGammaSeries(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < kMaxIterations; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

// Continued fraction form of Q(a, x), valid for x >= a + 1.
double UpperGammaContinuedFraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) <= kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - LogGamma(a)) * h;
}

}  // namespace

double LogGamma(double x) {
  DASH_CHECK_GT(x, 0.0);
#if defined(__GLIBC__) || defined(__APPLE__)
  // std::lgamma writes the process-global `signgam`, so concurrent
  // parties finalizing p-values race on it (TSan: "Location is global
  // 'signgam'"). The POSIX reentrant variant returns the sign through
  // an out-param instead. The sign is always +1 here since x > 0.
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

IncompleteBeta::IncompleteBeta(double a, double b) : a_(a), b_(b) {
  DASH_CHECK_GT(a, 0.0);
  DASH_CHECK_GT(b, 0.0);
  log_gamma_terms_ = LogGamma(a + b) - LogGamma(a) - LogGamma(b);
}

double IncompleteBeta::Regularized(double x) const {
  DASH_CHECK(x >= 0.0 && x <= 1.0) << "x=" << x;
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front =
      log_gamma_terms_ + a_ * std::log(x) + b_ * std::log1p(-x);
  const double front = std::exp(ln_front);
  // Use the symmetry that keeps the continued fraction rapidly convergent.
  if (x < (a_ + 1.0) / (a_ + b_ + 2.0)) {
    return front * BetaContinuedFraction(a_, b_, x) / a_;
  }
  return 1.0 - front * BetaContinuedFraction(b_, a_, 1.0 - x) / b_;
}

double RegularizedIncompleteBeta(double a, double b, double x) {
  return IncompleteBeta(a, b).Regularized(x);
}

double RegularizedLowerGamma(double a, double x) {
  DASH_CHECK_GT(a, 0.0);
  DASH_CHECK_GE(x, 0.0);
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return LowerGammaSeries(a, x);
  return 1.0 - UpperGammaContinuedFraction(a, x);
}

double RegularizedUpperGamma(double a, double x) {
  DASH_CHECK_GT(a, 0.0);
  DASH_CHECK_GE(x, 0.0);
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - LowerGammaSeries(a, x);
  return UpperGammaContinuedFraction(a, x);
}

}  // namespace dash
