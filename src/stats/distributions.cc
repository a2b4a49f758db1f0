#include "stats/distributions.h"

#include <cmath>

#include "stats/special_functions.h"
#include "util/check.h"

namespace dash {

double StudentTCdf(double t, double dof) {
  DASH_CHECK_GT(dof, 0.0);
  if (std::isinf(t)) return t > 0 ? 1.0 : 0.0;
  const double x = dof / (dof + t * t);
  const double tail = 0.5 * RegularizedIncompleteBeta(0.5 * dof, 0.5, x);
  return (t > 0.0) ? 1.0 - tail : tail;
}

double StudentTSf(double t, double dof) { return StudentTCdf(-t, dof); }

// IncompleteBeta CHECK-fails unless a = dof / 2 > 0.
StudentTTwoSided::StudentTTwoSided(double dof)
    : dof_(dof), tail_(0.5 * dof, 0.5) {}

double StudentTTwoSided::PValue(double t) const {
  if (std::isnan(t)) return std::nan("");
  const double at = std::fabs(t);
  if (std::isinf(at)) return 0.0;
  const double x = dof_ / (dof_ + at * at);
  return tail_.Regularized(x);
}

double StudentTTwoSidedPValue(double t, double dof) {
  return StudentTTwoSided(dof).PValue(t);
}

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double NormalSf(double z) { return 0.5 * std::erfc(z / std::sqrt(2.0)); }

double NormalTwoSidedPValue(double z) {
  return std::erfc(std::fabs(z) / std::sqrt(2.0));
}

double NormalQuantile(double p) {
  DASH_CHECK(p > 0.0 && p < 1.0) << "p=" << p;
  // Acklam's approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Newton step against the exact CDF tightens to ~1e-15.
  const double e = NormalCdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  return x - u / (1.0 + 0.5 * x * u);
}

double FCdf(double f, double d1, double d2) {
  DASH_CHECK_GT(d1, 0.0);
  DASH_CHECK_GT(d2, 0.0);
  if (f <= 0.0) return 0.0;
  if (std::isinf(f)) return 1.0;
  const double x = d1 * f / (d1 * f + d2);
  return RegularizedIncompleteBeta(0.5 * d1, 0.5 * d2, x);
}

double FSf(double f, double d1, double d2) {
  DASH_CHECK_GT(d1, 0.0);
  DASH_CHECK_GT(d2, 0.0);
  if (f <= 0.0) return 1.0;
  if (std::isinf(f)) return 0.0;
  // Complementary form avoids cancellation for large f.
  const double x = d2 / (d2 + d1 * f);
  return RegularizedIncompleteBeta(0.5 * d2, 0.5 * d1, x);
}

double ChiSquareCdf(double x, double k) {
  DASH_CHECK_GT(k, 0.0);
  if (x <= 0.0) return 0.0;
  return RegularizedLowerGamma(0.5 * k, 0.5 * x);
}

double ChiSquareSf(double x, double k) {
  DASH_CHECK_GT(k, 0.0);
  if (x <= 0.0) return 1.0;
  return RegularizedUpperGamma(0.5 * k, 0.5 * x);
}

}  // namespace dash
