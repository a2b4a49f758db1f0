// Probability distributions for test statistics.
//
// The association scan turns each (beta_hat, sigma_hat) into a t-statistic
// with N-K-1 degrees of freedom and the two-sided p-value
// 2 * pt(-|t|, dof) — exactly the paper's §4 finale. Normal and
// chi-square CDFs support the meta-analysis baseline (z-tests, Cochran's
// Q heterogeneity test) and power calculations in the benches.

#ifndef DASH_STATS_DISTRIBUTIONS_H_
#define DASH_STATS_DISTRIBUTIONS_H_

#include "stats/special_functions.h"

namespace dash {

// --- Student t with `dof` degrees of freedom (dof > 0) ---

// P(T <= t).
double StudentTCdf(double t, double dof);

// P(T > t).
double StudentTSf(double t, double dof);

// Two-sided p-values 2 * P(T > |t|) at one dof, for many t: the
// log-gamma terms of the incomplete beta behind them are computed once,
// so a scan's finalization pays for them once, not once per variant.
class StudentTTwoSided {
 public:
  explicit StudentTTwoSided(double dof);

  // NaN for NaN t, 0 for ±inf.
  double PValue(double t) const;

 private:
  double dof_;
  IncompleteBeta tail_;
};

// Two-sided p-value 2 * P(T > |t|).
double StudentTTwoSidedPValue(double t, double dof);

// --- Standard normal ---

// P(Z <= z).
double NormalCdf(double z);

// P(Z > z).
double NormalSf(double z);

// Two-sided p-value 2 * P(Z > |z|).
double NormalTwoSidedPValue(double z);

// Inverse CDF (Acklam's rational approximation + one Newton polish);
// p must lie strictly inside (0, 1).
double NormalQuantile(double p);

// --- F distribution with (d1, d2) degrees of freedom (both > 0) ---
// Used by the grouped scan's joint tests (multiple transient covariates,
// e.g. genotype x environment interactions).

// P(F <= f).
double FCdf(double f, double d1, double d2);

// P(F > f).
double FSf(double f, double d1, double d2);

// --- Chi-square with k degrees of freedom (k > 0) ---

// P(X <= x).
double ChiSquareCdf(double x, double k);

// P(X > x).
double ChiSquareSf(double x, double k);

}  // namespace dash

#endif  // DASH_STATS_DISTRIBUTIONS_H_
