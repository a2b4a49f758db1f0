// Special functions underlying the distribution code: log-gamma,
// regularized incomplete beta (for the Student-t CDF) and regularized
// incomplete gamma (for the chi-square CDF). Implementations follow the
// classic Lentz continued-fraction / series forms and are accurate to
// ~1e-12 over the parameter ranges the library uses.

#ifndef DASH_STATS_SPECIAL_FUNCTIONS_H_
#define DASH_STATS_SPECIAL_FUNCTIONS_H_

namespace dash {

// ln Γ(x) for x > 0.
double LogGamma(double x);

// I_x(a, b) at fixed a, b > 0 for many x: the log-gamma terms
// LogGamma(a + b) − LogGamma(a) − LogGamma(b) are computed once, in the
// constructor, and each call adds a·log x + b·log1p(−x) in the same
// order RegularizedIncompleteBeta always did, so the bits are the same.
class IncompleteBeta {
 public:
  IncompleteBeta(double a, double b);

  // I_x(a, b), x in [0, 1].
  double Regularized(double x) const;

 private:
  double a_;
  double b_;
  double log_gamma_terms_;
};

// I_x(a, b): the regularized incomplete beta function, a,b > 0,
// x in [0, 1].
double RegularizedIncompleteBeta(double a, double b, double x);

// P(a, x): the regularized lower incomplete gamma function, a > 0, x >= 0.
double RegularizedLowerGamma(double a, double x);

// Q(a, x) = 1 - P(a, x).
double RegularizedUpperGamma(double a, double x);

}  // namespace dash

#endif  // DASH_STATS_SPECIAL_FUNCTIONS_H_
