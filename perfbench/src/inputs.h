// Seeded synthetic studies, generated straight into the 2-bit packed
// form the scan consumes.
//
// Each party's slice is drawn independently of the others from the
// workload seed: Hardy-Weinberg genotypes at a per-variant minor-allele
// frequency shared by all parties, an intercept plus Gaussian permanent
// covariates, and a phenotype with a few planted causal variants. The
// dense pooled N x M matrix is never built, so a 100k x 10k study costs
// its packed size (~250 MB) instead of ~8 GB of doubles.
//
// The plaintext reference pools only a seeded sample of variant columns
// and fits each with the pooled OLS of stats/ols.h; the secure scan's
// beta/se for those variants must agree within kReferenceTolerance.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "core/scan_result.h"
#include "linalg/matrix.h"
#include "linalg/packed_matrix.h"
#include "util/status.h"

namespace perfbench {

struct StudyShape {
  int num_parties = 3;
  int64_t samples_per_party = 0;
  int64_t variants = 0;
  int64_t covariates = 0;  // K, intercept included
  int64_t causal = 8;      // planted causal variants
};

struct PartySlice {
  dash::PackedGenotypeMatrix x{0, 0};
  dash::Vector y;
  dash::Matrix c;
};

struct Study {
  StudyShape shape;
  std::vector<PartySlice> parties;
  std::vector<int64_t> causal;  // planted variant indices
};

// Generates every party's slice, one thread per party. Deterministic in
// (shape, seed) regardless of thread scheduling.
Study GenerateStudy(const StudyShape& shape, uint64_t seed);

// Pooled plaintext fit of one variant: y ~ x_j + C.
struct ReferenceFit {
  int64_t variant = 0;
  double beta = 0.0;
  double se = 0.0;
};

// Fits `count` variants chosen from `seed`: up to half of them planted
// causal variants, the rest uniform.
dash::Result<std::vector<ReferenceFit>> FitReference(const Study& study,
                                                     int count, uint64_t seed);

// Agreement bound between the secure scan and the pooled plaintext fit:
// |beta - beta_ref| <= tol * se_ref and |se - se_ref| <= tol * se_ref.
// The 40-bit fixed-point secure sum perturbs the statistics by ~1e-12
// absolute, many orders below this.
inline constexpr double kReferenceTolerance = 1e-6;

// Ok when `result` matches every reference fit within the tolerance.
dash::Status CheckAgainstReference(const dash::ScanResult& result,
                                   const std::vector<ReferenceFit>& reference);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
