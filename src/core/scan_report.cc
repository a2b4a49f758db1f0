#include "core/scan_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <vector>

#include "stats/multiple_testing.h"
#include "stats/pca.h"
#include "util/csv.h"

namespace dash {

std::string RenderScanReport(const ScanResult& scan,
                             const ScanReportOptions& options) {
  std::ostringstream os;
  const int64_t m = scan.num_variants();
  os << "DASH association scan report\n";
  os << "============================\n";
  os << "variants tested : " << (m - scan.num_untestable) << " of " << m;
  if (scan.num_untestable > 0) {
    os << "  (" << scan.num_untestable << " untestable)";
  }
  os << "\n";
  os << "degrees of freedom : " << scan.dof << "\n";

  bool any_finite = false;
  for (const double t : scan.tstat) any_finite = any_finite || !std::isnan(t);
  if (any_finite) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", GenomicControlLambda(scan.tstat));
    os << "genomic control lambda : " << buf << "\n";
  }

  const Vector bonferroni = BonferroniAdjust(scan.pval);
  const Vector bh = BenjaminiHochbergAdjust(scan.pval);
  os << "significant at alpha=" << options.alpha << " : "
     << SignificantAt(bonferroni, options.alpha).size() << " (Bonferroni), "
     << SignificantAt(bh, options.alpha).size() << " (BH FDR)\n\n";

  // Top hits by raw p-value.
  std::vector<int64_t> order;
  for (int64_t j = 0; j < m; ++j) {
    if (!std::isnan(scan.pval[static_cast<size_t>(j)])) order.push_back(j);
  }
  std::sort(order.begin(), order.end(), [&scan](int64_t a, int64_t b) {
    return scan.pval[static_cast<size_t>(a)] < scan.pval[static_cast<size_t>(b)];
  });
  const int64_t rows =
      std::min<int64_t>(options.top_hits, static_cast<int64_t>(order.size()));
  const int ci_pct = static_cast<int>(std::lround(100 * options.confidence_level));
  os << "top " << rows << " hits (CI at " << ci_pct << "%):\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-10s %12s %24s %12s %12s\n", "variant",
                "beta", "confidence interval", "p", "p (BH)");
  os << line;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t j = order[static_cast<size_t>(r)];
    const size_t i = static_cast<size_t>(j);
    const double hw =
        ConfidenceHalfWidth(scan.se[i], scan.dof, options.confidence_level);
    char ci[64];
    std::snprintf(ci, sizeof(ci), "[%+.4f, %+.4f]", scan.beta[i] - hw,
                  scan.beta[i] + hw);
    std::snprintf(line, sizeof(line), "%-10lld %+12.5f %24s %12.3e %12.3e\n",
                  static_cast<long long>(j), scan.beta[i], ci, scan.pval[i],
                  bh[i]);
    os << line;
  }
  return os.str();
}

Status WriteScanReport(const ScanResult& scan, const std::string& path,
                       const ScanReportOptions& options) {
  return WriteTextFile(path, RenderScanReport(scan, options));
}

}  // namespace dash
