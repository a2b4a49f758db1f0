// Golden table for the in-process simulator: the exact result bits and
// traffic counters of SecureAssociationScan::Run and of every secure
// workload built on the secure sum, pinned as constants. Any change to
// the protocol's arithmetic, message pattern or round structure shows
// up here as a changed constant, whichever backend the simulator runs
// on. A mismatch prints the observed row in table syntax.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/burden_scan.h"
#include "core/compressed_study.h"
#include "core/grouped_scan.h"
#include "core/imputation.h"
#include "core/multi_phenotype_scan.h"
#include "core/scan_result.h"
#include "core/secure_online_scan.h"
#include "core/secure_scan.h"
#include "data/missing_data.h"
#include "data/workloads.h"
#include "util/random.h"

namespace dash {
namespace {

// FNV-1a over the bit patterns of a sequence of doubles.
class BitHash {
 public:
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h_ ^= (bits >> (8 * b)) & 0xFFu;
      h_ *= 1099511628211ull;
    }
  }
  void Add(const Vector& v) {
    for (const double x : v) Add(x);
  }
  void Add(const Matrix& m) {
    for (int64_t i = 0; i < m.size(); ++i) Add(m.data()[i]);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

struct ScanConfig {
  const char* name;
  AggregationMode aggregation;
  RCombineMode r_combine;
  ProjectionSecurity projection;
  bool center_per_party;
  int num_threads;
};

constexpr ScanConfig kConfigs[] = {
    {"public-stack", AggregationMode::kPublicShare,
     RCombineMode::kBroadcastStack, ProjectionSecurity::kRevealProjectedSums,
     false, 1},
    {"additive-tree-centered", AggregationMode::kAdditive,
     RCombineMode::kBinaryTree, ProjectionSecurity::kRevealProjectedSums, true,
     1},
    {"masked-stack-threads", AggregationMode::kMasked,
     RCombineMode::kBroadcastStack, ProjectionSecurity::kRevealProjectedSums,
     false, 2},
    {"shamir-tree-centered", AggregationMode::kShamir,
     RCombineMode::kBinaryTree, ProjectionSecurity::kRevealProjectedSums, true,
     1},
    {"public-tree", AggregationMode::kPublicShare, RCombineMode::kBinaryTree,
     ProjectionSecurity::kRevealProjectedSums, false, 1},
    {"masked-tree-beaver", AggregationMode::kMasked, RCombineMode::kBinaryTree,
     ProjectionSecurity::kBeaverDotProducts, false, 1},
    {"additive-stack-beaver-centered", AggregationMode::kAdditive,
     RCombineMode::kBroadcastStack, ProjectionSecurity::kBeaverDotProducts,
     true, 1},
    {"shamir-stack-beaver", AggregationMode::kShamir,
     RCombineMode::kBroadcastStack, ProjectionSecurity::kBeaverDotProducts,
     false, 1},
};

struct GoldenScan {
  int parties;
  const char* config;
  uint64_t checksum;
  int64_t total_bytes;
  int64_t total_messages;
  int64_t max_link_bytes;
  int rounds;
};

// clang-format off
constexpr GoldenScan kGoldenScans[] = {
    {1, "public-stack", 0x9aa92e5f675df71bull, 0, 0, 0, 0},
    {1, "additive-tree-centered", 0x3fda10ab2c7bb1a8ull, 0, 0, 0, 0},
    {1, "masked-stack-threads", 0x9aa92e5f675df71bull, 0, 0, 0, 0},
    {1, "shamir-tree-centered", 0x3fda10ab2c7bb1a8ull, 0, 0, 0, 0},
    {1, "public-tree", 0x9aa92e5f675df71bull, 0, 0, 0, 0},
    {1, "masked-tree-beaver", 0xe76a9fb4efbc34c8ull, 0, 0, 0, 2},
    {1, "additive-stack-beaver-centered", 0xa8925ff07a446abdull, 0, 0, 0, 2},
    {1, "shamir-stack-beaver", 0xe76a9fb4efbc34c8ull, 0, 0, 0, 2},
    {2, "public-stack", 0x9b123dbe5dfa2701ull, 1696, 8, 848, 4},
    {2, "additive-tree-centered", 0x259820a637810a18ull, 2464, 10, 1232, 6},
    {2, "masked-stack-threads", 0xb0286543b90459a0ull, 1744, 10, 872, 5},
    {2, "shamir-tree-centered", 0x259820a637810a18ull, 2464, 10, 1232, 6},
    {2, "public-tree", 0x9b123dbe5dfa2701ull, 1696, 8, 848, 5},
    {2, "masked-tree-beaver", 0x44c1c58a696feca8ull, 4720, 14, 2360, 8},
    {2, "additive-stack-beaver-centered", 0x3bdb6f40e21c57b2ull, 4112, 14, 2056, 7},
    {2, "shamir-stack-beaver", 0x44c1c58a696feca8ull, 5248, 14, 2624, 7},
    {3, "public-stack", 0xdb16a7a122469e2aull, 5088, 24, 848, 4},
    {3, "additive-tree-centered", 0xbcb56daa871fb640ull, 7264, 28, 1232, 7},
    {3, "masked-stack-threads", 0xc400eb37a6ec7858ull, 5232, 30, 872, 5},
    {3, "shamir-tree-centered", 0xbcb56daa871fb640ull, 7264, 28, 1232, 7},
    {3, "public-tree", 0x1eab8a18d0e51eaeull, 4880, 22, 848, 6},
    {3, "masked-tree-beaver", 0x1f51de7035a50cedull, 13952, 40, 2360, 9},
    {3, "additive-stack-beaver-centered", 0x1b121eaeca5e3000ull, 12336, 42, 2056, 7},
    {3, "shamir-stack-beaver", 0x1f51de7035a50cedull, 15744, 42, 2624, 7},
    {5, "public-stack", 0xfc12e77665a20b99ull, 16960, 80, 848, 4},
    {5, "additive-tree-centered", 0xca16c99d55a240c0ull, 23872, 88, 1232, 8},
    {5, "masked-stack-threads", 0x842dad2c8cc6d1cbull, 17440, 100, 872, 5},
    {5, "shamir-tree-centered", 0xca16c99d55a240c0ull, 23872, 88, 1232, 8},
    {5, "public-tree", 0xfc12e77665a20b99ull, 15712, 68, 848, 7},
    {5, "masked-tree-beaver", 0x2992c867eebd93d7ull, 45952, 128, 2360, 10},
    {5, "additive-stack-beaver-centered", 0x48441f210bf6a60eull, 41120, 140, 2056, 7},
    {5, "shamir-stack-beaver", 0x2992c867eebd93d7ull, 52480, 140, 2624, 7},
};
// clang-format on

std::vector<int64_t> PartySizes(int parties) {
  switch (parties) {
    case 1:
      return {90};
    case 2:
      return {40, 55};
    case 3:
      return {40, 55, 45};
    default:
      return {30, 40, 35, 45, 25};
  }
}

std::vector<PartyData> MakeParties(int parties, bool drop_intercept) {
  GwasWorkloadOptions options;
  options.party_sizes = PartySizes(parties);
  options.num_variants = 16;
  options.num_covariates = 3;
  options.num_causal = 2;
  options.seed = 5;
  auto workload = MakeGwasWorkload(options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  std::vector<PartyData> out = std::move(workload).value().parties;
  if (drop_intercept) {
    // Centering absorbs the intercept (column 0 of C).
    for (auto& party : out) {
      Matrix c(party.c.rows(), party.c.cols() - 1);
      for (int64_t r = 0; r < c.rows(); ++r) {
        for (int64_t j = 0; j < c.cols(); ++j) c(r, j) = party.c(r, j + 1);
      }
      party.c = std::move(c);
    }
  }
  return out;
}

SecureScanOptions OptionsFor(const ScanConfig& config) {
  SecureScanOptions options;
  options.aggregation = config.aggregation;
  options.r_combine = config.r_combine;
  options.projection = config.projection;
  options.center_per_party = config.center_per_party;
  options.num_threads = config.num_threads;
  return options;
}

std::string Row(int parties, const char* config, uint64_t checksum,
                const SecureScanMetrics& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%d, \"%s\", 0x%016" PRIx64 "ull, %" PRId64 ", %" PRId64
                ", %" PRId64 ", %d},",
                parties, config, checksum, m.total_bytes, m.total_messages,
                m.max_link_bytes, m.rounds);
  return buf;
}

const GoldenScan* FindGolden(int parties, const std::string& config) {
  for (const GoldenScan& g : kGoldenScans) {
    if (g.parties == parties && config == g.config) {
      return &g;
    }
  }
  return nullptr;
}

TEST(SimulatorGoldenTest, SecureScanBitsAndTraffic) {
  std::string observed;
  int mismatches = 0;
  for (const int parties : {1, 2, 3, 5}) {
    for (const ScanConfig& config : kConfigs) {
      const auto data = MakeParties(parties, config.center_per_party);
      const auto out = SecureAssociationScan(OptionsFor(config)).Run(data);
      ASSERT_TRUE(out.ok()) << config.name << " P=" << parties << ": "
                            << out.status();
      const uint64_t checksum = ScanResultChecksum(out->result);
      const std::string row =
          Row(parties, config.name, checksum, out->metrics);
      observed += "    " + row + "\n";
      const GoldenScan* g = FindGolden(parties, config.name);
      const bool match =
          g != nullptr && g->checksum == checksum &&
          g->total_bytes == out->metrics.total_bytes &&
          g->total_messages == out->metrics.total_messages &&
          g->max_link_bytes == out->metrics.max_link_bytes &&
          g->rounds == out->metrics.rounds;
      if (!match) {
        ++mismatches;
        ADD_FAILURE() << config.name << " P=" << parties << " observed "
                      << row;
      }
    }
  }
  if (mismatches > 0) {
    std::printf("observed golden table:\n%s", observed.c_str());
  }
}

// --- Workloads on the runner's summand protocol -----------------------

struct GoldenWorkload {
  const char* name;
  uint64_t checksum;
  int64_t total_bytes;
  int rounds;
};

// clang-format off
constexpr GoldenWorkload kGoldenWorkloads[] = {
    {"grouped", 0x78d2e12e8747f815ull, 5648, 6},
    {"multi-phenotype", 0x38576f81103c161eull, 11040, 4},
    {"compressed-study", 0xfd06a8bd9e69866dull, 38240, 3},
    {"mean-impute", 0x6844677a0c1407b8ull, 1968, 3},
    {"online", 0x0b2d2014300d8455ull, 4752, 2},
    {"burden", 0xbe9a9699288dca72ull, 7840, 5},
};
// clang-format on

void ExpectWorkload(const char* name, uint64_t checksum,
                    const SecureScanMetrics& m) {
  for (const GoldenWorkload& g : kGoldenWorkloads) {
    if (std::string(g.name) == name) {
      EXPECT_TRUE(g.checksum == checksum && g.total_bytes == m.total_bytes &&
                  g.rounds == m.rounds)
          << name << " observed {\"" << name << "\", 0x" << std::hex
          << checksum << std::dec << "ull, " << m.total_bytes << ", "
          << m.rounds << "},";
      return;
    }
  }
  ADD_FAILURE() << name << " has no golden row; observed {\"" << name
                << "\", 0x" << std::hex << checksum << std::dec << "ull, "
                << m.total_bytes << ", " << m.rounds << "},";
}

TEST(SimulatorGoldenTest, GroupedScan) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  options.r_combine = RCombineMode::kBinaryTree;
  const auto out = SecureGroupedScan(MakeParties(3, false), 2, options);
  ASSERT_TRUE(out.ok()) << out.status();
  BitHash h;
  h.Add(out->result.beta);
  h.Add(out->result.se);
  h.Add(out->result.fstat);
  h.Add(out->result.pval);
  ExpectWorkload("grouped", h.value(), out->metrics);
}

std::vector<MultiPhenotypePartyData> MakeMultiParties(int parties) {
  std::vector<MultiPhenotypePartyData> out;
  for (const PartyData& p : MakeParties(parties, false)) {
    MultiPhenotypePartyData m;
    m.x = p.x;
    m.c = p.c;
    m.ys = Matrix(p.x.rows(), 2);
    for (int64_t i = 0; i < p.x.rows(); ++i) {
      m.ys(i, 0) = p.y[static_cast<size_t>(i)];
      m.ys(i, 1) = 0.5 * p.x(i, 3) - 0.25 * p.c(i, 1) + 0.1 * p.y[static_cast<size_t>(i)];
    }
    out.push_back(std::move(m));
  }
  return out;
}

TEST(SimulatorGoldenTest, MultiPhenotypeScan) {
  SecureScanOptions options;
  options.aggregation = AggregationMode::kAdditive;
  options.r_combine = RCombineMode::kBroadcastStack;
  const auto out = SecureMultiPhenotypeScan(MakeMultiParties(3), options);
  ASSERT_TRUE(out.ok()) << out.status();
  BitHash h;
  for (const ScanResult& r : out->results) {
    h.Add(static_cast<double>(ScanResultChecksum(r)));
  }
  ExpectWorkload("multi-phenotype", h.value(), out->metrics);
}

TEST(SimulatorGoldenTest, CompressedStudyAggregate) {
  std::vector<CompressedStudy> locals;
  for (const auto& p : MakeMultiParties(5)) {
    locals.push_back(CompressedStudy::Compress(p.x, p.ys, p.c).value());
  }
  SecureScanOptions options;
  options.aggregation = AggregationMode::kShamir;
  const auto out = CompressedStudy::SecureAggregate(locals, options);
  ASSERT_TRUE(out.ok()) << out.status();
  BitHash h;
  h.Add(static_cast<double>(out->study.num_samples()));
  for (const int64_t t : {0, 1}) {
    h.Add(static_cast<double>(
        ScanResultChecksum(out->study.ScanAllCovariates(t).value())));
    h.Add(static_cast<double>(
        ScanResultChecksum(out->study.Scan(t, {0, 2}).value())));
  }
  ExpectWorkload("compressed-study", h.value(), out->metrics);
}

TEST(SimulatorGoldenTest, MeanImputation) {
  std::vector<PartyData> parties = MakeParties(3, false);
  Rng rng(17);
  for (auto& p : parties) InjectMissingness(0.1, &rng, &p.x);
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  const auto out = SecureMeanImpute(&parties, options);
  ASSERT_TRUE(out.ok()) << out.status();
  BitHash h;
  h.Add(out->means);
  h.Add(out->call_rates);
  h.Add(static_cast<double>(out->total_missing));
  for (const auto& p : parties) h.Add(p.x);
  ExpectWorkload("mean-impute", h.value(), out->metrics);
}

TEST(SimulatorGoldenTest, OnlineScanFinalize) {
  const std::vector<PartyData> parties = MakeParties(3, false);
  SecureScanOptions options;
  options.aggregation = AggregationMode::kPublicShare;
  SecureOnlineScan online(3, parties[0].x.cols(), parties[0].c.cols(),
                          options);
  for (int p = 0; p < 3; ++p) {
    const PartyData& pd = parties[static_cast<size_t>(p)];
    const int64_t half = pd.x.rows() / 2;
    for (const auto& [begin, end] :
         {std::pair<int64_t, int64_t>{0, half}, {half, pd.x.rows()}}) {
      Matrix x(end - begin, pd.x.cols());
      Matrix c(end - begin, pd.c.cols());
      Vector y(static_cast<size_t>(end - begin));
      for (int64_t i = begin; i < end; ++i) {
        for (int64_t j = 0; j < x.cols(); ++j) x(i - begin, j) = pd.x(i, j);
        for (int64_t j = 0; j < c.cols(); ++j) c(i - begin, j) = pd.c(i, j);
        y[static_cast<size_t>(i - begin)] = pd.y[static_cast<size_t>(i)];
      }
      ASSERT_TRUE(online.AddBatch(p, x, y, c).ok());
    }
  }
  const auto out = online.Finalize();
  ASSERT_TRUE(out.ok()) << out.status();
  ExpectWorkload("online", ScanResultChecksum(out->result), out->metrics);
}

TEST(SimulatorGoldenTest, BurdenScan) {
  std::vector<int64_t> gene_of_variant;
  for (int64_t v = 0; v < 16; ++v) gene_of_variant.push_back(v / 4);
  const Matrix weights =
      BurdenWeightsFromGeneAssignment(gene_of_variant, 4).value();
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;
  const auto out = SecureBurdenScan(MakeParties(5, false), weights, options);
  ASSERT_TRUE(out.ok()) << out.status();
  ExpectWorkload("burden", ScanResultChecksum(out->result), out->metrics);
}

}  // namespace
}  // namespace dash
