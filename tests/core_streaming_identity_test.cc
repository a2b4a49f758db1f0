// Streamed scan == in-memory scan, BIT FOR BIT — including through a
// crash (DESIGN.md §15).
//
// Three contracts, each pinned exactly:
//
//   1. IDENTITY. ComputeLocalStatsStreamed over any PanelSource equals
//      ComputeLocalStatsPackedFlat on the same study bit for bit —
//      across sample counts that straddle every panel boundary (N not
//      a multiple of 256, one-row remainders), variant counts around
//      the kernels' column blocks, every dispatchable ISA, file-backed
//      sources, and thread pools.
//
//   2. RESUME. Killing the stream after ANY panel (a FailingPanelSource
//      sweeps every crash point) and re-running from the surviving
//      checkpoint yields the same bits as an uninterrupted run —
//      whatever the checkpoint cadence.
//
//   3. SAFETY. A checkpoint that is absent, truncated, corrupt, or
//      keyed to a different study/shape is IGNORED (fresh start, right
//      answer), never trusted into a wrong result.
//
//   4. RUNNER. A streamed secure scan reveals the in-memory scan's
//      exact result under either projection mode: Phase 2 builds the
//      same summand arena from either source.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/kernels/stats_kernels.h"
#include "core/scan_checkpoint.h"
#include "core/secure_scan.h"
#include "core/streaming_stats.h"
#include "core/suff_stats.h"
#include "data/genotype_generator.h"
#include "data/panel_stream.h"
#include "data/workloads.h"
#include "linalg/packed_matrix.h"
#include "linalg/qr.h"
#include "net/network.h"
#include "transport/party_runner.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dash {
namespace {

struct ScopedIsa {
  explicit ScopedIsa(kernels::StatsIsa isa) {
    kernels::ForceStatsIsaForTesting(isa);
  }
  ~ScopedIsa() { kernels::ResetStatsIsaForTesting(); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
};

void ExpectBitIdentical(const Vector& a, const Vector& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b[i], sizeof(bits_b));
    ASSERT_EQ(bits_a, bits_b)
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

struct Study {
  PackedGenotypeMatrix x{0, 0};
  Vector y;
  Matrix q{0, 0};
  uint64_t tag = 0;
};

Study MakeStudy(int64_t n, int64_t m, int64_t k, uint64_t seed) {
  GenotypeOptions geno;
  geno.num_samples = n;
  geno.num_variants = m;
  geno.maf_min = 0.02;
  geno.maf_max = 0.4;
  geno.seed = seed;
  Study study;
  study.x = PackedGenotypeMatrix::FromDense(GenerateGenotypes(geno));
  Rng rng(seed + 1);
  study.y = GaussianVector(n, &rng);
  if (k == 0) {
    study.q = Matrix(n, 0);
  } else if (n < k) {
    study.q = GaussianMatrix(n, k, &rng);
  } else {
    study.q = ThinQr(GaussianMatrix(n, k, &rng)).value().q;
  }
  study.tag = seed;
  return study;
}

Vector InMemoryReference(const Study& study) {
  return ComputeLocalStatsPackedFlat(study.x, study.y, study.q);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "streaming_identity_" + name;
}

// A party killed mid-stream: panels from `fail_at` on read as
// Unavailable. The prefetcher reports a read error only when the scan
// consumes that panel, so the scan stops after folding (and
// checkpointing) panels 0..fail_at-1 — what a SIGKILL there leaves.
class FailingPanelSource final : public PanelSource {
 public:
  FailingPanelSource(PanelSource* inner, int64_t fail_at)
      : inner_(inner), fail_at_(fail_at) {}

  int64_t num_samples() const override { return inner_->num_samples(); }
  int64_t num_variants() const override { return inner_->num_variants(); }
  uint64_t fingerprint() const override { return inner_->fingerprint(); }

  Status ReadPanel(int64_t panel, PackedGenotypeMatrix* out) override {
    if (panel >= fail_at_) {
      return UnavailableError("injected read failure at panel " +
                              std::to_string(panel));
    }
    return inner_->ReadPanel(panel, out);
  }

 private:
  PanelSource* inner_;
  int64_t fail_at_;
};

// ---- 1. identity -----------------------------------------------------

TEST(StreamingIdentityTest, StreamedMatchesInMemoryAcrossBoundaries) {
  // Sample counts straddle the 256-row panel edges (one-row study,
  // one-row last panel, exact multiples); variant counts straddle the
  // 128-column kernel blocks.
  for (const int64_t n : {1, 255, 256, 257, 511, 512, 513, 600, 1300}) {
    for (const int64_t m : {1, 127, 128, 129, 300}) {
      const Study study = MakeStudy(n, m, 3, static_cast<uint64_t>(n + m));
      InMemoryPanelSource source(study.x, study.y, study.q, study.tag);
      auto streamed = ComputeLocalStatsStreamed(&source, study.y, study.q);
      ASSERT_TRUE(streamed.ok()) << streamed.status();
      SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
      EXPECT_EQ(streamed->num_samples, n);
      EXPECT_EQ(streamed->resumed_from_panel, 0);
      EXPECT_EQ(streamed->panels_streamed, source.num_panels());
      ExpectBitIdentical(streamed->flat, InMemoryReference(study),
                         "streamed flat");
    }
  }
}

TEST(StreamingIdentityTest, StreamedMatchesInMemoryEveryIsa) {
  const Study study = MakeStudy(600, 130, 4, 77);
  InMemoryPanelSource source(study.x, study.y, study.q, study.tag);
  for (const kernels::StatsIsa isa : kernels::AvailableStatsIsas()) {
    ScopedIsa pin(isa);
    SCOPED_TRACE(kernels::StatsIsaName(isa));
    // Reference and streamed run under the SAME pinned ISA; identity
    // must hold per-ISA (the add chains differ between ISAs).
    const Vector want = InMemoryReference(study);
    auto streamed = ComputeLocalStatsStreamed(&source, study.y, study.q);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    ExpectBitIdentical(streamed->flat, want, "streamed flat (ISA)");
  }
}

TEST(StreamingIdentityTest, FileSourceWithAndWithoutPool) {
  const Study study = MakeStudy(1300, 90, 3, 31);  // 6 panels
  Matrix c = study.q;  // any dense C works; q is what the scan consumes
  const std::string path = TempPath("file_identity.dpk");
  ASSERT_TRUE(WritePackedStudy(path, study.x, study.y, c, study.tag).ok());
  const Vector want = InMemoryReference(study);
  ThreadPool pool(3);

  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto reader = PackedStudyReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    StreamingStatsOptions options;
    options.pool = p;
    SCOPED_TRACE(p ? "pool" : "serial");
    auto streamed = ComputeLocalStatsStreamed(reader.value().get(), study.y,
                                              study.q, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    ExpectBitIdentical(streamed->flat, want, "file-streamed flat");
  }
}

TEST(StreamingIdentityTest, ZeroCovariatesAndShapeErrors) {
  const Study study = MakeStudy(600, 40, 0, 5);
  InMemoryPanelSource source(study.x, study.y, study.q, study.tag);
  auto streamed = ComputeLocalStatsStreamed(&source, study.y, study.q);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  ExpectBitIdentical(streamed->flat, InMemoryReference(study), "k=0 flat");

  Vector short_y(study.y.begin(), study.y.end() - 1);
  auto bad = ComputeLocalStatsStreamed(&source, short_y, study.q);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  StreamingStatsOptions zero_every;
  zero_every.checkpoint_every_panels = 0;
  auto bad_every =
      ComputeLocalStatsStreamed(&source, study.y, study.q, zero_every);
  ASSERT_FALSE(bad_every.ok());
  EXPECT_EQ(bad_every.status().code(), StatusCode::kInvalidArgument);
}

// ---- 2. kill-at-every-checkpoint resume sweep ------------------------

TEST(StreamingIdentityTest, KillAtEveryPanelThenResumeIsBitIdentical) {
  const Study study = MakeStudy(1300, 60, 3, 99);  // 6 panels
  InMemoryPanelSource source(study.x, study.y, study.q, study.tag);
  const int64_t num_panels = source.num_panels();
  ASSERT_EQ(num_panels, 6);
  const Vector want = InMemoryReference(study);

  for (const int64_t every : {1, 2, 4}) {
    for (int64_t j = 1; j < num_panels; ++j) {
      SCOPED_TRACE("every=" + std::to_string(every) +
                   " crash_after=" + std::to_string(j));
      const std::string ckpt =
          TempPath("sweep_" + std::to_string(every) + "_" + std::to_string(j) +
                   ".dck");
      RemoveScanCheckpoint(ckpt);

      StreamingStatsOptions crash;
      crash.checkpoint_path = ckpt;
      crash.checkpoint_every_panels = every;
      FailingPanelSource failing(&source, j);
      auto killed = ComputeLocalStatsStreamed(&failing, study.y, study.q, crash);
      ASSERT_FALSE(killed.ok());
      EXPECT_EQ(killed.status().code(), StatusCode::kUnavailable);

      // The last durable checkpoint covers the most recent multiple of
      // `every` panels, never the in-flight tail (non-final panels only).
      int64_t expect_resume = (j / every) * every;
      if (expect_resume >= num_panels) expect_resume -= every;

      StreamingStatsOptions resume;
      resume.checkpoint_path = ckpt;
      resume.checkpoint_every_panels = every;
      auto resumed =
          ComputeLocalStatsStreamed(&source, study.y, study.q, resume);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      EXPECT_EQ(resumed->resumed_from_panel, expect_resume);
      EXPECT_EQ(resumed->panels_streamed, num_panels - expect_resume);
      ExpectBitIdentical(resumed->flat, want, "resumed flat");
      RemoveScanCheckpoint(ckpt);
    }
  }
}

TEST(StreamingIdentityTest, ResumeSweepOnFileSourceEveryIsa) {
  // The cross product that matters most in production: a DASHPACK file,
  // a crash at each checkpoint boundary, every ISA — same bits.
  const Study study = MakeStudy(700, 50, 2, 12);  // 3 panels
  const std::string path = TempPath("resume_file.dpk");
  ASSERT_TRUE(
      WritePackedStudy(path, study.x, study.y, study.q, study.tag).ok());
  for (const kernels::StatsIsa isa : kernels::AvailableStatsIsas()) {
    ScopedIsa pin(isa);
    SCOPED_TRACE(kernels::StatsIsaName(isa));
    const Vector want = InMemoryReference(study);
    for (int64_t j = 1; j < 3; ++j) {
      const std::string ckpt = TempPath("resume_file.dck");
      RemoveScanCheckpoint(ckpt);
      auto reader = PackedStudyReader::Open(path);
      ASSERT_TRUE(reader.ok());
      StreamingStatsOptions crash;
      crash.checkpoint_path = ckpt;
      crash.checkpoint_every_panels = 1;
      FailingPanelSource failing(reader.value().get(), j);
      auto killed =
          ComputeLocalStatsStreamed(&failing, study.y, study.q, crash);
      ASSERT_FALSE(killed.ok());

      StreamingStatsOptions resume;
      resume.checkpoint_path = ckpt;
      auto resumed = ComputeLocalStatsStreamed(reader.value().get(), study.y,
                                               study.q, resume);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      EXPECT_EQ(resumed->resumed_from_panel, j);
      ExpectBitIdentical(resumed->flat, want, "file resume");
      RemoveScanCheckpoint(ckpt);
    }
  }
}

// ---- 3. checkpoint safety --------------------------------------------

TEST(StreamingIdentityTest, CheckpointRoundTripAndTypedFailures) {
  const std::string path = TempPath("ckpt_roundtrip.dck");
  ScanCheckpoint ckpt;
  ckpt.key = ScanCheckpointKey(0xabcdef, 60, 3);
  ckpt.panels_done = 4;
  ckpt.flat = {1.5, -2.25, 0.0, 1e300};
  ASSERT_TRUE(SaveScanCheckpoint(path, ckpt).ok());
  auto loaded = LoadScanCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->key, ckpt.key);
  EXPECT_EQ(loaded->panels_done, 4);
  ExpectBitIdentical(loaded->flat, ckpt.flat, "checkpoint payload");

  auto missing = LoadScanCheckpoint(TempPath("ckpt_missing.dck"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Flip one payload byte: the trailing checksum must catch it.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[45] = static_cast<char>(bytes[45] ^ 0x80);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto corrupt = LoadScanCheckpoint(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);
  RemoveScanCheckpoint(path);
  EXPECT_EQ(LoadScanCheckpoint(path).status().code(), StatusCode::kNotFound);
}

TEST(StreamingIdentityTest, CheckpointKeySeparatesStudyAndShape) {
  const uint64_t k1 = ScanCheckpointKey(1, 60, 3);
  EXPECT_NE(k1, ScanCheckpointKey(2, 60, 3));  // different study
  EXPECT_NE(k1, ScanCheckpointKey(1, 61, 3));  // different M
  EXPECT_NE(k1, ScanCheckpointKey(1, 60, 4));  // different K
  EXPECT_EQ(k1, ScanCheckpointKey(1, 60, 3));
}

TEST(StreamingIdentityTest, ForeignOrDamagedCheckpointMeansFreshStart) {
  const Study study = MakeStudy(700, 50, 2, 12);
  const Study other = MakeStudy(700, 50, 2, 13);  // same shape, other data
  InMemoryPanelSource source(study.x, study.y, study.q, study.tag);
  InMemoryPanelSource other_source(other.x, other.y, other.q, other.tag);
  const Vector want = InMemoryReference(study);
  const std::string ckpt = TempPath("foreign.dck");

  // Plant a checkpoint from the OTHER study (crash mid-stream there).
  {
    RemoveScanCheckpoint(ckpt);
    StreamingStatsOptions crash;
    crash.checkpoint_path = ckpt;
    crash.checkpoint_every_panels = 1;
    FailingPanelSource failing(&other_source, 2);
    auto killed =
        ComputeLocalStatsStreamed(&failing, other.y, other.q, crash);
    ASSERT_FALSE(killed.ok());
  }

  // Resuming THIS study against it: key mismatch, fresh start, right
  // bits — a stale checkpoint can cost time, never correctness.
  StreamingStatsOptions options;
  options.checkpoint_path = ckpt;
  auto streamed = ComputeLocalStatsStreamed(&source, study.y, study.q,
                                            options);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(streamed->resumed_from_panel, 0);
  ExpectBitIdentical(streamed->flat, want, "foreign checkpoint ignored");

  // Same with a truncated checkpoint file.
  {
    RemoveScanCheckpoint(ckpt);
    StreamingStatsOptions crash;
    crash.checkpoint_path = ckpt;
    crash.checkpoint_every_panels = 1;
    FailingPanelSource failing(&source, 2);
    auto killed = ComputeLocalStatsStreamed(&failing, study.y, study.q, crash);
    ASSERT_FALSE(killed.ok());
    std::ifstream in(ckpt, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto after_truncation =
      ComputeLocalStatsStreamed(&source, study.y, study.q, options);
  ASSERT_TRUE(after_truncation.ok()) << after_truncation.status();
  EXPECT_EQ(after_truncation->resumed_from_panel, 0);
  ExpectBitIdentical(after_truncation->flat, want,
                     "truncated checkpoint ignored");
  RemoveScanCheckpoint(ckpt);
}

TEST(StreamingIdentityTest, CompletedRunKeepsCheckpointForCaller) {
  // The scan loop intentionally does NOT remove the checkpoint on
  // success: the protocol layer owns its lifecycle (it must survive a
  // crash between local stats and the commit round).
  const Study study = MakeStudy(700, 30, 2, 44);
  InMemoryPanelSource source(study.x, study.y, study.q, study.tag);
  const std::string ckpt = TempPath("lifecycle.dck");
  RemoveScanCheckpoint(ckpt);
  StreamingStatsOptions options;
  options.checkpoint_path = ckpt;
  options.checkpoint_every_panels = 1;
  auto streamed = ComputeLocalStatsStreamed(&source, study.y, study.q,
                                            options);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->checkpoints_written, 2);  // panels 1 and 2 of 3
  EXPECT_TRUE(LoadScanCheckpoint(ckpt).ok());
  RemoveScanCheckpoint(ckpt);
}

// ---- 4. the streamed runner ------------------------------------------

TEST(StreamingIdentityTest, StreamedRunnerMatchesInMemoryEveryProjection) {
  GwasWorkloadOptions wopts;
  wopts.party_sizes = {300, 260, 280};  // every party ends mid-panel
  wopts.num_variants = 40;
  wopts.num_covariates = 3;
  wopts.seed = 21;
  const ScanWorkload workload = MakeGwasWorkload(wopts).value();
  const int p = static_cast<int>(workload.parties.size());
  std::vector<PackedGenotypeMatrix> packed;
  for (const PartyData& party : workload.parties) {
    auto x = PackedGenotypeMatrix::TryFromDense(party.x);
    ASSERT_TRUE(x.has_value());
    packed.push_back(std::move(*x));
  }
  for (const ProjectionSecurity projection :
       {ProjectionSecurity::kRevealProjectedSums,
        ProjectionSecurity::kBeaverDotProducts}) {
    SCOPED_TRACE(ProjectionSecurityName(projection));
    SecureScanOptions options;
    options.projection = projection;
    const auto reference = SecureAssociationScan(options).Run(workload.parties);
    ASSERT_TRUE(reference.ok()) << reference.status();
    std::vector<uint64_t> checksums(static_cast<size_t>(p), 0);
    const Status status = RunPartiesInProcess(p, [&](Transport* t) -> Status {
      const size_t i = static_cast<size_t>(t->local_party());
      const PartyData& party = workload.parties[i];
      InMemoryPanelSource source(packed[i], party.y, party.c);
      StreamingPartyScan stream;
      stream.source = &source;
      DASH_ASSIGN_OR_RETURN(
          SecureScanOutput out,
          RunPartySecureScanStreamed(t, party.y, party.c, stream, options));
      checksums[i] = ScanResultChecksum(out.result);
      return Status::Ok();
    });
    ASSERT_TRUE(status.ok()) << status;
    for (const uint64_t checksum : checksums) {
      EXPECT_EQ(checksum, ScanResultChecksum(reference->result));
    }
  }
}

}  // namespace
}  // namespace dash
