// DASHPACK round-trip and adversarial coverage (DESIGN.md §15).
//
// The packed study file is the out-of-core scan's ONLY input, so this
// suite pins both directions of its contract: a written study reads
// back bit-exactly (y, C, every panel word, fingerprint), and every way
// the file can be damaged — truncation, corrupt header, flipped panel
// byte, wrong magic — is DETECTED as a typed error, never served as
// silently wrong data. The
// prefetcher is held to the same standard: panels in order, I/O errors
// surfaced on the consumer side.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "data/genotype_generator.h"
#include "data/panel_stream.h"
#include "linalg/packed_matrix.h"
#include "util/random.h"
#include "util/status.h"

namespace dash {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "panel_stream_" + name;
}

// A deterministic multi-panel study: 3 panels (600 rows), last one
// partial, with sparse-ish genotype columns.
struct Study {
  PackedGenotypeMatrix x{0, 0};
  Vector y;
  Matrix c{0, 0};
  uint64_t tag = 0;
};

Study MakeStudy(int64_t n = 600, int64_t m = 70, int64_t k = 3,
                uint64_t seed = 11) {
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
  study.c = GaussianMatrix(n, k, &rng);
  study.tag = seed;
  return study;
}

std::string WriteStudyFile(const Study& study, const std::string& name) {
  const std::string path = TempPath(name);
  const Status st = WritePackedStudy(path, study.x, study.y, study.c,
                                     study.tag);
  EXPECT_TRUE(st.ok()) << st;
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void FlipByteAt(const std::string& path, size_t offset) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
  WriteFileBytes(path, bytes);
}

// Re-stamps the header checksum of a DASHPACK image, so a patched
// header field reaches the reader's checks behind it.
void RestampHeader(std::string* bytes) {
  const uint64_t sum = Fnv1aBytes(bytes->data(), 64);
  std::memcpy(bytes->data() + 64, &sum, 8);
}

void ExpectPanelsBitIdentical(const PackedGenotypeMatrix& a,
                              const PackedGenotypeMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t j = 0; j < a.cols(); ++j) {
    ASSERT_EQ(0, std::memcmp(a.column_words(j), b.column_words(j),
                             static_cast<size_t>(a.words_per_column()) *
                                 sizeof(uint64_t)))
        << "column " << j;
  }
}

// ---- geometry --------------------------------------------------------

TEST(PanelStreamTest, PanelGeometryStraddlesBoundaries) {
  struct Case {
    int64_t n, want_panels, want_last_rows;
  } cases[] = {{1, 1, 1},     {255, 1, 255}, {256, 1, 256},
               {257, 2, 1},   {512, 2, 256}, {600, 3, 88}};
  for (const Case& c : cases) {
    const Study study = MakeStudy(c.n, 5, 2);
    InMemoryPanelSource source(study.x, study.y, study.c, study.tag);
    SCOPED_TRACE("n=" + std::to_string(c.n));
    EXPECT_EQ(source.num_panels(), c.want_panels);
    EXPECT_EQ(source.panel_rows(source.num_panels() - 1), c.want_last_rows);
    int64_t covered = 0;
    for (int64_t p = 0; p < source.num_panels(); ++p) {
      EXPECT_EQ(source.panel_begin_row(p), covered);
      covered += source.panel_rows(p);
    }
    EXPECT_EQ(covered, c.n);
  }
}

TEST(PanelStreamTest, InMemorySourceSlicesMatchDenseRows) {
  const Study study = MakeStudy(600, 40, 2);
  const Matrix dense = study.x.ToDense();
  InMemoryPanelSource source(study.x, study.y, study.c, study.tag);
  PackedGenotypeMatrix panel(0, 0);
  for (int64_t p = 0; p < source.num_panels(); ++p) {
    ASSERT_TRUE(source.ReadPanel(p, &panel).ok());
    const int64_t r0 = source.panel_begin_row(p);
    ASSERT_EQ(panel.rows(), source.panel_rows(p));
    const Matrix got = panel.ToDense();
    for (int64_t i = 0; i < panel.rows(); ++i) {
      for (int64_t j = 0; j < panel.cols(); ++j) {
        ASSERT_EQ(got(i, j), dense(r0 + i, j))
            << "panel " << p << " row " << i << " col " << j;
      }
    }
  }
}

// ---- round trip ------------------------------------------------------

TEST(PanelStreamTest, RoundTrip) {
  const Study study = MakeStudy();
  const std::string path = WriteStudyFile(study, "roundtrip.dpk");
  InMemoryPanelSource oracle(study.x, study.y, study.c, study.tag);

  auto opened = PackedStudyReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  PackedStudyReader& reader = *opened.value();
  EXPECT_EQ(reader.num_samples(), study.x.rows());
  EXPECT_EQ(reader.num_variants(), study.x.cols());
  EXPECT_EQ(reader.num_covariates(), study.c.cols());
  EXPECT_EQ(reader.tag(), study.tag);
  // The file's fingerprint is the SAME value the in-memory source
  // computes — that identity is what lets checkpoints cross the storage
  // boundary.
  EXPECT_EQ(reader.fingerprint(), oracle.fingerprint());
  EXPECT_EQ(reader.fingerprint(),
            StudyFingerprint(study.x, study.y, study.c, study.tag));

  ASSERT_EQ(reader.phenotype().size(), study.y.size());
  EXPECT_EQ(0, std::memcmp(reader.phenotype().data(), study.y.data(),
                           study.y.size() * sizeof(double)));
  ASSERT_EQ(reader.covariates().rows(), study.c.rows());
  ASSERT_EQ(reader.covariates().cols(), study.c.cols());
  EXPECT_EQ(0, std::memcmp(reader.covariates().data(), study.c.data(),
                           static_cast<size_t>(study.c.rows() *
                                               study.c.cols()) *
                               sizeof(double)));

  PackedGenotypeMatrix got(0, 0), want(0, 0);
  for (int64_t p = 0; p < reader.num_panels(); ++p) {
    ASSERT_TRUE(reader.ReadPanel(p, &got).ok()) << "panel " << p;
    ASSERT_TRUE(oracle.ReadPanel(p, &want).ok());
    ExpectPanelsBitIdentical(got, want);
  }
}

TEST(PanelStreamTest, RoundTripZeroCovariates) {
  Study study = MakeStudy(300, 10, 0);
  const std::string path = WriteStudyFile(study, "zerok.dpk");
  auto opened = PackedStudyReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened.value()->num_covariates(), 0);
  EXPECT_EQ(opened.value()->covariates().rows(), 300);
}

TEST(PanelStreamTest, FingerprintSeparatesDataAndTag) {
  const Study a = MakeStudy(300, 10, 2, 1);
  const Study b = MakeStudy(300, 10, 2, 2);  // different data
  const uint64_t fa = StudyFingerprint(a.x, a.y, a.c, a.tag);
  EXPECT_NE(fa, StudyFingerprint(b.x, b.y, b.c, b.tag));
  EXPECT_NE(fa, StudyFingerprint(a.x, a.y, a.c, a.tag + 1));
  EXPECT_EQ(fa, StudyFingerprint(a.x, a.y, a.c, a.tag));
}

// ---- adversarial: every damage mode is a typed error -----------------

TEST(PanelStreamTest, OpenMissingFileIsNotFound) {
  auto opened = PackedStudyReader::Open(TempPath("never_written.dpk"));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

TEST(PanelStreamTest, TruncatedFileRejectedAtEveryCut) {
  const Study study = MakeStudy(600, 20, 2);
  const std::string path = WriteStudyFile(study, "truncate.dpk");
  const std::string full = ReadFileBytes(path);
  // Cuts inside the header, inside the y/C block, inside a panel, and
  // one byte short of complete. Open validates the exact total size up
  // front, so every one must fail — never a partial study.
  const size_t cuts[] = {0, 8, 40, 71, 72, 500, full.size() / 2,
                         full.size() - 1};
  for (const size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    WriteFileBytes(path, full.substr(0, cut));
    auto opened = PackedStudyReader::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
        << opened.status();
  }
}

TEST(PanelStreamTest, GrownFileRejected) {
  const Study study = MakeStudy(300, 10, 2);
  const std::string path = WriteStudyFile(study, "grown.dpk");
  WriteFileBytes(path, ReadFileBytes(path) + std::string(17, '\0'));
  auto opened = PackedStudyReader::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(PanelStreamTest, BadMagicRejected) {
  const Study study = MakeStudy(300, 10, 2);
  const std::string path = WriteStudyFile(study, "magic.dpk");
  FlipByteAt(path, 0);
  auto opened = PackedStudyReader::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(PanelStreamTest, CorruptHeaderFieldAlwaysRejected) {
  const Study study = MakeStudy(300, 10, 2);
  // One flipped byte in each checksummed header field (version, n, m,
  // k, panel_rows, tag, fingerprint). The version field trips its own
  // range check first (InvalidArgument); every other flip reaches the
  // header checksum (DataLoss). Either way: detected, never served.
  for (const size_t offset : {8u, 16u, 24u, 32u, 40u, 48u, 56u}) {
    SCOPED_TRACE("offset=" + std::to_string(offset));
    const std::string path = WriteStudyFile(study, "header.dpk");
    FlipByteAt(path, offset);
    auto opened = PackedStudyReader::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_TRUE(opened.status().code() == StatusCode::kDataLoss ||
                opened.status().code() == StatusCode::kInvalidArgument)
        << opened.status();
  }
}

TEST(PanelStreamTest, VersionOneFileRefused) {
  // Version 1 closed panels with FNV-1a; no v1 reader is kept, so such
  // a file is refused up front and must be re-packed.
  const Study study = MakeStudy(300, 10, 2);
  const std::string path = WriteStudyFile(study, "v1.dpk");
  std::string bytes = ReadFileBytes(path);
  const uint64_t v1 = 1;
  std::memcpy(bytes.data() + 8, &v1, 8);
  RestampHeader(&bytes);
  WriteFileBytes(path, bytes);
  auto opened = PackedStudyReader::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("unsupported DASHPACK version 1"),
            std::string::npos)
      << opened.status();
}

TEST(PanelStreamTest, HugeHeaderDimensionsAreSizeMismatch) {
  // A bare 72-byte header with a valid checksum and in-range but huge
  // dimensions: n = 2^40 rows is 2^32 panels, and (n + n·k)·8 at
  // k = 2^20 overflows int64. Open must compute the expected size
  // without either, and refuse the file at once. Magic and version
  // come from a real file.
  const std::string path = WriteStudyFile(MakeStudy(300, 10, 2), "huge.dpk");
  const std::string real = ReadFileBytes(path);
  for (const int64_t k : {int64_t{1} << 20, int64_t{0}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    std::string header = real.substr(0, 72);
    // n, m, k, panel_rows, tag, fingerprint.
    const int64_t fields[6] = {int64_t{1} << 40, 1, k, 256, 0, 0};
    std::memcpy(header.data() + 16, fields, sizeof(fields));
    RestampHeader(&header);
    WriteFileBytes(path, header);
    auto opened = PackedStudyReader::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
        << opened.status();
  }
}

TEST(PanelStreamTest, PanelChecksumSeesEveryBitFlipAndAdjacentSwap) {
  std::vector<uint64_t> panel(64);
  for (size_t i = 0; i < panel.size(); ++i) {
    panel[i] = 0x0123456789ABCDEFULL * (i + 1);
  }
  const uint64_t clean = PanelChecksum(panel.data(), panel.size());
  // Pinned: any change to the function changes the file format and
  // must bump the DASHPACK version.
  EXPECT_EQ(clean, 0xa6f80c465450231eULL);
  for (size_t bit = 0; bit < panel.size() * 64; ++bit) {
    std::vector<uint64_t> flipped = panel;
    flipped[bit / 64] ^= uint64_t{1} << (bit % 64);
    ASSERT_NE(PanelChecksum(flipped.data(), flipped.size()), clean)
        << "bit " << bit;
  }
  for (size_t i = 0; i + 1 < panel.size(); ++i) {
    std::vector<uint64_t> swapped = panel;
    std::swap(swapped[i], swapped[i + 1]);
    ASSERT_NE(PanelChecksum(swapped.data(), swapped.size()), clean)
        << "words " << i << " and " << i + 1;
  }
}

TEST(PanelStreamTest, CorruptPhenotypeBlockRejectedAtOpen) {
  const Study study = MakeStudy(300, 10, 2);
  const std::string path = WriteStudyFile(study, "ycblock.dpk");
  FlipByteAt(path, 72 + 8 * 3);  // third double of y
  auto opened = PackedStudyReader::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(PanelStreamTest, BadPanelChecksumDetectedLazily) {
  const Study study = MakeStudy(600, 20, 2);
  const std::string path = WriteStudyFile(study, "panel.dpk");
  // Flip one byte in panel 1's payload: panels_offset + stride + a bit.
  const size_t panels_offset =
      72 + static_cast<size_t>(study.x.rows() * (1 + study.c.cols())) * 8 + 8;
  const size_t stride = static_cast<size_t>(study.x.cols()) * 64 + 8;
  FlipByteAt(path, panels_offset + stride + 100);

  auto opened = PackedStudyReader::Open(path);
  // Header and y/C are intact, so Open succeeds; the damage is caught
  // exactly when the bad panel is read, and only there.
  ASSERT_TRUE(opened.ok()) << opened.status();
  PackedGenotypeMatrix panel(0, 0);
  EXPECT_TRUE(opened.value()->ReadPanel(0, &panel).ok());
  EXPECT_TRUE(opened.value()->ReadPanel(2, &panel).ok());
  const Status bad = opened.value()->ReadPanel(1, &panel);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss) << bad;
}

TEST(PanelStreamTest, NonzeroPaddingCodeRejectedByWriterAndReader) {
  // Slots past the last row of a column's last word must hold code 0:
  // the packed kernels consume whole words, so a nonzero padding code
  // would make them read y and Q past the last row. The public
  // mutable_column_words can still plant one.
  Study study = MakeStudy(33, 4, 2);
  const uint64_t padding_code = uint64_t{1} << 2;  // row 33: code 1
  study.x.mutable_column_words(0)[1] |= padding_code;
  const Status refused = WritePackedStudy(TempPath("padding_w.dpk"), study.x,
                                          study.y, study.c, study.tag);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;

  // A clean file patched afterwards (word edited, panel checksum
  // re-stamped) passes every checksum; the reader must still refuse it.
  study.x.mutable_column_words(0)[1] &= ~padding_code;
  const std::string path = WriteStudyFile(study, "padding_r.dpk");
  std::string bytes = ReadFileBytes(path);
  const size_t panel_offset =
      72 + static_cast<size_t>(study.x.rows() * (1 + study.c.cols())) * 8 + 8;
  const size_t payload = static_cast<size_t>(study.x.cols()) * 2 * 8;
  ASSERT_EQ(bytes.size(), panel_offset + payload + 8);
  uint64_t word = 0;
  std::memcpy(&word, bytes.data() + panel_offset + 8, 8);  // column 0, word 1
  word |= padding_code;
  std::memcpy(bytes.data() + panel_offset + 8, &word, 8);
  std::vector<uint64_t> words(payload / 8);
  std::memcpy(words.data(), bytes.data() + panel_offset, payload);
  const uint64_t sum = PanelChecksum(words.data(), words.size());
  std::memcpy(bytes.data() + panel_offset + payload, &sum, 8);
  WriteFileBytes(path, bytes);

  auto opened = PackedStudyReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  PackedGenotypeMatrix panel(0, 0);
  const Status bad = opened.value()->ReadPanel(0, &panel);
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss) << bad;
}

TEST(PanelStreamTest, ReadPanelPastEndIsOutOfRange) {
  const Study study = MakeStudy(300, 10, 2);
  const std::string path = WriteStudyFile(study, "range.dpk");
  auto opened = PackedStudyReader::Open(path);
  ASSERT_TRUE(opened.ok());
  PackedGenotypeMatrix panel(0, 0);
  for (const int64_t p : {int64_t{-1}, opened.value()->num_panels()}) {
    const Status st = opened.value()->ReadPanel(p, &panel);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  }
}

// ---- prefetcher ------------------------------------------------------

TEST(PanelStreamTest, PrefetcherServesPanelsInOrder) {
  const Study study = MakeStudy(1300, 30, 2);  // 6 panels
  const std::string path = WriteStudyFile(study, "prefetch.dpk");
  auto opened = PackedStudyReader::Open(path);
  ASSERT_TRUE(opened.ok());
  InMemoryPanelSource oracle(study.x, study.y, study.c, study.tag);

  PanelPrefetcher prefetcher(opened.value().get());
  PackedGenotypeMatrix want(0, 0);
  for (int64_t p = 0; p < oracle.num_panels(); ++p) {
    EXPECT_EQ(prefetcher.next_panel(), p);
    auto got = prefetcher.Next();
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(oracle.ReadPanel(p, &want).ok());
    ExpectPanelsBitIdentical(*got.value(), want);
  }
}

TEST(PanelStreamTest, PrefetcherStartsMidStream) {
  const Study study = MakeStudy(1300, 30, 2);
  InMemoryPanelSource source(study.x, study.y, study.c, study.tag);
  PanelPrefetcher prefetcher(&source, /*first_panel=*/4);
  PackedGenotypeMatrix want(0, 0);
  for (int64_t p = 4; p < source.num_panels(); ++p) {
    auto got = prefetcher.Next();
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(source.ReadPanel(p, &want).ok());
    ExpectPanelsBitIdentical(*got.value(), want);
  }
}

TEST(PanelStreamTest, PrefetcherSurfacesIoError) {
  const Study study = MakeStudy(1300, 30, 2);
  const std::string path = WriteStudyFile(study, "prefetch_err.dpk");
  const size_t panels_offset =
      72 + static_cast<size_t>(study.x.rows() * (1 + study.c.cols())) * 8 + 8;
  const size_t stride = static_cast<size_t>(study.x.cols()) * 64 + 8;
  FlipByteAt(path, panels_offset + 3 * stride + 5);  // poison panel 3
  auto opened = PackedStudyReader::Open(path);
  ASSERT_TRUE(opened.ok());

  PanelPrefetcher prefetcher(opened.value().get());
  for (int64_t p = 0; p < 3; ++p) {
    auto got = prefetcher.Next();
    ASSERT_TRUE(got.ok()) << "panel " << p << ": " << got.status();
  }
  auto bad = prefetcher.Next();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss) << bad.status();
  // Destruction with the stream abandoned mid-error must not hang.
}

TEST(PanelStreamTest, PrefetcherAbandonedEarlyJoinsCleanly) {
  const Study study = MakeStudy(1300, 30, 2);
  InMemoryPanelSource source(study.x, study.y, study.c, study.tag);
  PanelPrefetcher prefetcher(&source);
  ASSERT_TRUE(prefetcher.Next().ok());
  // Consumer walks away after one of six panels; the destructor must
  // unblock and join the I/O thread.
}

// ---- atomic writes ---------------------------------------------------

TEST(PanelStreamTest, AtomicWriteFileWritesAndReplaces) {
  const std::string path = TempPath("atomic.bin");
  const std::string first(1000, 'a');
  ASSERT_TRUE(AtomicWriteFile(path, first.data(), first.size()).ok());
  EXPECT_EQ(ReadFileBytes(path), first);
  const std::string second = "shorter replacement";
  ASSERT_TRUE(AtomicWriteFile(path, second.data(), second.size()).ok());
  EXPECT_EQ(ReadFileBytes(path), second);
}

TEST(PanelStreamTest, AtomicWriteFileFailsIntoMissingDir) {
  const std::string path = TempPath("no_such_dir/x.bin");
  const Status st = AtomicWriteFile(path, "x", 1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(PanelStreamTest, WriteRejectsShapeMismatches) {
  const Study study = MakeStudy(300, 10, 2);
  Vector short_y(study.y.begin(), study.y.end() - 1);
  EXPECT_FALSE(WritePackedStudy(TempPath("bad1.dpk"), study.x, short_y,
                                study.c, 0)
                   .ok());
  Matrix short_c(299, 2);
  EXPECT_FALSE(WritePackedStudy(TempPath("bad2.dpk"), study.x, study.y,
                                short_c, 0)
                   .ok());
}

}  // namespace
}  // namespace dash
