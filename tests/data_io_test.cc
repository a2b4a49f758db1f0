// Matrix/vector file I/O and party loading.

#include "data/matrix_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/scan_report.h"
#include "core/scan_result.h"
#include "data/genotype_generator.h"
#include "util/csv.h"
#include "util/random.h"

namespace dash {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

TEST(MatrixIoTest, MatrixRoundTripIsExact) {
  Rng rng(1);
  const Matrix m = GaussianMatrix(7, 4, &rng);
  const std::string path = TempPath("m.csv");
  ASSERT_TRUE(WriteMatrixCsv(m, path).ok());
  const Matrix back = ReadMatrixCsv(path).value();
  EXPECT_TRUE(back == m);  // bit-exact via %.17g
  std::remove(path.c_str());
}

TEST(MatrixIoTest, VectorRoundTrip) {
  const Vector v = {1.5, -2.25, 3.141592653589793};
  const std::string path = TempPath("v.csv");
  ASSERT_TRUE(WriteVectorCsv(v, path).ok());
  EXPECT_EQ(ReadVectorCsv(path).value(), v);
  std::remove(path.c_str());
}

TEST(MatrixIoTest, SkipsBlankLines) {
  const std::string path = TempPath("blank.csv");
  WriteText(path, "1,2\n\n3,4\n\n");
  const Matrix m = ReadMatrixCsv(path).value();
  EXPECT_EQ(m.rows(), 2);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
  std::remove(path.c_str());
}

TEST(MatrixIoTest, ErrorsAreDescriptive) {
  EXPECT_EQ(ReadMatrixCsv("/no/such/file.csv").status().code(),
            StatusCode::kIoError);
  const std::string ragged = TempPath("ragged.csv");
  WriteText(ragged, "1,2\n3\n");
  EXPECT_FALSE(ReadMatrixCsv(ragged).ok());
  std::remove(ragged.c_str());

  const std::string junk = TempPath("junk.csv");
  WriteText(junk, "1,notanumber\n");
  EXPECT_FALSE(ReadMatrixCsv(junk).ok());
  std::remove(junk.c_str());

  const std::string empty = TempPath("empty.csv");
  WriteText(empty, "");
  EXPECT_FALSE(ReadMatrixCsv(empty).ok());
  std::remove(empty.c_str());

  const std::string wide = TempPath("wide.csv");
  WriteText(wide, "1,2\n3,4\n");
  EXPECT_FALSE(ReadVectorCsv(wide).ok());
  std::remove(wide.c_str());
}

TEST(MatrixIoTest, ReadPartyCsvAssemblesBlock) {
  Rng rng(2);
  const Matrix x = GaussianMatrix(6, 3, &rng);
  const Vector y = GaussianVector(6, &rng);
  const Matrix c = GaussianMatrix(6, 2, &rng);
  const std::string xp = TempPath("px.csv");
  const std::string yp = TempPath("py.csv");
  const std::string cp = TempPath("pc.csv");
  ASSERT_TRUE(WriteMatrixCsv(x, xp).ok());
  ASSERT_TRUE(WriteVectorCsv(y, yp).ok());
  ASSERT_TRUE(WriteMatrixCsv(c, cp).ok());

  const PartyData party = ReadPartyCsv(xp, yp, cp).value();
  EXPECT_TRUE(party.x == x);
  EXPECT_EQ(party.y, y);
  EXPECT_TRUE(party.c == c);

  // Covariate-free variant.
  const PartyData bare = ReadPartyCsv(xp, yp, "").value();
  EXPECT_EQ(bare.c.cols(), 0);
  EXPECT_EQ(bare.c.rows(), 6);

  // Mismatched sample counts are rejected.
  const std::string short_y = TempPath("shorty.csv");
  WriteText(short_y, "1\n2\n");
  EXPECT_FALSE(ReadPartyCsv(xp, short_y, cp).ok());

  std::remove(xp.c_str());
  std::remove(yp.c_str());
  std::remove(cp.c_str());
  std::remove(short_y.c_str());
}

// Every text writer must report a write the disk refused. A small file
// sits entirely in the stream's buffer until close, so this checks the
// final flush, which a stream destructor would drop silently.
TEST(TextWritersTest, FullDiskIsAnIoError) {
  const std::string full = "/dev/full";
  if (access(full.c_str(), W_OK) != 0) GTEST_SKIP() << "no writable " << full;

  ScanResult scan;
  scan.beta = {0.5, -0.25};
  scan.se = {0.1, 0.2};
  scan.tstat = {5.0, -1.25};
  scan.pval = {1e-6, 0.21};
  scan.dof = 10;
  EXPECT_EQ(scan.WriteCsv(full).code(), StatusCode::kIoError);
  EXPECT_EQ(WriteScanReport(scan, full).code(), StatusCode::kIoError);

  CsvTable table({"a", "b"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.WriteFile(full).code(), StatusCode::kIoError);

  Matrix m(2, 2);
  EXPECT_EQ(WriteMatrixCsv(m, full).code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace dash
