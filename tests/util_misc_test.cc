// Strings, CSV, logging, stopwatch, and thread-pool coverage.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace dash {
namespace {

TEST(StringsTest, SplitPreservesEmptyFields) {
  const auto parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField) {
  const auto parts = StrSplit("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringsTest, JoinRoundTrips) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, ","), "x,y,z");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\r\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e-3 ").value(), -1e-3);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_FALSE(ParseInt64("4.2").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringsTest, DoubleToStringRoundTrips) {
  for (const double v : {0.0, -1.5, 3.141592653589793, 1e-300, 123456.789}) {
    EXPECT_DOUBLE_EQ(ParseDouble(DoubleToString(v)).value(), v);
  }
}

std::string Format17(double v) {
  char buf[kDouble17MaxChars];
  return std::string(buf, FormatDouble17(buf, v));
}

// FormatDouble17 against both references, std::to_chars(general, 17)
// and snprintf("%.17g"); the failure names the value's bits.
::testing::AssertionResult MatchesBothReferences(double v) {
  char chars[64];
  const std::to_chars_result r =
      std::to_chars(chars, chars + sizeof(chars), v,
                    std::chars_format::general, 17);
  char printed[64];
  const int n = std::snprintf(printed, sizeof(printed), "%.17g", v);
  char got[kDouble17MaxChars];
  const std::string_view formatted(got, static_cast<size_t>(
                                            FormatDouble17(got, v) - got));
  if (formatted == std::string_view(chars, static_cast<size_t>(r.ptr - chars)) &&
      formatted == std::string_view(printed, static_cast<size_t>(n))) {
    return ::testing::AssertionSuccess();
  }
  char bits[20];
  std::snprintf(bits, sizeof(bits), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(v)));
  return ::testing::AssertionFailure()
         << "bits " << bits << ": got " << formatted << ", to_chars "
         << std::string_view(chars, static_cast<size_t>(r.ptr - chars))
         << ", snprintf " << printed;
}

TEST(StringsTest, FormatDouble17EdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(), DBL_MIN,
        DBL_MAX, -DBL_MAX, std::nan(""), inf, -inf,
        // Each side of the integer path's range, [1e-11, 1e17).
        1e-11, std::nextafter(1e-11, 0.0), std::nextafter(1e-11, 1.0),
        -1e-11, 1e17, std::nextafter(1e17, 0.0), std::nextafter(1e17, inf),
        // Either side of the %f / %e switch at 1e-4, and of 1e16.
        1e-4, std::nextafter(1e-4, 0.0), 1e-5, 1e16, 9999999999999998.0,
        1.0, 0.1, 0.5, 2.0 / 3.0, 123456.789, 3.141592653589793,
        // Round-up carries through trailing nines (…59999|9 → …6).
        2758.400668756, 92599850.67588, 538.5855781967, 0.3, 0.7}) {
    EXPECT_TRUE(MatchesBothReferences(v));
  }
  EXPECT_EQ(Format17(std::nextafter(1e17, 0.0)), "99999999999999984");
  EXPECT_EQ(Format17(0.1), "0.10000000000000001");
  EXPECT_EQ(Format17(-1e-5), "-1.0000000000000001e-05");
  EXPECT_EQ(Format17(2758.400668756), "2758.400668756");
}

// n / 2^j with n odd and 18 significant digits sits exactly halfway
// between two 17-digit outputs, so only round-half-even gets it right.
TEST(StringsTest, FormatDouble17RoundsExactTiesHalfEven) {
  EXPECT_EQ(Format17(1000000000000000.25), "1000000000000000.2");
  EXPECT_EQ(Format17(1000000000000000.75), "1000000000000000.8");
  uint64_t seed = 20;
  for (int j = 2; j <= 25; ++j) {
    // n · 5^j must have 18 digits, and n must fit a double's mantissa.
    const double pow5 = std::pow(5.0, j);
    const uint64_t lo = static_cast<uint64_t>(std::ceil(1e17 / pow5));
    const uint64_t hi = std::min<uint64_t>(
        static_cast<uint64_t>(std::floor((1e18 - 1.0) / pow5)),
        (uint64_t{1} << 53) - 1);
    for (int i = 0; i < 2000; ++i) {
      const uint64_t n = (lo + SplitMix64(&seed) % (hi - lo + 1)) | 1;
      if (n > hi) continue;
      const double v = std::ldexp(static_cast<double>(n), -j);
      ASSERT_TRUE(MatchesBothReferences(v)) << "n " << n << ", j " << j;
    }
  }
}

TEST(StringsTest, FormatDouble17MatchesReferencesOnSeededCorpus) {
  uint64_t seed = 17;
  // Random bit patterns: every class of double, mostly off the integer
  // path.
  for (int i = 0; i < 500000; ++i) {
    ASSERT_TRUE(MatchesBothReferences(std::bit_cast<double>(SplitMix64(&seed))));
  }
  // Log-uniform magnitudes over [1e-12, 1e18], each with its negation
  // and its neighbour toward zero.
  for (int i = 0; i < 500000; ++i) {
    const double u = static_cast<double>(SplitMix64(&seed) >> 11) * 0x1p-53;
    const double v = std::pow(10.0, -12.0 + 30.0 * u);
    ASSERT_TRUE(MatchesBothReferences(v));
    ASSERT_TRUE(MatchesBothReferences(-v));
    ASSERT_TRUE(MatchesBothReferences(std::nextafter(v, 0.0)));
  }
}

TEST(CsvTest, BuildAndSerialize) {
  CsvTable t({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddRow({"3", "4"});
  EXPECT_EQ(t.ToString(), "a,b\n1,2\n3,4\n");
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ColumnIndex("b").value(), 1u);
  EXPECT_FALSE(t.ColumnIndex("missing").ok());
  EXPECT_DOUBLE_EQ(t.DoubleAt(1, 0).value(), 3.0);
  EXPECT_FALSE(t.DoubleAt(5, 0).ok());
}

TEST(CsvTest, ParseRoundTrip) {
  const auto t = CsvTable::Parse("x,y\n1,2\n\n3,4\n").value();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows()[1][1], "4");
}

TEST(CsvTest, ParseRejectsRaggedRows) {
  EXPECT_FALSE(CsvTable::Parse("x,y\n1\n").ok());
  EXPECT_FALSE(CsvTable::Parse("").ok());
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable t({"k", "v"});
  t.AddRow({"pi", "3.14"});
  const std::string path = testing::TempDir() + "/dash_csv_test.csv";
  ASSERT_TRUE(t.WriteFile(path).ok());
  const auto back = CsvTable::ReadFile(path).value();
  EXPECT_EQ(back.rows()[0][0], "pi");
  std::remove(path.c_str());
  EXPECT_FALSE(CsvTable::ReadFile("/no/such/dir/x.csv").ok());
}

TEST(LoggingTest, LevelFilteringIsMonotone) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  DASH_LOG(Info) << "should be suppressed";
  SetLogLevel(original);
}

TEST(StopwatchTest, MeasuresForwardTime) {
  Stopwatch sw;
  double last = -1.0;
  for (int i = 0; i < 3; ++i) {
    const double t = sw.ElapsedSeconds();
    EXPECT_GE(t, last);
    last = t;
  }
  sw.Reset();
  EXPECT_GE(sw.ElapsedMicros(), 0.0);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)] += 1;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int64_t sum = 0;
  pool.ParallelFor(0, 100, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ScheduleAndWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Schedule([&counter] { counter += 1; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<double> values(100000);
  std::iota(values.begin(), values.end(), 0.0);
  std::atomic<int64_t> shards{0};
  std::vector<double> partial(4, 0.0);
  // Shard index is derived from the range start; ranges are contiguous.
  pool.ParallelFor(0, static_cast<int64_t>(values.size()),
                   [&](int64_t lo, int64_t hi) {
                     const int64_t shard = shards.fetch_add(1);
                     double s = 0.0;
                     for (int64_t i = lo; i < hi; ++i) s += values[static_cast<size_t>(i)];
                     partial[static_cast<size_t>(shard)] += s;
                   });
  const double total = partial[0] + partial[1] + partial[2] + partial[3];
  EXPECT_DOUBLE_EQ(total, 99999.0 * 100000.0 / 2.0);
}

}  // namespace
}  // namespace dash
