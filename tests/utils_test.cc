// Tests for the utility layer: Status/StatusOr, tables, RNG statistics,
// and environment helpers.
#include <climits>
#include <cstdlib>
#include <set>

#include <gtest/gtest.h>

#include "utils/env.h"
#include "utils/rng.h"
#include "utils/status.h"
#include "utils/stopwatch.h"
#include "utils/table.h"

namespace focus {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIoError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IO_ERROR: disk on fire");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto inner = [](bool fail) -> Status {
    if (fail) return Status::NotFound("gone");
    return Status::Ok();
  };
  auto outer = [&](bool fail) -> Status {
    FOCUS_RETURN_IF_ERROR(inner(fail));
    return Status::InvalidArgument("reached end");
  };
  EXPECT_EQ(outer(true).code(), Status::Code::kNotFound);
  EXPECT_EQ(outer(false).code(), Status::Code::kInvalidArgument);
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  StatusOr<int> bad(Status::Corruption("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kCorruption);
}

TEST(TableTest, AsciiAlignsColumns) {
  Table t({"A", "LongHeader"});
  t.AddRow({"1", "x"});
  t.AddRow({"222", "yy"});
  const std::string ascii = t.ToAscii();
  EXPECT_NE(ascii.find("| A   | LongHeader |"), std::string::npos);
  EXPECT_NE(ascii.find("| 222 | yy         |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(1.0, 3), "1.000");
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_NE(t.ToAscii().find("only"), std::string::npos);
}

TEST(RngTest, UniformIntIsUnbiasedAcrossRange) {
  Rng rng(42);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng b = a.Fork();
  // Parent and child disagree on their next draws.
  EXPECT_NE(a.NextU64(), b.NextU64());
  // Forks are deterministic given the parent state.
  Rng a2(7);
  Rng b2 = a2.Fork();
  a2.NextU64();
  Rng a3(7);
  Rng b3 = a3.Fork();
  EXPECT_EQ(b2.NextU64(), b3.NextU64());
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(EnvTest, GetEnvOrFallsBack) {
  unsetenv("FOCUS_TEST_VAR");
  EXPECT_EQ(GetEnvOr("FOCUS_TEST_VAR", "fallback"), "fallback");
  setenv("FOCUS_TEST_VAR", "set", 1);
  EXPECT_EQ(GetEnvOr("FOCUS_TEST_VAR", "fallback"), "set");
  unsetenv("FOCUS_TEST_VAR");
}

// FOCUS_TEST_INT under strict parsing with no range limit, default 7.
long ParseTestInt() {
  return GetEnvIntInRangeOr("FOCUS_TEST_INT", 7, LONG_MIN, LONG_MAX);
}

TEST(EnvTest, GetEnvIntParsesOrFallsBack) {
  setenv("FOCUS_TEST_INT", "123", 1);
  EXPECT_EQ(ParseTestInt(), 123);
  setenv("FOCUS_TEST_INT", "not-an-int", 1);
  EXPECT_EQ(ParseTestInt(), 7);
  unsetenv("FOCUS_TEST_INT");
  EXPECT_EQ(ParseTestInt(), 7);
}

TEST(EnvTest, GetEnvIntRejectsMalformedValues) {
  // Trailing garbage after digits must not half-parse: "12abc" is a typo,
  // not a request for 12 threads.
  setenv("FOCUS_TEST_INT", "12abc", 1);
  EXPECT_EQ(ParseTestInt(), 7);
  setenv("FOCUS_TEST_INT", "", 1);
  EXPECT_EQ(ParseTestInt(), 7);
  setenv("FOCUS_TEST_INT", "  ", 1);
  EXPECT_EQ(ParseTestInt(), 7);
  setenv("FOCUS_TEST_INT", "99999999999999999999999999", 1);  // > LONG_MAX
  EXPECT_EQ(ParseTestInt(), 7);
  setenv("FOCUS_TEST_INT", "1.5", 1);
  EXPECT_EQ(ParseTestInt(), 7);
  unsetenv("FOCUS_TEST_INT");
}

TEST(EnvTest, GetEnvIntAcceptsSignedAndPaddedValues) {
  setenv("FOCUS_TEST_INT", "-42", 1);
  EXPECT_EQ(ParseTestInt(), -42);
  setenv("FOCUS_TEST_INT", "+8", 1);
  EXPECT_EQ(ParseTestInt(), 8);
  setenv("FOCUS_TEST_INT", "  16  ", 1);  // strtol skips leading space;
  EXPECT_EQ(ParseTestInt(), 16);  // we allow trailing too
  unsetenv("FOCUS_TEST_INT");
}

TEST(EnvTest, GetEnvIntInRangeClampsToFallback) {
  // Out-of-range values fall back rather than clamp: a wildly wrong
  // FOCUS_NUM_THREADS should be ignored loudly, not silently saturated.
  setenv("FOCUS_TEST_INT", "0", 1);
  EXPECT_EQ(GetEnvIntInRangeOr("FOCUS_TEST_INT", 7, 1, 256), 7);
  setenv("FOCUS_TEST_INT", "-3", 1);
  EXPECT_EQ(GetEnvIntInRangeOr("FOCUS_TEST_INT", 7, 1, 256), 7);
  setenv("FOCUS_TEST_INT", "1000", 1);
  EXPECT_EQ(GetEnvIntInRangeOr("FOCUS_TEST_INT", 7, 1, 256), 7);
  setenv("FOCUS_TEST_INT", "256", 1);  // boundary is inclusive
  EXPECT_EQ(GetEnvIntInRangeOr("FOCUS_TEST_INT", 7, 1, 256), 256);
  setenv("FOCUS_TEST_INT", "1", 1);
  EXPECT_EQ(GetEnvIntInRangeOr("FOCUS_TEST_INT", 7, 1, 256), 1);
  unsetenv("FOCUS_TEST_INT");
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_NEAR(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1e3,
              sw.ElapsedMillis() * 0.5 + 1.0);
  const double before = sw.ElapsedSeconds();
  sw.Reset();
  EXPECT_LE(sw.ElapsedSeconds(), before + 1.0);
}

}  // namespace
}  // namespace focus
