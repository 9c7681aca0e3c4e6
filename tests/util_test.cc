// Unit tests for the util module: Status/Result, deterministic RNG and
// distributions, and string helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace gallium {
namespace {

// --- Status / Result ----------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = InvalidArgument("bad key width");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad key width");
  EXPECT_EQ(s.ToString(), "kInvalidArgument: bad key width");
}

TEST(Status, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(NotFound("x").code(), ErrorCode::kNotFound);
  EXPECT_EQ(ResourceExhausted("x").code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(Unsupported("x").code(), ErrorCode::kUnsupported);
  EXPECT_EQ(FailedPrecondition("x").code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(Internal("x").code(), ErrorCode::kInternal);
}

// GCC 12 raises a spurious -Wmaybe-uninitialized from std::variant's move
// machinery when Result temporaries flow through gtest macros (GCC
// PR105593); scoped suppression for this block only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Result<int> Doubler(const Result<int>& in) {
  if (!in.ok()) return in.status();
  return *in * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Internal("boom")).status().code(), ErrorCode::kInternal);
}

#pragma GCC diagnostic pop

// --- Rng ------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(12);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, BoundedParetoStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.NextBoundedPareto(100, 1e6, 1.1);
    ASSERT_GE(v, 100.0);
    ASSERT_LE(v, 1e6 + 1);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(7);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBoolRespectsProbability) {
  Rng rng(14);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) trues += rng.NextBool(0.3);
  EXPECT_NEAR(trues / 10000.0, 0.3, 0.02);
}

// --- EmpiricalDistribution ---------------------------------------------------

TEST(EmpiricalDistribution, SamplesWithinSupport) {
  EmpiricalDistribution dist({{10, 0.5}, {100, 1.0}});
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    const double v = dist.Sample(rng);
    ASSERT_GE(v, 10.0);
    ASSERT_LE(v, 100.0);
  }
}

TEST(EmpiricalDistribution, RespectsCdfMass) {
  EmpiricalDistribution dist({{10, 0.9}, {1000, 1.0}});
  Rng rng(16);
  int small = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) small += dist.Sample(rng) <= 11.0;
  // ~90% of samples should sit at/near the low point.
  EXPECT_NEAR(small / static_cast<double>(n), 0.9, 0.02);
}

// --- Strings -----------------------------------------------------------------

TEST(Strings, StrJoin) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(StrJoin(parts, ", "), "a, b, c");
  EXPECT_EQ(StrJoin(std::vector<std::string>{}, ","), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("gallium", "gal"));
  EXPECT_FALSE(StartsWith("gal", "gallium"));
  EXPECT_TRUE(EndsWith("table.p4", ".p4"));
  EXPECT_FALSE(EndsWith("p4", "table.p4"));
}

TEST(Strings, CountCodeLinesSkipsBlanksAndComments) {
  const char* source =
      "// header comment\n"
      "\n"
      "int x = 1;\n"
      "  // indented comment\n"
      "/* block */\n"
      " * continuation\n"
      "int y = 2;\n"
      "#include <x>\n";
  EXPECT_EQ(CountCodeLines(source), 2);
}

TEST(Strings, SanitizeIdentifier) {
  EXPECT_EQ(SanitizeIdentifier("a.b-c"), "a_b_c");
  EXPECT_EQ(SanitizeIdentifier("9lives"), "_9lives");
  EXPECT_EQ(SanitizeIdentifier(""), "_");
  EXPECT_EQ(SanitizeIdentifier("ok_name1"), "ok_name1");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.0 MiB");
}

}  // namespace
}  // namespace gallium
