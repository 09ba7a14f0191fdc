#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "testing/fuzz.h"
#include "testing/oracle.h"

namespace kucnet {
namespace testing {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- ULP comparison ----------------------------------------------------------

TEST(UlpDistanceTest, EqualValuesAreZero) {
  EXPECT_EQ(UlpDistance(1.5, 1.5), 0u);
  EXPECT_EQ(UlpDistance(0.0, -0.0), 0u);  // both zeros compare equal
  EXPECT_EQ(UlpDistance(kNan, kNan), 0u);
  EXPECT_EQ(UlpDistance(kInf, kInf), 0u);
  EXPECT_EQ(UlpDistance(-kInf, -kInf), 0u);
}

TEST(UlpDistanceTest, AdjacentDoublesAreOneUlp) {
  const double x = 1.0;
  const double up = std::nextafter(x, 2.0);
  const double down = std::nextafter(x, 0.0);
  EXPECT_EQ(UlpDistance(x, up), 1u);
  EXPECT_EQ(UlpDistance(x, down), 1u);
  // Across zero: smallest positive and negative denormals are 2 apart
  // (±denormal_min surround the two zeros on the ordered scale).
  const double denorm = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(UlpDistance(denorm, -denorm), 2u);
}

TEST(UlpDistanceTest, NanAgainstAnythingElseIsHuge) {
  EXPECT_EQ(UlpDistance(kNan, 1.0), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(UlpDistance(0.0, kNan), std::numeric_limits<uint64_t>::max());
}

TEST(UlpDistanceTest, SymmetricAndMonotone) {
  EXPECT_EQ(UlpDistance(1.0, 2.0), UlpDistance(2.0, 1.0));
  EXPECT_LT(UlpDistance(1.0, 1.0 + 1e-15), UlpDistance(1.0, 1.0 + 1e-12));
}

// ---- Oracle sanity -----------------------------------------------------------

TEST(OracleTest, TopNSinksNonFiniteAndBreaksTiesByIndex) {
  const std::vector<double> scores = {kNan, 2.0, kInf, 2.0, -kInf, 1.0};
  const auto top = OracleTopN(scores, 6);
  // Finite first (desc, ties by index), then all non-finite by index.
  EXPECT_EQ(top, (std::vector<int64_t>{1, 3, 5, 0, 2, 4}));
}

TEST(OracleTest, PprPushStrandsMassAtDanglingSource) {
  // One user, no edges: the source is dangling, so the push must absorb the
  // entire unit of restart mass immediately.
  Ckg g;
  ASSERT_TRUE(Ckg::TryBuild(1, 1, 1, 1, {}, {}, {}, &g).ok());
  const OraclePprResult r = OraclePprPush(g, 0, 0.15, 1e-6);
  ASSERT_EQ(r.estimate.size(), 1u);
  EXPECT_DOUBLE_EQ(r.estimate.at(0), 1.0);
  EXPECT_DOUBLE_EQ(r.total_mass, 1.0);
}

// ---- Fuzz sweeps -------------------------------------------------------------
//
// Moderate budgets here (the full 1000-case-per-subsystem sweep runs as the
// diff_fuzz_* ctest entries); a distinct base seed widens total coverage.
// On failure the report carries the failing seed and the repro command.

FuzzOptions QuickOptions(int64_t cases) {
  FuzzOptions options;
  options.seed = 7070707;
  options.cases = cases;
  return options;
}

TEST(DifferentialFuzzTest, TensorKernelsMatchOracles) {
  const FuzzReport report = FuzzTensor(QuickOptions(250));
  EXPECT_TRUE(report.ok()) << report.first_failure;
  EXPECT_EQ(report.cases_run, 250);
}

TEST(DifferentialFuzzTest, PprPushMatchesOracles) {
  const FuzzReport report = FuzzPpr(QuickOptions(250));
  EXPECT_TRUE(report.ok()) << report.first_failure;
}

TEST(DifferentialFuzzTest, RankingMatchesOracles) {
  const FuzzReport report = FuzzRanking(QuickOptions(400));
  EXPECT_TRUE(report.ok()) << report.first_failure;
}

TEST(DifferentialFuzzTest, ServingTiersMatchSequentialReplay) {
  const FuzzReport report = FuzzServe(QuickOptions(60));
  EXPECT_TRUE(report.ok()) << report.first_failure;
}

TEST(DifferentialFuzzTest, SubsystemDispatchAcceptsAllNames) {
  for (const char* name : {"tensor", "ppr", "ranking", "topn", "serve"}) {
    const FuzzReport report = FuzzSubsystem(name, QuickOptions(2));
    EXPECT_TRUE(report.ok()) << name << ": " << report.first_failure;
    EXPECT_EQ(report.cases_run, 2) << name;
  }
}

}  // namespace
}  // namespace testing
}  // namespace kucnet
