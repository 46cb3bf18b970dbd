#include "core/branch_predictor.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace uolap::core {
namespace {

TEST(BranchPredictorTest, LearnsAlwaysTaken) {
  BranchPredictor bp;
  for (int i = 0; i < 10000; ++i) bp.Record(1, true);
  // After the history warms up the predictor should be essentially perfect.
  EXPECT_LT(bp.MispredictRate(), 0.01);
}

TEST(BranchPredictorTest, LearnsAlwaysNotTaken) {
  BranchPredictor bp;
  for (int i = 0; i < 1000; ++i) bp.Record(1, false);
  EXPECT_LT(bp.MispredictRate(), 0.01);
}

TEST(BranchPredictorTest, LearnsAlternatingPatternViaHistory) {
  BranchPredictor bp;
  for (int i = 0; i < 4000; ++i) bp.Record(7, i % 2 == 0);
  // gshare captures short periodic patterns through global history.
  EXPECT_LT(bp.MispredictRate(), 0.05);
}

TEST(BranchPredictorTest, RandomFiftyPercentIsHard) {
  BranchPredictor bp;
  uolap::Rng rng(42);
  for (int i = 0; i < 50000; ++i) bp.Record(3, rng.Bernoulli(0.5));
  // Around 50% mispredictions on a Bernoulli(0.5) stream: the paper's
  // "prediction task is the hardest at the 50% selectivity".
  EXPECT_GT(bp.MispredictRate(), 0.35);
  EXPECT_LT(bp.MispredictRate(), 0.65);
}

TEST(BranchPredictorTest, RareTakenIsEasy) {
  BranchPredictor bp;
  uolap::Rng rng(42);
  for (int i = 0; i < 50000; ++i) bp.Record(3, rng.Bernoulli(0.001));
  // Combined 0.1% selectivity (compiled-engine predicate): almost free.
  EXPECT_LT(bp.MispredictRate(), 0.01);
}

TEST(BranchPredictorTest, MispredictRateGrowsTowardFifty) {
  // Monotone shape property across Bernoulli probabilities.
  double last = -1.0;
  for (double p : {0.01, 0.10, 0.30, 0.50}) {
    BranchPredictor bp;
    uolap::Rng rng(7);
    for (int i = 0; i < 40000; ++i) bp.Record(11, rng.Bernoulli(p));
    EXPECT_GT(bp.MispredictRate(), last);
    last = bp.MispredictRate();
  }
}

TEST(BranchPredictorTest, SymmetricAroundFifty) {
  auto rate = [](double p) {
    BranchPredictor bp;
    uolap::Rng rng(9);
    for (int i = 0; i < 40000; ++i) bp.Record(5, rng.Bernoulli(p));
    return bp.MispredictRate();
  };
  EXPECT_NEAR(rate(0.1), rate(0.9), 0.06);
}

TEST(BranchPredictorTest, CountsBranches) {
  BranchPredictor bp;
  for (int i = 0; i < 17; ++i) bp.Record(1, true);
  EXPECT_EQ(bp.branches(), 17u);
}

TEST(BranchPredictorTest, DistinctSitesDoNotAliasBadly) {
  // Two sites with opposite biases should both be predicted well.
  BranchPredictor bp;
  for (int i = 0; i < 5000; ++i) {
    bp.Record(100, true);
    bp.Record(200, false);
  }
  EXPECT_LT(bp.MispredictRate(), 0.05);
}

}  // namespace
}  // namespace uolap::core
