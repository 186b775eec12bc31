// Tests for src/stats: Welford accumulators, merging, histograms/quantiles,
// batch-means confidence intervals, time-weighted averages.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stats/batch_means.hpp"
#include "stats/histogram.hpp"
#include "stats/online.hpp"
#include "stats/time_weighted.hpp"
#include "util/rng.hpp"

namespace affinity {
namespace {

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  Rng rng(3);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal() * 3 + 1;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copies
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, QuantilesOfUniformSamples) {
  Histogram h(0.1, 6, 64);
  Rng rng(5);
  for (int i = 0; i < 200000; ++i) h.add(rng.uniform(10.0, 1000.0));
  EXPECT_NEAR(h.quantile(0.5), 505.0, 20.0);
  EXPECT_NEAR(h.quantile(0.95), 950.5, 30.0);
  EXPECT_NEAR(h.quantile(0.05), 59.5, 10.0);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, MeanIsExact) {
  Histogram h(0.1, 6, 32);
  h.add(10.0);
  h.add(20.0);
  h.add(60.0);
  EXPECT_DOUBLE_EQ(h.mean(), 30.0);
}

TEST(Histogram, OverflowCounted) {
  Histogram h(1.0, 2, 8);  // covers [1, 100)
  h.add(0.5);               // underflow
  h.add(1e6);               // overflow
  h.add(10.0);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.quantile(0.2), 1.0);  // underflow ranks report the range floor
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h(1.0, 3, 8);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(BatchMeans, MeanMatchesSampleMean) {
  BatchMeans bm(10);
  double sum = 0.0;
  for (int i = 1; i <= 105; ++i) {  // includes a partial batch
    bm.add(i);
    sum += i;
  }
  EXPECT_NEAR(bm.mean(), sum / 105.0, 1e-9);
  EXPECT_EQ(bm.batchCount(), 10u);
}

TEST(BatchMeans, HalfWidthShrinksWithData) {
  Rng rng(9);
  BatchMeans small(100), large(100);
  for (int i = 0; i < 1000; ++i) small.add(rng.normal());
  for (int i = 0; i < 100000; ++i) large.add(rng.normal());
  EXPECT_GT(small.halfWidth(), large.halfWidth());
  EXPECT_LT(large.halfWidth(), 0.05);
}

TEST(BatchMeans, InfiniteWithFewBatches) {
  BatchMeans bm(1000);
  for (int i = 0; i < 500; ++i) bm.add(1.0);
  EXPECT_TRUE(std::isinf(bm.halfWidth()));
}

TEST(BatchMeans, CoverageOfIidNormal) {
  // ~95% of 95% CIs over iid normal batches should contain 0.
  int covered = 0;
  const int reps = 200;
  for (int r = 0; r < reps; ++r) {
    Rng rng(1000 + r);
    BatchMeans bm(50);
    for (int i = 0; i < 2500; ++i) bm.add(rng.normal());
    double m = 0.0;
    BatchMeans* p = &bm;
    m = p->mean();
    if (std::abs(m) <= bm.halfWidth(0.95)) ++covered;
  }
  EXPECT_GE(covered, reps * 85 / 100);
  EXPECT_LE(covered, reps);
}

TEST(StudentT, TableValues) {
  EXPECT_NEAR(studentTCritical(1, 0.95), 12.706, 1e-3);
  EXPECT_NEAR(studentTCritical(10, 0.95), 2.228, 1e-3);
  EXPECT_NEAR(studentTCritical(30, 0.99), 2.750, 1e-3);
  EXPECT_NEAR(studentTCritical(1000, 0.95), 1.960, 1e-3);
  EXPECT_NEAR(studentTCritical(5, 0.90), 2.015, 1e-3);
  EXPECT_TRUE(std::isinf(studentTCritical(0, 0.95)));
}

TEST(TimeWeighted, PiecewiseConstantAverage) {
  TimeWeighted tw;
  tw.set(0.0, 2.0);   // level 2 on [0,10)
  tw.set(10.0, 4.0);  // level 4 on [10,20)
  tw.set(20.0, 1.0);  // level 1 from t=20
  EXPECT_DOUBLE_EQ(tw.average(20.0), 3.0);
  EXPECT_DOUBLE_EQ(tw.level(), 1.0);
  EXPECT_DOUBLE_EQ(tw.maxLevel(), 4.0);
}

TEST(TimeWeighted, AdjustAndReset) {
  TimeWeighted tw;
  tw.set(0.0, 1.0);
  tw.adjust(5.0, +1.0);  // level 2 from t=5
  EXPECT_DOUBLE_EQ(tw.average(10.0), 1.5);
  EXPECT_DOUBLE_EQ(tw.maxLevel(), 2.0);
  tw.resetAt(10.0);  // discard history; the peak restarts at the level
  tw.adjust(15.0, -1.0);
  EXPECT_DOUBLE_EQ(tw.average(20.0), 1.5);
  EXPECT_DOUBLE_EQ(tw.maxLevel(), 2.0);
}

TEST(TimeWeighted, EmptyAverageIsZero) {
  TimeWeighted tw;
  EXPECT_DOUBLE_EQ(tw.average(10.0), 0.0);
}

}  // namespace
}  // namespace affinity
