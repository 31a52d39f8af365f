/**
 * @file
 * Unit tests for the common utilities: RNG, Zipf sampler, histogram,
 * spin delay, cache-line helpers.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <set>

#include "common/cacheline.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/spin_delay.h"
#include "common/zipf.h"

namespace ido {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.next_below(37), 37u);
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(13);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.next_below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, PercentExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.percent(0));
        EXPECT_TRUE(rng.percent(100));
    }
}

TEST(Rng, PercentRoughlyCalibrated)
{
    Rng rng(23);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.percent(30);
    EXPECT_NEAR(hits / 100000.0, 0.30, 0.02);
}

TEST(Zipf, UniformWhenThetaZero)
{
    ZipfSampler zipf(10, 0.0);
    Rng rng(5);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        counts[zipf.next(rng)]++;
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600);
}

TEST(Zipf, SkewFavorsLowKeys)
{
    ZipfSampler zipf(1000, 0.99);
    Rng rng(5);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 200000; ++i)
        counts[zipf.next(rng)]++;
    // Key 0 should dominate; the tail should be sparse.
    EXPECT_GT(counts[0], counts[500] * 10);
    EXPECT_GT(counts[0], 200000 / 100);
}

TEST(Zipf, AllSamplesInRange)
{
    ZipfSampler zipf(100, 0.8);
    Rng rng(7);
    for (int i = 0; i < 50000; ++i)
        EXPECT_LT(zipf.next(rng), 100u);
}

TEST(Zipf, SingleElementRange)
{
    ZipfSampler zipf(1, 0.99);
    Rng rng(9);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.next(rng), 0u);
}

TEST(Histogram, EmptyBehaviour)
{
    Histogram h;
    EXPECT_EQ(h.total_samples(), 0u);
    EXPECT_EQ(h.cdf(5), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.max_value(), 0u);
}

TEST(Histogram, BasicCounts)
{
    Histogram h;
    h.add(0);
    h.add(1);
    h.add(1);
    h.add(3);
    EXPECT_EQ(h.total_samples(), 4u);
    EXPECT_EQ(h.count_at(1), 2u);
    EXPECT_DOUBLE_EQ(h.cdf(0), 0.25);
    EXPECT_DOUBLE_EQ(h.cdf(1), 0.75);
    EXPECT_DOUBLE_EQ(h.cdf(3), 1.0);
    EXPECT_DOUBLE_EQ(h.mean(), 1.25);
    EXPECT_EQ(h.max_value(), 3u);
}

TEST(Histogram, Percentiles)
{
    Histogram h;
    for (uint64_t v = 0; v < 100; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(0.5), 49u);
    EXPECT_EQ(h.percentile(1.0), 99u);
}

// q=0 must land on the smallest populated value even when bucket 0 is
// empty (the old `acc >= 0` walk returned 0 unconditionally), and
// out-of-range quantiles clamp instead of walking off the array.
TEST(Histogram, PercentileZeroAndClamp)
{
    Histogram h;
    h.add(5);
    h.add(9);
    EXPECT_EQ(h.percentile(0.0), 5u);
    EXPECT_EQ(h.percentile(-0.5), 5u);
    EXPECT_EQ(h.percentile(1.5), 9u);
    Histogram empty;
    EXPECT_EQ(empty.percentile(0.0), 0u);
    EXPECT_EQ(empty.percentile(1.0), 0u);
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a, b;
    a.add(2, 5);
    b.add(2, 3);
    b.add(7);
    a.merge(b);
    EXPECT_EQ(a.count_at(2), 8u);
    EXPECT_EQ(a.count_at(7), 1u);
    EXPECT_EQ(a.total_samples(), 9u);
}

TEST(Histogram, ClampsHugeValues)
{
    Histogram h;
    h.add(1u << 30);
    EXPECT_EQ(h.total_samples(), 1u);
    EXPECT_EQ(h.max_value(), 4095u);
}

TEST(SpinDelay, WaitsAtLeastTheDelay)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 100; ++i)
        spin_delay_ns(10000); // 100 x 10us = 1ms nominal
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    // A deadline spin never returns early; the upper bound leaves a
    // loaded machine 24x slack for preemption.
    EXPECT_GE(ms, 1.0);
    EXPECT_LT(ms, 25.0);
}

TEST(CacheLine, LineBase)
{
    EXPECT_EQ(line_base(0), 0u);
    EXPECT_EQ(line_base(63), 0u);
    EXPECT_EQ(line_base(64), 64u);
    EXPECT_EQ(line_base(130), 128u);
}

TEST(CacheLine, LinesSpanned)
{
    EXPECT_EQ(lines_spanned(0, 0), 0u);
    EXPECT_EQ(lines_spanned(0, 1), 1u);
    EXPECT_EQ(lines_spanned(0, 64), 1u);
    EXPECT_EQ(lines_spanned(0, 65), 2u);
    EXPECT_EQ(lines_spanned(60, 8), 2u);
    EXPECT_EQ(lines_spanned(32, 128), 3u);
}

} // namespace
} // namespace ido
