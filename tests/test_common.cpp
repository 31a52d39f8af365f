/**
 * @file
 * Unit tests for the common utilities: RNG, Zipf sampler, spin delay,
 * cache-line helpers.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <set>

#include "common/cacheline.h"
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
