/**
 * @file
 * ido-stat plane tests: log2-bucketed latency histogram math, the
 * lock-free multi-thread recorder (including snapshots racing thread
 * exit -- the tsan leg of CI leans on this), gauge registration,
 * Prometheus text exposition, and the structured recovery timeline.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/latency_histogram.h"
#include "stats/metrics.h"
#include "stats/recovery_timeline.h"
#include "stats/stat_plane.h"

namespace ido {
namespace {

// --------------------------------------------------------------------------
// LatencyHistogram bucket math
// --------------------------------------------------------------------------

TEST(LatencyHistogram, ExactBelowSixteen)
{
    for (uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
        EXPECT_EQ(LatencyHistogram::bucket_min(static_cast<uint32_t>(v)),
                  v);
        EXPECT_EQ(LatencyHistogram::bucket_max(static_cast<uint32_t>(v)),
                  v);
    }
}

// Fig. 8 records small integer counts (stores, live-in registers per
// region) into this type, so everything below 32 must be exact: counts,
// CDF, mean, the extreme percentiles, merge -- plus the clamp at the top.
TEST(LatencyHistogram, SmallIntegersExact)
{
    LatencyHistogram empty;
    EXPECT_EQ(empty.total(), 0u);
    EXPECT_EQ(empty.cdf(5), 0.0);
    EXPECT_EQ(empty.mean(), 0.0);
    EXPECT_EQ(empty.max_value(), 0u);
    EXPECT_EQ(empty.percentile(0.0), 0u);
    EXPECT_EQ(empty.percentile(1.0), 0u);

    // Value v recorded v + 1 times.
    LatencyHistogram h;
    uint64_t total = 0, sum = 0;
    for (uint64_t v = 0; v < 32; ++v) {
        h.record(v, v + 1);
        total += v + 1;
        sum += v * (v + 1);
    }
    ASSERT_EQ(h.total(), total);
    uint64_t below = 0;
    for (uint64_t v = 0; v < 32; ++v) {
        const auto i = static_cast<uint32_t>(v);
        EXPECT_EQ(LatencyHistogram::bucket_index(v), i);
        EXPECT_EQ(LatencyHistogram::bucket_min(i), v);
        EXPECT_EQ(LatencyHistogram::bucket_max(i), v);
        EXPECT_EQ(h.count_in_bucket(i), v + 1) << "v=" << v;
        below += v + 1;
        EXPECT_DOUBLE_EQ(h.cdf(v),
                         static_cast<double>(below)
                             / static_cast<double>(total))
            << "v=" << v;
    }
    EXPECT_DOUBLE_EQ(h.cdf(1000), 1.0);
    EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(sum)
                                   / static_cast<double>(total));
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(1.0), 31u);

    // q = 0 is the smallest *recorded* value even with bucket 0 empty;
    // out-of-range q clamps.
    LatencyHistogram sparse;
    sparse.record(5);
    sparse.record(9);
    EXPECT_EQ(sparse.percentile(0.0), 5u);
    EXPECT_EQ(sparse.percentile(-0.5), 5u);
    EXPECT_EQ(sparse.percentile(0.5), 5u);
    EXPECT_EQ(sparse.percentile(1.0), 9u);
    EXPECT_EQ(sparse.percentile(1.5), 9u);

    LatencyHistogram a, b;
    a.record(2, 5);
    b.record(2, 3);
    b.record(7);
    a.merge(b);
    EXPECT_EQ(a.count_in_bucket(2), 8u);
    EXPECT_EQ(a.count_in_bucket(7), 1u);
    EXPECT_EQ(a.total(), 9u);
    EXPECT_EQ(a.min_value(), 2u);
    EXPECT_EQ(a.max_value(), 7u);
    EXPECT_DOUBLE_EQ(a.mean(), (2.0 * 8 + 7.0) / 9.0);

    LatencyHistogram huge;
    huge.record(UINT64_MAX);
    EXPECT_EQ(huge.total(), 1u);
    EXPECT_EQ(huge.max_value(), LatencyHistogram::kClamp);
    EXPECT_EQ(huge.count_in_bucket(LatencyHistogram::kNumBuckets - 1), 1u);
}

// Every bucket's [min, max] range must round-trip through
// bucket_index, and consecutive buckets must tile the value space with
// no gap or overlap.
TEST(LatencyHistogram, BucketBoundsTileTheRange)
{
    for (uint32_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        const uint64_t lo = LatencyHistogram::bucket_min(i);
        const uint64_t hi = LatencyHistogram::bucket_max(i);
        ASSERT_LE(lo, hi) << "bucket " << i;
        EXPECT_EQ(LatencyHistogram::bucket_index(lo), i);
        EXPECT_EQ(LatencyHistogram::bucket_index(hi), i);
        if (i + 1 < LatencyHistogram::kNumBuckets) {
            EXPECT_EQ(LatencyHistogram::bucket_min(i + 1), hi + 1)
                << "gap/overlap after bucket " << i;
        }
    }
    // Clamp: the largest representable value and anything beyond land
    // in the last bucket.
    EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::kClamp),
              LatencyHistogram::kNumBuckets - 1);
    EXPECT_EQ(LatencyHistogram::bucket_index(UINT64_MAX),
              LatencyHistogram::kNumBuckets - 1);
}

// Sub-bucketing bounds the relative error: above the exact range a
// bucket spans 2^(exp-4) values starting at >= 2^exp, so any reported
// quantile is within 1/16 of the true sample.
TEST(LatencyHistogram, RelativeErrorBounded)
{
    for (uint64_t v = 16; v < LatencyHistogram::kClamp / 3;
         v = v * 3 + 1) {
        const uint32_t i = LatencyHistogram::bucket_index(v);
        const uint64_t width = LatencyHistogram::bucket_max(i)
            - LatencyHistogram::bucket_min(i) + 1;
        EXPECT_LE(width * 16, LatencyHistogram::bucket_min(i) * 2)
            << "bucket too wide at v=" << v;
    }
}

TEST(LatencyHistogram, EmptyAndSingleSample)
{
    LatencyHistogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.min_value(), 0u);
    EXPECT_EQ(h.max_value(), 0u);
    EXPECT_EQ(h.mean(), 0.0);

    h.record(777);
    EXPECT_EQ(h.total(), 1u);
    // q clamps; the extremes are exact regardless of bucket width.
    EXPECT_EQ(h.percentile(-1.0), 777u);
    EXPECT_EQ(h.percentile(0.0), 777u);
    EXPECT_EQ(h.percentile(1.0), 777u);
    EXPECT_EQ(h.percentile(2.0), 777u);
    EXPECT_EQ(h.min_value(), 777u);
    EXPECT_EQ(h.max_value(), 777u);
    EXPECT_DOUBLE_EQ(h.mean(), 777.0);
}

TEST(LatencyHistogram, PercentileWithinBucketResolution)
{
    LatencyHistogram h;
    std::vector<uint64_t> samples;
    uint64_t x = 12345;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t v = (x >> 33) % 50'000'000; // 0..50ms in ns
        samples.push_back(v);
        h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const uint64_t exact =
            samples[static_cast<size_t>(q * (samples.size() - 1))];
        const uint64_t est = h.percentile(q);
        // The estimate is a bucket upper bound: never more than one
        // bucket (6.25% relative) above the exact quantile, and at
        // least the exact quantile's bucket lower bound.
        EXPECT_GE(static_cast<double>(est),
                  static_cast<double>(exact) * (1.0 - 1.0 / 16));
        EXPECT_LE(static_cast<double>(est),
                  static_cast<double>(exact) * (1.0 + 2.0 / 16) + 16);
    }
}

TEST(LatencyHistogram, MergeCombinesTotalsAndExtremes)
{
    LatencyHistogram a, b;
    a.record(100, 3);
    b.record(1'000'000, 2);
    b.record(5);
    a.merge(b);
    EXPECT_EQ(a.total(), 6u);
    EXPECT_EQ(a.min_value(), 5u);
    EXPECT_EQ(a.max_value(), 1'000'000u);
    EXPECT_NEAR(a.mean(), (100.0 * 3 + 1'000'000.0 * 2 + 5) / 6, 1e-6);
    a.clear();
    EXPECT_EQ(a.total(), 0u);
    EXPECT_EQ(a.max_value(), 0u);
}

// --------------------------------------------------------------------------
// LatencyRecorder: lock-free shards under threads
// --------------------------------------------------------------------------

TEST(LatencyRecorder_, MultithreadTotalsExact)
{
    LatencyRecorder rec;
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&rec, t] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                rec.record(1000 + static_cast<uint64_t>(t));
        });
    }
    for (auto& t : threads)
        t.join();
    const LatencyHistogram snap = rec.snapshot();
    EXPECT_EQ(snap.total(), kThreads * kPerThread);
    EXPECT_EQ(snap.min_value(), 1000u);
    EXPECT_EQ(snap.max_value(), 1000u + kThreads - 1);
}

// Snapshots racing live recorders and thread exits must never observe
// a regressing or overshooting total (satellite of the tsan CI leg:
// shards are owned by the recorder and outlive their threads).
TEST(LatencyRecorder_, SnapshotRacesRecordersAndThreadExit)
{
    LatencyRecorder rec;
    constexpr int kRounds = 16;
    constexpr uint64_t kPerRound = 5000;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> bad{0};
    std::thread reader([&] {
        uint64_t prev = 0;
        while (!stop.load(std::memory_order_acquire)) {
            const uint64_t v = rec.snapshot().total();
            if (v < prev || v > kRounds * kPerRound)
                bad.fetch_add(1, std::memory_order_relaxed);
            prev = v;
        }
    });
    for (int r = 0; r < kRounds; ++r) {
        // Short-lived writer threads: each registers a shard, records,
        // and exits while the reader snapshots concurrently.
        std::thread w([&rec] {
            for (uint64_t i = 0; i < kPerRound; ++i)
                rec.record(50 + i % 100);
        });
        w.join();
    }
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(bad.load(), 0u);
    EXPECT_EQ(rec.snapshot().total(), kRounds * kPerRound)
        << "samples from exited threads must stay visible";
}

TEST(LatencyRecorder_, ResetZeroesQuiescentShards)
{
    LatencyRecorder rec;
    rec.record(123);
    std::thread([&rec] { rec.record(456); }).join();
    EXPECT_EQ(rec.snapshot().total(), 2u);
    rec.reset();
    EXPECT_EQ(rec.snapshot().total(), 0u);
    rec.record(9);
    EXPECT_EQ(rec.snapshot().total(), 1u);
    EXPECT_EQ(rec.snapshot().min_value(), 9u);
}

// --------------------------------------------------------------------------
// Registry gauges + exposition
// --------------------------------------------------------------------------

TEST(StatPlane, GaugeRegisterReplaceUnregister)
{
    auto& reg = MetricsRegistry::instance();
    reg.register_gauge("t.stat.gauge", [] { return 41u; });
    EXPECT_EQ(reg.snapshot().gauges.at("t.stat.gauge"), 41u);
    reg.register_gauge("t.stat.gauge", [] { return 42u; });
    EXPECT_EQ(reg.snapshot().gauges.at("t.stat.gauge"), 42u);
    reg.unregister_gauge("t.stat.gauge");
    EXPECT_EQ(reg.snapshot().gauges.count("t.stat.gauge"), 0u);
}

TEST(StatPlane, PrometheusTextExposition)
{
    auto& reg = MetricsRegistry::instance();
    reg.set("t.prom.requests", 17);
    reg.register_gauge("t.prom.depth", [] { return 3u; });
    auto* lat = reg.latency("t.prom.lat");
    lat->reset();
    for (int i = 0; i < 100; ++i)
        lat->record(1000 + i);

    const std::string text = stat_prometheus_text();
    EXPECT_NE(text.find("# TYPE ido_t_prom_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("ido_t_prom_requests_total 17"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE ido_t_prom_depth gauge"),
              std::string::npos);
    EXPECT_NE(text.find("ido_t_prom_depth 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ido_t_prom_lat summary"),
              std::string::npos);
    EXPECT_NE(text.find("ido_t_prom_lat{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(text.find("ido_t_prom_lat_count 100"), std::string::npos);
    // Exposition format: no '.' may survive in a metric name.
    for (size_t pos = 0; (pos = text.find("\nido_", pos))
         != std::string::npos;
         ++pos) {
        const size_t end = text.find_first_of(" {", pos + 1);
        ASSERT_NE(end, std::string::npos);
        EXPECT_EQ(text.substr(pos + 1, end - pos - 1).find('.'),
                  std::string::npos);
    }
    reg.unregister_gauge("t.prom.depth");
}

TEST(StatPlane, ClockIsMonotonic)
{
    const uint64_t a = stat_now_ns();
    const uint64_t b = stat_now_ns();
    EXPECT_GE(b, a);
    EXPECT_GT(b, 0u);
}

// --------------------------------------------------------------------------
// Recovery timeline
// --------------------------------------------------------------------------

TEST(RecoveryTimeline_, JsonAndMetricsRoundTrip)
{
    auto& tl = RecoveryTimeline::instance();
    tl.start("crash");
    EXPECT_FALSE(tl.recorded());
    tl.add_phase("scan-log-records", 1200, 4);
    tl.add_phase("resume-fases", 3400, 2);
    tl.set_field("fases_resumed", 2);
    tl.set_field("locks_reacquired", 5);
    tl.finish();
    EXPECT_TRUE(tl.recorded());

    const std::string j = tl.to_json();
    EXPECT_NE(j.find("\"recorded\":true"), std::string::npos);
    EXPECT_NE(j.find("\"trigger\":\"crash\""), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"scan-log-records\""),
              std::string::npos);
    EXPECT_NE(j.find("\"dur_ns\":1200"), std::string::npos);
    EXPECT_NE(j.find("\"fases_resumed\":2"), std::string::npos);

    tl.publish_metrics();
    auto& reg = MetricsRegistry::instance();
    EXPECT_EQ(reg.counter_value("recovery.count"), 1u);
    EXPECT_EQ(reg.counter_value("recovery.fases_resumed"), 2u);
    EXPECT_EQ(reg.counter_value("recovery.locks_reacquired"), 5u);
    EXPECT_EQ(reg.counter_value("recovery.phase.resume-fases_ns"),
              3400u);

    // A phase added after finish() must not mutate the sealed record.
    tl.add_phase("stray", 1, 1);
    EXPECT_EQ(tl.to_json().find("\"stray\""), std::string::npos);
}

} // namespace
} // namespace ido
