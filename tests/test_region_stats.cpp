/**
 * @file
 * Tests for the Fig. 8 statistics plumbing and the region-shape claims
 * of Sec. V-C: stores-per-region and live-in-register distributions
 * collected from live execution, and the "<5 live-in registers for
 * ~all regions" property on the real workloads.
 */
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "apps/redis_client.h"
#include "baselines/runtime_factory.h"
#include "ds/stack.h"
#include "ds/workload.h"
#include "stats/metrics.h"
#include "stats/region_stats.h"
#include "stats/stat_plane.h"

namespace ido {
namespace {

LatencyHistogram
stores_hist()
{
    return region_stores_recorder().snapshot();
}

LatencyHistogram
live_in_hist()
{
    return region_live_in_recorder().snapshot();
}

TEST(RegionStats, RecordsIntoRegistryLatencies)
{
    region_stats_reset();
    region_stores_recorder().record(0);
    region_stores_recorder().record(2);
    region_stores_recorder().record(2);
    region_live_in_recorder().record(1);
    region_live_in_recorder().record(3);
    region_live_in_recorder().record(3);
    const auto snap = MetricsRegistry::instance().snapshot();
    const auto stores = snap.latencies.find("region.stores_per_region");
    ASSERT_NE(stores, snap.latencies.end());
    EXPECT_EQ(stores->second.total(), 3u);
    EXPECT_EQ(stores->second.count_in_bucket(2), 2u);
    const auto live_in = snap.latencies.find("region.live_in_per_region");
    ASSERT_NE(live_in, snap.latencies.end());
    EXPECT_EQ(live_in->second.count_in_bucket(3), 2u);

    // Every exposition renders them as ordinary latency recorders.
    auto& reg = MetricsRegistry::instance();
    EXPECT_NE(reg.format_json().find(
                  "\"region.stores_per_region\":{\"count\":3,"),
              std::string::npos);
    EXPECT_NE(reg.format_text().find("region.stores_per_region"),
              std::string::npos);
    const std::string prom = stat_prometheus_text();
    EXPECT_NE(prom.find("# TYPE ido_region_stores_per_region summary"),
              std::string::npos);
    EXPECT_NE(prom.find("ido_region_live_in_per_region_count 3"),
              std::string::npos);
    region_stats_reset();
    EXPECT_EQ(stores_hist().total(), 0u);
}

TEST(RegionStats, CollectionOffRecordsNothing)
{
    region_stats_reset();
    nvm::PersistentHeap heap({.size = 64u << 20});
    nvm::RealDomain dom;
    rt::RuntimeConfig cfg;
    cfg.collect_region_stats = false;
    auto runtime = baselines::make_runtime(
        baselines::RuntimeKind::kIdo, heap, dom, cfg);
    ds::WorkloadConfig wl;
    wl.ds = ds::DsKind::kStack;
    wl.threads = 1;
    wl.ops_per_thread = 500;
    const uint64_t root = ds::workload_setup(*runtime, wl);
    ds::workload_run(*runtime, root, wl);
    EXPECT_EQ(stores_hist().total(), 0u);
    EXPECT_EQ(live_in_hist().total(), 0u);
}

// A thread's samples are in the snapshot while it is still running:
// nothing waits for a flush call or a thread-exit fold.
TEST(RegionStats, VisibleWhileRecordingThreadAlive)
{
    region_stats_reset();
    nvm::PersistentHeap heap({.size = 64u << 20});
    nvm::RealDomain dom;
    rt::RuntimeConfig cfg;
    cfg.collect_region_stats = true;
    auto runtime = baselines::make_runtime(
        baselines::RuntimeKind::kIdo, heap, dom, cfg);
    const uint64_t root =
        ds::workload_setup(*runtime, ds::WorkloadConfig{}); // a stack
    region_stats_reset();

    std::mutex mu;
    std::condition_variable cv;
    bool pushed = false;
    bool release = false;
    std::thread worker([&] {
        auto th = runtime->make_thread();
        ds::PStack(root).push(*th, 42);
        std::unique_lock<std::mutex> lk(mu);
        pushed = true;
        cv.notify_all();
        cv.wait(lk, [&] { return release; });
    });
    {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return pushed; });
    }
    const uint64_t seen = stores_hist().total();
    const uint64_t seen_live_in = live_in_hist().total();
    {
        std::lock_guard<std::mutex> lk(mu);
        release = true;
    }
    cv.notify_all();
    worker.join();
    EXPECT_GT(seen, 0u) << "push regions not visible before thread exit";
    EXPECT_EQ(seen_live_in, seen);
    EXPECT_EQ(stores_hist().total(), seen);
}

TEST(RegionStats, StackWorkloadDistributionShape)
{
    region_stats_reset();
    nvm::PersistentHeap heap({.size = 64u << 20});
    nvm::RealDomain dom;
    rt::RuntimeConfig cfg;
    cfg.collect_region_stats = true;
    auto runtime = baselines::make_runtime(
        baselines::RuntimeKind::kIdo, heap, dom, cfg);
    ds::WorkloadConfig wl;
    wl.ds = ds::DsKind::kStack;
    wl.threads = 1;
    wl.ops_per_thread = 2000;
    const uint64_t root = ds::workload_setup(*runtime, wl);
    ds::workload_run(*runtime, root, wl);

    const LatencyHistogram stores = stores_hist();
    ASSERT_GT(stores.total(), 1000u);
    // Microbenchmark claim (Sec. V-C): most regions have 0-1 stores.
    EXPECT_GT(stores.cdf(1), 0.70);
    // Live-in claim: >99% of regions have < 5 live-in registers.
    EXPECT_GT(live_in_hist().cdf(4), 0.99);
    region_stats_reset();
}

TEST(RegionStats, RedisHasMultiStoreRegions)
{
    region_stats_reset();
    nvm::PersistentHeap heap({.size = 128u << 20});
    nvm::RealDomain dom;
    rt::RuntimeConfig cfg;
    cfg.collect_region_stats = true;
    auto runtime = baselines::make_runtime(
        baselines::RuntimeKind::kIdo, heap, dom, cfg);
    apps::RedisWorkloadConfig wl;
    wl.key_range = 2000;
    wl.ops_total = 5000;
    wl.get_pct = 20; // write-heavy to exercise the set path
    const uint64_t root = apps::redis_setup(*runtime, wl);
    apps::redis_run(*runtime, root, wl);

    const LatencyHistogram stores = stores_hist();
    ASSERT_GT(stores.total(), 1000u);
    // Application claim: a significant fraction of regions carry
    // multiple stores (the log-consolidation iDO exploits).
    EXPECT_GT(1.0 - stores.cdf(1), 0.10);
    EXPECT_GT(live_in_hist().cdf(4), 0.90);
    region_stats_reset();
}

TEST(RegionStats, Fig8FormatterMentionsEverything)
{
    region_stats_reset();
    region_stores_recorder().record(1);
    region_live_in_recorder().record(2);
    const std::string text = format_fig8("demo");
    EXPECT_NE(text.find("[fig8] demo"), std::string::npos);
    EXPECT_NE(text.find("dynamic regions: 1"), std::string::npos);
    EXPECT_NE(text.find("stores/region"), std::string::npos);
    EXPECT_NE(text.find("live-in"), std::string::npos);
    EXPECT_NE(text.find("mean stores/region 1.00"), std::string::npos);
    region_stats_reset();
}

} // namespace
} // namespace ido
