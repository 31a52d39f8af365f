/**
 * @file
 * Unit tests for the persistent heap and the real persist domain:
 * offsets, roots, crash-flag lifecycle, file-backed reopen,
 * persist-event accounting, and the CPUID choice of write-back
 * instruction.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"

namespace ido::nvm {
namespace {

TEST(PersistentHeap, AnonymousCreation)
{
    PersistentHeap heap({.path = "", .size = 1u << 20});
    EXPECT_NE(heap.base(), nullptr);
    EXPECT_GE(heap.size(), 1u << 20);
    EXPECT_FALSE(heap.recovered_from_crash());
    EXPECT_FALSE(heap.reopened());
}

TEST(PersistentHeap, OffsetRoundTrip)
{
    PersistentHeap heap({.size = 1u << 20});
    auto* p = heap.resolve<uint64_t>(4096);
    EXPECT_EQ(heap.to_offset(p), 4096u);
    EXPECT_EQ(heap.resolve<void>(0), nullptr);
    EXPECT_EQ(heap.to_offset(nullptr), 0u);
}

TEST(PersistentHeap, ContainsChecks)
{
    PersistentHeap heap({.size = 1u << 20});
    EXPECT_TRUE(heap.contains(heap.base()));
    EXPECT_TRUE(heap.contains(heap.resolve<void>(heap.size() - 1)));
    uint64_t outside = 0;
    EXPECT_FALSE(heap.contains(&outside));
}

TEST(PersistentHeap, RootsPersistAndRead)
{
    PersistentHeap heap({.size = 1u << 20});
    RealDomain dom;
    EXPECT_EQ(heap.root(RootSlot::kAppRoot), 0u);
    heap.set_root(RootSlot::kAppRoot, 12345, dom);
    heap.set_root(RootSlot::kIdoLogHead, 777, dom);
    EXPECT_EQ(heap.root(RootSlot::kAppRoot), 12345u);
    EXPECT_EQ(heap.root(RootSlot::kIdoLogHead), 777u);
}

TEST(PersistentHeap, CrashFlagLifecycle)
{
    PersistentHeap heap({.size = 1u << 20});
    RealDomain dom;
    heap.mark_running(dom);
    heap.simulate_fresh_open();
    EXPECT_TRUE(heap.recovered_from_crash());
    heap.mark_clean(dom);
    heap.simulate_fresh_open();
    EXPECT_FALSE(heap.recovered_from_crash());
}

TEST(PersistentHeap, FileBackedReopenPreservesData)
{
    const std::string path = "/tmp/ido_test_heap.img";
    std::remove(path.c_str());
    RealDomain dom;
    {
        PersistentHeap heap({.path = path, .size = 1u << 20});
        EXPECT_FALSE(heap.reopened());
        heap.set_root(RootSlot::kAppRoot, 999, dom);
        auto* p = heap.resolve<uint64_t>(8192);
        dom.store_val(p, uint64_t{0xdeadbeef});
        dom.flush(p, 8);
        dom.fence();
        heap.mark_running(dom); // "crash" by not marking clean
    }
    {
        PersistentHeap heap({.path = path, .size = 1u << 20});
        EXPECT_TRUE(heap.reopened());
        EXPECT_TRUE(heap.recovered_from_crash());
        EXPECT_EQ(heap.root(RootSlot::kAppRoot), 999u);
        EXPECT_EQ(*heap.resolve<uint64_t>(8192), 0xdeadbeefu);
    }
    std::remove(path.c_str());
}

TEST(PersistentHeap, FileBackedResetDiscards)
{
    const std::string path = "/tmp/ido_test_heap2.img";
    std::remove(path.c_str());
    RealDomain dom;
    {
        PersistentHeap heap({.path = path, .size = 1u << 20});
        heap.set_root(RootSlot::kAppRoot, 42, dom);
    }
    {
        PersistentHeap heap(
            {.path = path, .size = 1u << 20, .reset = true});
        EXPECT_FALSE(heap.reopened());
        EXPECT_EQ(heap.root(RootSlot::kAppRoot), 0u);
    }
    std::remove(path.c_str());
}

TEST(PersistentHeap, AnonymousHeapGetsHugePages)
{
    // The heap asks for 2 MiB pages (MADV_HUGEPAGE); only a host with
    // transparent huge pages off refuses them outright.
    std::FILE* f =
        std::fopen("/sys/kernel/mm/transparent_hugepage/enabled", "r");
    char mode[128] = {};
    if (f != nullptr) {
        if (std::fgets(mode, sizeof(mode), f) == nullptr)
            mode[0] = '\0';
        std::fclose(f);
    }
    if (f == nullptr
        || std::string(mode).find("[never]") != std::string::npos)
        GTEST_SKIP() << "transparent huge pages are off on this host";
    PersistentHeap heap({.size = 16u << 20});
    std::memset(heap.base(), 0x5a, heap.size());
    EXPECT_GT(heap.huge_page_bytes(), 0u);
    EXPECT_LE(heap.huge_page_bytes(), heap.size());
    // The gauge reads the same smaps lines at scrape time.
    const auto gauges = MetricsRegistry::instance().snapshot().gauges;
    ASSERT_TRUE(gauges.count("nvm.heap.huge_page_bytes"));
    EXPECT_GT(gauges.at("nvm.heap.huge_page_bytes"), 0u);
}

TEST(RealDomain, StoreLoadRoundTrip)
{
    PersistentHeap heap({.size = 1u << 20});
    RealDomain dom;
    auto* p = heap.resolve<uint64_t>(4096);
    dom.store_val(p, uint64_t{0x1122334455667788});
    EXPECT_EQ(dom.load_val(p), 0x1122334455667788u);
}

TEST(RealDomain, CountsEvents)
{
    PersistentHeap heap({.size = 1u << 20});
    RealDomain dom;
    persist_counters_reset_global();
    tls_persist_counters().clear();
    auto* p = heap.resolve<uint8_t>(4096);
    dom.store(p, "xyz", 3);
    dom.flush(p, 200); // 4 lines (200 bytes from line start)
    dom.fence();
    const PersistCounters& c = tls_persist_counters();
    EXPECT_EQ(c.stores, 1u);
    EXPECT_EQ(c.store_bytes, 3u);
    EXPECT_EQ(c.flushes, 4u);
    EXPECT_EQ(c.fences, 1u);
    tls_persist_counters().clear();
}

TEST(RealDomain, FlushDelayChargedAtFence)
{
    PersistentHeap heap({.size = 1u << 20});
    RealDomain slow(20000); // 20us per line: measurable
    auto* p = heap.resolve<uint64_t>(4096);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 50; ++i)
        slow.flush(p, 8);
    // The fence waits for all 50 write-backs: 50 x 20us = 1ms at least.
    slow.fence();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_GE(ms, 1.0);
}

TEST(FlushInsn, SelectionIsAPureFunctionOfCpuidBits)
{
    EXPECT_EQ(select_flush_insn(0), FlushInsn::kClflush);
    EXPECT_EQ(select_flush_insn(kCpuidClflushopt), FlushInsn::kClflushopt);
    EXPECT_EQ(select_flush_insn(kCpuidClwb), FlushInsn::kClwb);
    EXPECT_EQ(select_flush_insn(kCpuidClflushopt | kCpuidClwb),
              FlushInsn::kClwb);
    // Unrelated leaf-7 bits do not change the choice.
    EXPECT_EQ(select_flush_insn(~(kCpuidClflushopt | kCpuidClwb)),
              FlushInsn::kClflush);
    EXPECT_EQ(flush_insn(), select_flush_insn(cpuid_leaf7_ebx()));
    EXPECT_STREQ(flush_insn_name(FlushInsn::kClflush), "clflush");
    EXPECT_STREQ(flush_insn_name(FlushInsn::kClflushopt), "clflushopt");
    EXPECT_STREQ(flush_insn_name(FlushInsn::kClwb), "clwb");
}

TEST(FlushInsn, EverySupportedInstructionWritesBack)
{
    PersistentHeap heap({.size = 1u << 20});
    auto* p = heap.resolve<uint64_t>(4096);
    const uint32_t ebx = cpuid_leaf7_ebx();
    const struct
    {
        FlushInsn insn;
        bool supported;
    } kInsns[] = { { FlushInsn::kClflush, true },
                   { FlushInsn::kClflushopt, (ebx & kCpuidClflushopt) != 0 },
                   { FlushInsn::kClwb, (ebx & kCpuidClwb) != 0 } };
    for (const auto& [insn, supported] : kInsns) {
        if (!supported)
            continue;
        *p = static_cast<uint64_t>(insn) + 1;
        flush_line_with(insn, p);
        sfence_hw();
        EXPECT_EQ(*p, static_cast<uint64_t>(insn) + 1)
            << flush_insn_name(insn);
    }
}

TEST(RealDomain, UnalignedMultiLineFlushCountsEachLine)
{
    PersistentHeap heap({.size = 1u << 20});
    RealDomain dom;
    tls_persist_counters().clear();
    auto* line = heap.resolve<uint8_t>(4096);
    dom.flush(line + 60, 70); // bytes 60..129: lines 0, 1 and 2
    EXPECT_EQ(tls_persist_counters().flushes, 3u);
    dom.flush(line + 63, 1); // one byte: its line only
    EXPECT_EQ(tls_persist_counters().flushes, 4u);
    dom.flush(line + 64, 128); // two whole lines
    EXPECT_EQ(tls_persist_counters().flushes, 6u);
    dom.fence();
    tls_persist_counters().clear();
    // The domain names the instruction it issued.
    const auto snap = MetricsRegistry::instance().snapshot();
    ASSERT_EQ(snap.gauges.count("nvm.flush_insn"), 1u);
    EXPECT_EQ(snap.gauges.at("nvm.flush_insn"),
              static_cast<uint64_t>(flush_insn()));
}

TEST(PersistCounters, GlobalAggregation)
{
    persist_counters_reset_global();
    tls_persist_counters().clear();
    tls_persist_counters().stores = 5;
    tls_persist_counters().fences = 2;
    persist_counters_flush_tls();
    std::thread([] {
        tls_persist_counters().stores = 7;
        persist_counters_flush_tls();
    }).join();
    const PersistCounters total = persist_counters_global();
    EXPECT_EQ(total.stores, 12u);
    EXPECT_EQ(total.fences, 2u);
    EXPECT_EQ(tls_persist_counters().stores, 0u);
    persist_counters_reset_global();
}

} // namespace
} // namespace ido::nvm
