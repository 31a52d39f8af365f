/**
 * @file
 * Tests for indirect locking: transient-lock resolution via persistent
 * holder slots, epoch invalidation (the recovery "all locks released"
 * rule), mutual exclusion, and abandoned-lock reclamation.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "nvm/persistent_heap.h"
#include "runtime/indirect_lock.h"

namespace ido::rt {
namespace {

TEST(TransientLock, BasicExclusion)
{
    TransientLock l;
    EXPECT_TRUE(l.try_lock());
    EXPECT_FALSE(l.try_lock());
    l.unlock();
    EXPECT_TRUE(l.try_lock());
    l.unlock();
}

TEST(TransientLock, WordIsASequence)
{
    // Odd = held; every acquire and release adds one, so a validated
    // read begun before an acquire fails even after the release.
    TransientLock l;
    const uint64_t s = seq_read_begin(l.sequence());
    EXPECT_EQ(s, 0u);
    EXPECT_TRUE(seq_read_valid(l.sequence(), s));
    ASSERT_TRUE(l.try_lock());
    EXPECT_EQ(seq_read_begin(l.sequence()), 1u);
    EXPECT_FALSE(seq_read_valid(l.sequence(), s));
    l.unlock();
    EXPECT_EQ(seq_read_begin(l.sequence()), 2u);
    EXPECT_FALSE(seq_read_valid(l.sequence(), s));
    EXPECT_TRUE(seq_read_valid(l.sequence(), 2));
}

TEST(TransientLock, MutualExclusionStress)
{
    TransientLock l;
    int counter = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 5000; ++i) {
                l.lock();
                ++counter; // data race iff the lock is broken
                l.unlock();
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(counter, 8 * 5000);
}

TEST(LockTable, SameSlotSameLock)
{
    nvm::PersistentHeap heap({.size = 1u << 20});
    LockTable table;
    auto* slot = heap.resolve<uint64_t>(4096);
    *slot = 0;
    TransientLock& a = table.lock_for(slot);
    TransientLock& b = table.lock_for(slot);
    EXPECT_EQ(&a, &b);
}

TEST(LockTable, DifferentSlotsDifferentLocks)
{
    nvm::PersistentHeap heap({.size = 1u << 20});
    LockTable table;
    auto* s1 = heap.resolve<uint64_t>(4096);
    auto* s2 = heap.resolve<uint64_t>(8192);
    *s1 = *s2 = 0;
    EXPECT_NE(&table.lock_for(s1), &table.lock_for(s2));
}

TEST(LockTable, EpochBumpReleasesAbandonedLock)
{
    nvm::PersistentHeap heap({.size = 1u << 20});
    LockTable table;
    auto* slot = heap.resolve<uint64_t>(4096);
    *slot = 0;
    TransientLock& old_lock = table.lock_for(slot);
    old_lock.lock(); // "crashed while holding"
    table.new_epoch();
    TransientLock& fresh = table.lock_for(slot);
    EXPECT_NE(&fresh, &old_lock);
    EXPECT_TRUE(fresh.try_lock()); // implicitly released
    fresh.unlock();
}

TEST(LockTable, FreshTableOverOldHeapIgnoresStalePointers)
{
    nvm::PersistentHeap heap({.size = 1u << 20});
    auto* slot = heap.resolve<uint64_t>(4096);
    *slot = 0;
    TransientLock* first;
    {
        LockTable table1;
        first = &table1.lock_for(slot);
        first->lock();
        // table1 dies with its epoch; slot still caches the pointer.
    }
    LockTable table2; // globally fresh epoch
    TransientLock& resolved = table2.lock_for(slot);
    EXPECT_TRUE(resolved.try_lock());
    resolved.unlock();
}

TEST(LockTable, EpochAllocatorSkipsZeroTagOnWrap)
{
    // The holder-slot epoch tag is 16 bits and tag 0 means
    // "never initialized"; after ~65k epochs the process counter wraps
    // through values whose low 16 bits are 0.  Handing such an epoch to
    // a table would make every stale slot in the heap look *current*.
    LockTable::set_next_process_epoch(0xffffffffu);
    EXPECT_EQ(LockTable::alloc_process_epoch(), 0xffffffffu);
    // Wrap: 0x00000000 carries tag 0 and must be skipped.
    EXPECT_EQ(LockTable::alloc_process_epoch(), 0x00000001u);
    // Every 0x....0000 value is reserved, not just the first wrap.
    LockTable::set_next_process_epoch(0x00030000u);
    EXPECT_EQ(LockTable::alloc_process_epoch(), 0x00030001u);
    // Park the counter above everything drawn so far so later tests
    // keep process-unique epochs.
    LockTable::set_next_process_epoch(0x00040001u);
}

TEST(LockTable, ConcurrentResolutionSingleWinner)
{
    nvm::PersistentHeap heap({.size = 1u << 20});
    LockTable table;
    auto* slot = heap.resolve<uint64_t>(4096);
    *slot = 0;
    std::vector<TransientLock*> results(16, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < 16; ++t) {
        threads.emplace_back(
            [&, t] { results[t] = &table.lock_for(slot); });
    }
    for (auto& th : threads)
        th.join();
    for (int t = 1; t < 16; ++t)
        EXPECT_EQ(results[t], results[0]);
}

TEST(LockTable, ExclusionAcrossResolvedHandles)
{
    nvm::PersistentHeap heap({.size = 1u << 20});
    LockTable table;
    auto* slot = heap.resolve<uint64_t>(4096);
    *slot = 0;
    std::atomic<int> inside{0};
    bool violation = false;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 2000; ++i) {
                TransientLock& l = table.lock_for(slot);
                l.lock();
                if (inside.fetch_add(1) != 0)
                    violation = true;
                inside.fetch_sub(1);
                l.unlock();
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_FALSE(violation);
}

} // namespace
} // namespace ido::rt
