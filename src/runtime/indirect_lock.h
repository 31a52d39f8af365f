/**
 * @file
 * Indirect locking (paper Sec. III-B).
 *
 * Mutexes themselves never need to be persistent: after a crash every
 * lock must end up released, so the values of the lock words are
 * irrelevant.  Each lockable object embeds a persistent *lock holder*
 * slot (a u64 inside the object); the holder caches the address of the
 * transient lock for the current run epoch.  Recovery starts a fresh
 * epoch, which implicitly "allocates a new transient lock for every
 * indirect lock holder" -- any stale pointer from the crashed run
 * carries an old epoch tag and is ignored.
 *
 * The holder slot is deliberately accessed with plain (non-domain)
 * atomics: it is transient data that happens to live in NVM, exactly as
 * in the paper, and is never flushed.
 *
 * Transient locks are test-and-test-and-set spinlocks rather than
 * std::mutex: a simulated crash abandons locks in the locked state, and
 * destroying a locked std::mutex is undefined behaviour, while an
 * abandoned spinlock is just a word.  The critical sections in all of
 * the paper's workloads are short, so spinning is also the
 * performance-appropriate choice.
 *
 * The lock word is also its own version (a seqlock, the idiom of
 * SNIPPETS.md's mem-record-rtmseq.c): an odd value means held, and
 * every acquire and every release adds one.  A reader that sees the
 * same even value before and after a lock-free read of the protected
 * data read a state no critical section was changing, which is what
 * RuntimeThread::read_validated builds on (DESIGN.md §5a).
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/panic.h"

namespace ido::rt {

/**
 * One backoff step of a thread waiting for the sequence word `w` to go
 * even (no writer): pause while it stays odd, occasionally yield.
 */
inline void
seq_spin_wait(const std::atomic<uint64_t>& w)
{
    for (int i = 0; i < 64; ++i) {
        if ((w.load(std::memory_order_relaxed) & 1) == 0)
            return;
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
    }
    std::this_thread::yield();
}

/** Start of a validated read of the data `w` guards (odd: held). */
inline uint64_t
seq_read_begin(const std::atomic<uint64_t>& w)
{
    return w.load(std::memory_order_acquire);
}

/**
 * End of a validated read begun at `s`: true if no writer took `w`
 * since, so every load between the two saw one unchanging state.  The
 * fence keeps those loads ahead of the re-read.
 */
inline bool
seq_read_valid(const std::atomic<uint64_t>& w, uint64_t s)
{
    std::atomic_thread_fence(std::memory_order_acquire);
    return w.load(std::memory_order_relaxed) == s;
}

/** Trivially-abandonable transient spinlock whose word is a sequence. */
class TransientLock
{
  public:
    void
    lock()
    {
        while (!try_lock())
            spin_wait();
    }

    /** Even to odd.  The release fence orders the CAS ahead of the
     *  holder's data stores, so a validated reader that sees one of
     *  them also sees the sequence move. */
    bool
    try_lock()
    {
        uint64_t s = word_.load(std::memory_order_relaxed);
        if ((s & 1) != 0
            || !word_.compare_exchange_strong(s, s + 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed))
            return false;
        std::atomic_thread_fence(std::memory_order_release);
        return true;
    }

    /** Odd to the next even; only the holder writes the word now.
     *  Releasing a lock not held would leave it odd for good. */
    void
    unlock()
    {
        const uint64_t s = word_.load(std::memory_order_relaxed);
        IDO_ASSERT((s & 1) != 0, "release of a transient lock not held");
        word_.store(s + 1, std::memory_order_release);
    }

    /** One backoff step while waiting (pause, occasionally yield). */
    void spin_wait() const { seq_spin_wait(word_); }

    /** The sequence word, for seq_read_begin / seq_read_valid. */
    const std::atomic<uint64_t>& sequence() const { return word_; }

    /** Record/replay sync-object key (kFaseLock, id = holder-slot heap
     *  offset).  Set once when the lock is installed in a holder slot;
     *  stable across runs because heap offsets are, which is what lets
     *  a .rec artifact name this lock in another process. */
    void set_rr_key(uint64_t key)
    {
        rr_key_.store(key, std::memory_order_relaxed);
    }

    uint64_t rr_key() const
    {
        return rr_key_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> word_{0};
    std::atomic<uint64_t> rr_key_{0};
};

/** Transient-lock resolver for persistent lock-holder slots. */
class LockTable
{
  public:
    LockTable();
    ~LockTable();

    LockTable(const LockTable&) = delete;
    LockTable& operator=(const LockTable&) = delete;

    /**
     * Resolve the transient lock for the holder slot at the given heap
     * address, creating one for the current epoch if needed.
     */
    TransientLock& lock_for(uint64_t* holder_slot);

    /**
     * Begin a new run epoch (called by recovery): every holder slot's
     * cached lock pointer becomes stale, so all locks are implicitly
     * released and fresh ones are handed out on demand.
     */
    void new_epoch();

    /**
     * Adopt an externally-allocated epoch.  Runtimes drive this from
     * the heap's persistent lock-epoch counter (RootSlot::kLockEpoch),
     * which is what makes tags unique across *process* lifetimes: a
     * restarted server must not reuse a tag a crashed run left in
     * holder slots, or it would adopt pointers into the dead process's
     * address space.  `epoch & 0xffff` must be nonzero (tag 0 means
     * never-initialized).
     */
    void set_epoch(uint32_t epoch);

    uint32_t epoch() const { return epoch_.load(std::memory_order_acquire); }

    /**
     * Base address for record/replay lock naming: transient locks get
     * tagged with the *offset* of their holder slot from this base
     * (stable across runs), not its absolute address.  Set by the
     * owning Runtime before any lock resolution.
     */
    void set_key_base(const void* base)
    {
        key_base_ = reinterpret_cast<uintptr_t>(base);
    }

    /** Number of transient locks created so far (diagnostics). */
    size_t locks_created() const;

    /**
     * Draw a process-local epoch, skipping any value whose 16-bit tag
     * is 0 (tag 0 in a holder slot means never-initialized): after
     * ~65k epochs the counter wraps through tag 0, and handing that
     * out would make every never-touched slot look current.
     */
    static uint32_t alloc_process_epoch();

    /** Test hook: reposition the process-local epoch counter (e.g. to
     *  just below a 16-bit wrap boundary). */
    static void set_next_process_epoch(uint32_t next);

  private:
    // Holder slot encoding: low 48 bits = lock pointer, high 16 bits =
    // epoch tag.  x86-64 canonical user pointers fit in 48 bits.
    static constexpr int kEpochShift = 48;
    static constexpr uint64_t kPtrMask = (1ull << kEpochShift) - 1;

    /** Fallback allocator for tables not attached to a heap (tests):
     *  process-unique only.  Runtimes override via set_epoch with the
     *  heap-persistent counter, which is unique across restarts too. */
    static std::atomic<uint32_t> g_next_epoch;

    // Locks are carved from slabs rather than allocated one by one:
    // the install path holds alloc_mutex_ for a pointer bump in the
    // common case, and each lock gets its own cache line so two hot
    // locks resolved back to back never ping-pong a shared line.
    struct Slab {
        static constexpr size_t kLocksPerSlab = 64;
        struct alignas(64) Cell {
            TransientLock lock;
        };
        std::array<Cell, kLocksPerSlab> cells;
    };

    mutable std::mutex alloc_mutex_;
    std::vector<std::unique_ptr<Slab>> slabs_;
    size_t slab_used_ = Slab::kLocksPerSlab; // full: first use allocates
    size_t locks_created_ = 0;
    std::atomic<uint32_t> epoch_;
    uintptr_t key_base_ = 0;
};

} // namespace ido::rt
