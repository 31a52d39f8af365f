/**
 * @file
 * Crash-accurate volatile-cache simulation over the persistent heap.
 *
 * The paper's failure model is the whole point of the system: caches are
 * volatile, so a crash exposes exactly those values that were explicitly
 * written back (clwb) and ordered (sfence) -- plus an arbitrary subset of
 * other dirty lines that the cache happened to evict.  ShadowDomain makes
 * that model executable:
 *
 *  - store(): the bytes land in a volatile per-cache-line shadow copy;
 *    the persistent image is untouched.
 *  - load(): served from the shadow if present (caches serve reads).
 *  - flush(): marks the line write-back-requested ("pending").
 *  - fence(): pending lines of the calling thread become durable (copied
 *    to the persistent image) and clean.
 *  - crash(): every outstanding line (dirty or pending) independently
 *    either reaches the image (an eviction / completed write-back) or is
 *    lost, controlled by CrashPolicy; the shadow is then discarded.
 *
 * Running a workload under ShadowDomain, crashing at a random point, and
 * then executing a runtime's recovery procedure against the surviving
 * image is the repo's primary correctness test for every logging
 * protocol (DESIGN.md Sec. 6).
 */
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/cacheline.h"
#include "common/rng.h"
#include "fuzz/rr.h"
#include "nvm/persist_domain.h"

namespace ido::nvm {

/** What happens to not-yet-durable lines at a simulated crash. */
enum class CrashPolicy
{
    kDropAll,     ///< no un-fenced line survives (most adversarial loss)
    kPersistAll,  ///< every dirty line was evicted (most adversarial leak)
    kRandom,      ///< each line independently survives with probability 1/2
};

/**
 * What a simulated crash threw away, broken down by the thread that
 * owned the lost lines -- the forensic answer to "which thread's
 * unfenced work did this crash destroy?".  Dumped as JSON into
 * IDO_TRACE_DIR (when set) at every crash() so a failing death test
 * leaves the census next to the ring-tracer dump.
 */
struct CrashCensus
{
    struct ThreadLoss
    {
        uint32_t owner_tid = 0;
        size_t dirty_lost = 0;    ///< stored, never flushed
        size_t pending_lost = 0;  ///< flushed, never fenced
        /** First few lost line addresses (heap offsets are stable
         *  across runs; absolute addresses are what a debugger needs). */
        std::vector<uintptr_t> first_addrs;
    };

    uint64_t crash_round = 0;     ///< nth crash() on this domain
    size_t lines_outstanding = 0; ///< dirty+pending at the crash
    size_t lines_survived = 0;    ///< won the lottery / policy persisted
    size_t lines_lost = 0;
    std::vector<ThreadLoss> threads;
};

class ShadowDomain final : public PersistDomain
{
  public:
    /**
     * @param base  start of the persistent range to interpose on
     * @param size  size of that range; accesses outside are direct
     * @param seed  RNG seed for crash-time line lottery
     */
    ShadowDomain(void* base, size_t size, uint64_t seed = 1);

    void store(void* dst, const void* src, size_t n) override;
    void load(const void* src, void* dst, size_t n) override;
    void flush(const void* addr, size_t n) override;
    void fence() override;
    bool is_shadow() const override { return true; }

    /**
     * Simulate a fail-stop crash: resolve the fate of every outstanding
     * line per policy, then discard the shadow.  After this call the
     * persistent image is exactly what post-crash recovery would see.
     */
    void crash(CrashPolicy policy);

    /** Write every outstanding line back and clear (clean shutdown). */
    void drain_all();

    /** Outstanding (not yet durable) line count, for tests. */
    size_t outstanding_lines() const;

    /** Census of the most recent crash() (empty before the first). */
    CrashCensus last_crash_census() const;

  private:
    enum class LineState : uint8_t { kDirty, kPending };

    struct ShadowLine
    {
        std::array<uint8_t, kCacheLineBytes> data;
        LineState state;
        uint32_t owner_tid; ///< thread whose fence persists a pending line
    };

    static constexpr size_t kShards = 64;

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<uintptr_t, ShadowLine> lines;
    };

    bool in_range(uintptr_t a, size_t n) const
    {
        return a >= base_ && a + n <= base_ + size_;
    }

    size_t shard_index(uintptr_t line_addr) const
    {
        return (line_addr / kCacheLineBytes) % kShards;
    }

    Shard& shard_for(uintptr_t line_addr)
    {
        return shards_[shard_index(line_addr)];
    }

    /** rr sync-object key of a shard (record/replay instrumentation). */
    static uint64_t shard_key(size_t idx)
    {
        return fuzz::obj_key(fuzz::ObjKind::kShadowShard, idx);
    }

    /** Copy a shadow line's content into the persistent image. */
    void write_back(uintptr_t line_addr, const ShadowLine& line);

    static uint32_t self_tid();

    /** Deterministic crash-time lottery for CrashPolicy::kRandom: a
     *  pure hash of (seed, crash round, line offset) -- independent of
     *  map iteration order, mmap placement, and prior draws, so the
     *  same set of lines survives on every replay of a recording. */
    bool line_survives_lottery(uintptr_t line_addr) const;

    void dump_census(const CrashCensus& census) const;

    uintptr_t base_;
    size_t size_;
    std::array<Shard, kShards> shards_;
    mutable std::mutex crash_mutex_;
    uint64_t crash_seed_;
    uint64_t crash_round_ = 0;
    CrashCensus last_census_;
};

} // namespace ido::nvm
