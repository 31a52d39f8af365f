/**
 * @file
 * Log2-bucketed histogram: the registry's one histogram type.
 *
 * Covers [0, ~73 min] in nanoseconds with bounded relative error:
 * values below 16 get exact bins; above that, each power-of-two octave
 * is split into 16 linear sub-buckets, so any reported quantile is
 * within 1/16 (6.25%) of the true value.  The first such octave,
 * [16, 32), has width-1 buckets, so every value below 32 is counted
 * exactly -- which is what lets Fig. 8's small integer samples (stores
 * and live-in registers per region) share the type with request
 * latencies.  The bin array is fixed-size (no allocation on record),
 * which is what makes the lock-free recorder below possible.
 *
 * Two layers:
 *  - LatencyHistogram: a plain mergeable value type (record / merge /
 *    percentile / mean).  Not thread-safe; this is the snapshot
 *    currency the stats plane and the bench JSON rows pass around.
 *  - LatencyRecorder: the live, shared instrument.  Each recording
 *    thread owns a private shard of relaxed atomics (registered once,
 *    under a mutex, on its first record), so the hot path is a handful
 *    of single-writer atomic stores with no RMW contention and no
 *    locks; snapshot() merges every shard from any thread at any time.
 *    Shards outlive their threads (the recorder owns them), so samples
 *    from exited workers stay visible -- same policy as the trace
 *    rings.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

namespace ido {

class LatencyHistogram
{
  public:
    static constexpr uint32_t kSubBits = 4;
    static constexpr uint32_t kSub = 1u << kSubBits; ///< buckets/octave
    static constexpr uint32_t kMaxExp = 42; ///< clamp ~73 minutes (ns)
    static constexpr uint32_t kNumBuckets =
        kSub + (kMaxExp - kSubBits) * kSub;
    /** Largest representable sample; larger values are clamped. */
    static constexpr uint64_t kClamp = (1ull << kMaxExp) - 1;

    /** Bucket index for value v (v clamped to kClamp). */
    static uint32_t bucket_index(uint64_t v);

    /** Smallest value mapping to bucket i. */
    static uint64_t bucket_min(uint32_t i);

    /** Largest value mapping to bucket i. */
    static uint64_t bucket_max(uint32_t i);

    void record(uint64_t v, uint64_t count = 1);

    void merge(const LatencyHistogram& other);

    uint64_t total() const { return total_; }

    /** Exact arithmetic mean of recorded samples; 0 if empty. */
    double mean() const;

    /** Exact smallest / largest recorded sample; 0 if empty. */
    uint64_t min_value() const { return total_ ? min_ : 0; }
    uint64_t max_value() const { return total_ ? max_ : 0; }

    /**
     * Value v such that a fraction >= q of samples is <= v, up to
     * bucket resolution (the selected bucket's upper bound).  q is
     * clamped into [0, 1]; q == 0 returns the exact minimum and
     * q == 1 the exact maximum.  0 if empty.
     */
    uint64_t percentile(double q) const;

    /**
     * Fraction of samples in v's bucket or below, in [0, 1]; 0 if
     * empty.  Exactly the fraction of samples <= v for v < 32.
     */
    double cdf(uint64_t v) const;

    uint64_t count_in_bucket(uint32_t i) const { return counts_[i]; }

    void clear();

  private:
    friend class LatencyRecorder;

    std::array<uint64_t, kNumBuckets> counts_{};
    uint64_t total_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = UINT64_MAX;
    uint64_t max_ = 0;
};

class LatencyRecorder
{
  public:
    LatencyRecorder();
    ~LatencyRecorder() = default;

    LatencyRecorder(const LatencyRecorder&) = delete;
    LatencyRecorder& operator=(const LatencyRecorder&) = delete;

    /**
     * Record one sample (wait-free after the calling thread's first
     * record, which registers its shard under a mutex).
     */
    void record(uint64_t v);

    /** Merge every thread's shard into one value-type histogram. */
    LatencyHistogram snapshot() const;

    /**
     * Zero every shard.  Safe against concurrent recorders in the
     * torn-count sense only (a sample landing mid-reset may survive);
     * benches call this between quiescent configurations.
     */
    void reset();

  private:
    struct Shard
    {
        std::array<std::atomic<uint64_t>, LatencyHistogram::kNumBuckets>
            counts{};
        std::atomic<uint64_t> total{0};
        std::atomic<uint64_t> sum{0};
        std::atomic<uint64_t> min{UINT64_MAX};
        std::atomic<uint64_t> max{0};
    };

    Shard* shard_for_thread();

    const uint64_t id_; ///< process-unique; indexes the TLS shard table
    mutable std::mutex mu_; ///< shard registration only (cold)
    std::deque<std::unique_ptr<Shard>> shards_;
};

} // namespace ido
