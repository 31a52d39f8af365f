#include "common/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <vector>

namespace ido {

uint32_t
LatencyHistogram::bucket_index(uint64_t v)
{
    v = std::min(v, kClamp);
    if (v < kSub)
        return static_cast<uint32_t>(v);
    const uint32_t exp = 63 - static_cast<uint32_t>(std::countl_zero(v));
    // Top kSubBits bits below the leading one select the sub-bucket.
    const uint64_t sub = (v >> (exp - kSubBits)) - kSub;
    return kSub + (exp - kSubBits) * kSub + static_cast<uint32_t>(sub);
}

uint64_t
LatencyHistogram::bucket_min(uint32_t i)
{
    if (i < kSub)
        return i;
    const uint32_t j = i - kSub;
    const uint32_t exp = kSubBits + j / kSub;
    const uint64_t sub = j % kSub;
    return (1ull << exp) + (sub << (exp - kSubBits));
}

uint64_t
LatencyHistogram::bucket_max(uint32_t i)
{
    if (i + 1 >= kNumBuckets)
        return kClamp;
    return bucket_min(i + 1) - 1;
}

void
LatencyHistogram::record(uint64_t v, uint64_t count)
{
    if (count == 0)
        return;
    v = std::min(v, kClamp);
    counts_[bucket_index(v)] += count;
    total_ += count;
    sum_ += v * count;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

void
LatencyHistogram::merge(const LatencyHistogram& other)
{
    for (uint32_t i = 0; i < kNumBuckets; ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
LatencyHistogram::mean() const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(total_);
}

uint64_t
LatencyHistogram::percentile(double q) const
{
    if (total_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    if (q <= 0.0)
        return min_value();
    if (q >= 1.0)
        return max_value();
    const double target = q * static_cast<double>(total_);
    uint64_t acc = 0;
    for (uint32_t i = 0; i < kNumBuckets; ++i) {
        acc += counts_[i];
        if (acc != 0 && static_cast<double>(acc) >= target)
            return std::min(bucket_max(i), max_value());
    }
    return max_value();
}

double
LatencyHistogram::cdf(uint64_t v) const
{
    if (total_ == 0)
        return 0.0;
    const uint32_t last = bucket_index(v);
    uint64_t acc = 0;
    for (uint32_t i = 0; i <= last; ++i)
        acc += counts_[i];
    return static_cast<double>(acc) / static_cast<double>(total_);
}

void
LatencyHistogram::clear()
{
    counts_.fill(0);
    total_ = 0;
    sum_ = 0;
    min_ = UINT64_MAX;
    max_ = 0;
}

// --- LatencyRecorder ----------------------------------------------------

namespace {

std::atomic<uint64_t> g_next_recorder_id{0};

/**
 * Per-thread shard table, indexed by recorder id.  Entries are owned
 * by their recorder (which outlives them in every current use: the
 * MetricsRegistry never destroys a recorder); a thread only caches the
 * raw pointer.
 */
thread_local std::vector<LatencyRecorder*> t_ids; // parallel validity
thread_local std::vector<void*> t_shards;

} // namespace

LatencyRecorder::LatencyRecorder()
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed))
{
}

LatencyRecorder::Shard*
LatencyRecorder::shard_for_thread()
{
    if (id_ < t_shards.size() && t_ids[id_] == this)
        return static_cast<Shard*>(t_shards[id_]);
    // Cold path: first record from this thread (or a stale slot from a
    // destroyed recorder that was later reused at the same address --
    // the t_ids check above makes that case re-register, not corrupt).
    auto shard = std::make_unique<Shard>();
    Shard* raw = shard.get();
    {
        std::lock_guard<std::mutex> g(mu_);
        shards_.push_back(std::move(shard));
    }
    if (t_shards.size() <= id_) {
        t_shards.resize(id_ + 1, nullptr);
        t_ids.resize(id_ + 1, nullptr);
    }
    t_shards[id_] = raw;
    t_ids[id_] = const_cast<LatencyRecorder*>(this);
    return raw;
}

void
LatencyRecorder::record(uint64_t v)
{
    v = std::min(v, LatencyHistogram::kClamp);
    Shard* s = shard_for_thread();
    // Single-writer per shard: plain load+store relaxed atomics keep
    // the path wait-free and the concurrent snapshot() reader sound.
    const uint32_t b = LatencyHistogram::bucket_index(v);
    s->counts[b].store(s->counts[b].load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    s->total.store(s->total.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    s->sum.store(s->sum.load(std::memory_order_relaxed) + v,
                 std::memory_order_relaxed);
    if (v < s->min.load(std::memory_order_relaxed))
        s->min.store(v, std::memory_order_relaxed);
    if (v > s->max.load(std::memory_order_relaxed))
        s->max.store(v, std::memory_order_relaxed);
}

LatencyHistogram
LatencyRecorder::snapshot() const
{
    LatencyHistogram out;
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& s : shards_) {
        uint64_t shard_total = 0;
        for (uint32_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
            const uint64_t c =
                s->counts[i].load(std::memory_order_relaxed);
            out.counts_[i] += c;
            shard_total += c;
        }
        // Derive total from the bucket counts actually read so the
        // snapshot is internally consistent even while racing a
        // recording thread (sum/min/max stay approximate).
        out.total_ += shard_total;
        out.sum_ += s->sum.load(std::memory_order_relaxed);
        out.min_ = std::min(out.min_,
                            s->min.load(std::memory_order_relaxed));
        out.max_ = std::max(out.max_,
                            s->max.load(std::memory_order_relaxed));
    }
    // A snapshot racing a shard's very first record can see its bucket
    // count before its min/max stores; keep the result well formed.
    if (out.total_ > 0 && out.min_ == UINT64_MAX)
        out.min_ = 0;
    return out;
}

void
LatencyRecorder::reset()
{
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& s : shards_) {
        for (uint32_t i = 0; i < LatencyHistogram::kNumBuckets; ++i)
            s->counts[i].store(0, std::memory_order_relaxed);
        s->total.store(0, std::memory_order_relaxed);
        s->sum.store(0, std::memory_order_relaxed);
        s->min.store(UINT64_MAX, std::memory_order_relaxed);
        s->max.store(0, std::memory_order_relaxed);
    }
}

} // namespace ido
