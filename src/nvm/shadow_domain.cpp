#include "nvm/shadow_domain.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include <unistd.h>

#include "common/panic.h"
#include "stats/persist_stats.h"
#include "trace/trace.h"

namespace ido::nvm {

ShadowDomain::ShadowDomain(void* base, size_t size, uint64_t seed)
    : base_(reinterpret_cast<uintptr_t>(base)), size_(size), crash_seed_(seed)
{
}

uint32_t
ShadowDomain::self_tid()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

void
ShadowDomain::store(void* dst, const void* src, size_t n)
{
    const uintptr_t a = reinterpret_cast<uintptr_t>(dst);
    auto& c = tls_persist_counters();
    c.stores += 1;
    c.store_bytes += n;
    if (!in_range(a, n)) {
        std::memcpy(dst, src, n);
        return;
    }
    size_t done = 0;
    while (done < n) {
        const uintptr_t cur = a + done;
        const uintptr_t lb = line_base(cur);
        const size_t off_in_line = cur - lb;
        const size_t chunk =
            std::min(n - done, kCacheLineBytes - off_in_line);
        const size_t si = shard_index(lb);
        Shard& sh = shards_[si];
        fuzz::rr::OrderedGuard g(sh.mutex, shard_key(si));
        auto it = sh.lines.find(lb);
        if (it == sh.lines.end()) {
            ShadowLine line;
            load_words(line.data.data(), reinterpret_cast<const void*>(lb),
                       kCacheLineBytes);
            line.state = LineState::kDirty;
            line.owner_tid = self_tid();
            it = sh.lines.emplace(lb, line).first;
        } else if (it->second.state == LineState::kPending) {
            // A write-back was requested but not yet fenced; the new
            // store re-dirties the line.  The in-flight write-back
            // must be treated as having completed with the pre-store
            // content: on real hardware the flusher's clwb+sfence
            // guarantees at least that content becomes durable, and a
            // completed-early write-back is always a legal outcome.
            // (This used to be resolved with a per-line coin flip; the
            // "never completed" half silently voided another thread's
            // already-issued flush -- the root cause of the rare nvml
            // crash-consistency flake and the v1 allocator's spurious
            // double-free panic.)
            write_back(lb, it->second);
            it->second.state = LineState::kDirty;
            it->second.owner_tid = self_tid();
        }
        std::memcpy(it->second.data.data() + off_in_line,
                    static_cast<const uint8_t*>(src) + done, chunk);
        done += chunk;
    }
}

void
ShadowDomain::load(const void* src, void* dst, size_t n)
{
    const uintptr_t a = reinterpret_cast<uintptr_t>(src);
    if (!in_range(a, n)) {
        std::memcpy(dst, src, n);
        return;
    }
    size_t done = 0;
    while (done < n) {
        const uintptr_t cur = a + done;
        const uintptr_t lb = line_base(cur);
        const size_t off_in_line = cur - lb;
        const size_t chunk =
            std::min(n - done, kCacheLineBytes - off_in_line);
        const size_t si = shard_index(lb);
        Shard& sh = shards_[si];
        fuzz::rr::OrderedGuard g(sh.mutex, shard_key(si));
        auto it = sh.lines.find(lb);
        if (it != sh.lines.end()) {
            std::memcpy(static_cast<uint8_t*>(dst) + done,
                        it->second.data.data() + off_in_line, chunk);
        } else {
            load_words(static_cast<uint8_t*>(dst) + done,
                       reinterpret_cast<const void*>(cur), chunk);
        }
        done += chunk;
    }
}

void
ShadowDomain::flush(const void* addr, size_t n)
{
    if (n == 0)
        return;
    const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    const uintptr_t first = line_base(a);
    const uintptr_t last = line_base(a + n - 1);
    trace::emit(trace::EventKind::kFlush, a,
                (last - first) / kCacheLineBytes + 1);
    auto& c = tls_persist_counters();
    for (uintptr_t lb = first; lb <= last; lb += kCacheLineBytes) {
        c.flushes += 1;
        if (!in_range(lb, 1))
            continue;
        const size_t si = shard_index(lb);
        Shard& sh = shards_[si];
        fuzz::rr::OrderedGuard g(sh.mutex, shard_key(si));
        auto it = sh.lines.find(lb);
        if (it != sh.lines.end()) {
            // If another thread already has a write-back in flight for
            // this line, both threads' fences must now cover it (both
            // issued a clwb of identical content).  Ownership is a
            // single tid, so complete the first request immediately --
            // a legal outcome -- before this thread takes it over.
            if (it->second.state == LineState::kPending
                && it->second.owner_tid != self_tid())
                write_back(lb, it->second);
            it->second.state = LineState::kPending;
            it->second.owner_tid = self_tid();
        }
    }
}

void
ShadowDomain::fence()
{
    trace::emit(trace::EventKind::kFence);
    tls_persist_counters().fences += 1;
    const uint32_t tid = self_tid();
    for (size_t si = 0; si < kShards; ++si) {
        Shard& sh = shards_[si];
        fuzz::rr::OrderedGuard g(sh.mutex, shard_key(si));
        for (auto it = sh.lines.begin(); it != sh.lines.end();) {
            if (it->second.state == LineState::kPending
                && it->second.owner_tid == tid) {
                write_back(it->first, it->second);
                it = sh.lines.erase(it);
            } else {
                ++it;
            }
        }
    }
}

void
ShadowDomain::write_back(uintptr_t line_addr, const ShadowLine& line)
{
    std::memcpy(reinterpret_cast<void*>(line_addr), line.data.data(),
                kCacheLineBytes);
}

bool
ShadowDomain::line_survives_lottery(uintptr_t line_addr) const
{
    uint64_t h = crash_seed_;
    h ^= 0x9e3779b97f4a7c15ull * (crash_round_ + 1);
    h ^= line_addr - base_; // offset: stable across mmap placements
    return (splitmix64(h) & 1) != 0;
}

void
ShadowDomain::crash(CrashPolicy policy)
{
    std::lock_guard<std::mutex> cg(crash_mutex_);
    CrashCensus census;
    census.crash_round = crash_round_ + 1; // 1-based: nth crash()
    std::map<uint32_t, CrashCensus::ThreadLoss> losses;
    for (Shard& sh : shards_) {
        std::lock_guard<std::mutex> g(sh.mutex);
        for (auto& [addr, line] : sh.lines) {
            census.lines_outstanding += 1;
            bool survives = false;
            switch (policy) {
              case CrashPolicy::kDropAll:
                survives = false;
                break;
              case CrashPolicy::kPersistAll:
                survives = true;
                break;
              case CrashPolicy::kRandom:
                survives = line_survives_lottery(addr);
                break;
            }
            if (survives) {
                write_back(addr, line);
                census.lines_survived += 1;
            } else {
                census.lines_lost += 1;
                CrashCensus::ThreadLoss& tl = losses[line.owner_tid];
                tl.owner_tid = line.owner_tid;
                if (line.state == LineState::kDirty)
                    tl.dirty_lost += 1;
                else
                    tl.pending_lost += 1;
                if (tl.first_addrs.size() < 4)
                    tl.first_addrs.push_back(addr);
            }
        }
        sh.lines.clear();
    }
    for (auto& [tid, tl] : losses) {
        std::sort(tl.first_addrs.begin(), tl.first_addrs.end());
        census.threads.push_back(std::move(tl));
    }
    crash_round_ += 1;
    dump_census(census);
    last_census_ = std::move(census);
}

void
ShadowDomain::dump_census(const CrashCensus& census) const
{
    const char* dir = std::getenv("IDO_TRACE_DIR");
    if (dir == nullptr || *dir == '\0')
        return;
    // One file per process, overwritten per crash: a dying death test
    // leaves the census of its final (fatal) crash for the harness to
    // collect alongside the ring-tracer dump.
    const std::string path = std::string(dir) + "/shadow_crash_census."
                             + std::to_string(getpid()) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return;
    std::fprintf(f,
                 "{\n  \"crash_round\": %llu,\n"
                 "  \"lines_outstanding\": %zu,\n"
                 "  \"lines_survived\": %zu,\n"
                 "  \"lines_lost\": %zu,\n  \"threads\": [",
                 static_cast<unsigned long long>(census.crash_round),
                 census.lines_outstanding, census.lines_survived,
                 census.lines_lost);
    for (size_t i = 0; i < census.threads.size(); ++i) {
        const CrashCensus::ThreadLoss& tl = census.threads[i];
        std::fprintf(f,
                     "%s\n    {\"owner_tid\": %u, \"dirty_lost\": %zu, "
                     "\"pending_lost\": %zu, \"first_lost_lines\": [",
                     i > 0 ? "," : "", tl.owner_tid, tl.dirty_lost,
                     tl.pending_lost);
        for (size_t j = 0; j < tl.first_addrs.size(); ++j) {
            std::fprintf(f, "%s\"%#llx (base+%#llx)\"", j > 0 ? ", " : "",
                         static_cast<unsigned long long>(tl.first_addrs[j]),
                         static_cast<unsigned long long>(tl.first_addrs[j]
                                                         - base_));
        }
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "%s]\n}\n", census.threads.empty() ? "" : "\n  ");
    std::fclose(f);
}

CrashCensus
ShadowDomain::last_crash_census() const
{
    std::lock_guard<std::mutex> cg(crash_mutex_);
    return last_census_;
}

void
ShadowDomain::drain_all()
{
    for (Shard& sh : shards_) {
        std::lock_guard<std::mutex> g(sh.mutex);
        for (auto& [addr, line] : sh.lines)
            write_back(addr, line);
        sh.lines.clear();
    }
}

size_t
ShadowDomain::outstanding_lines() const
{
    size_t n = 0;
    for (const Shard& sh : shards_) {
        std::lock_guard<std::mutex> g(sh.mutex);
        n += sh.lines.size();
    }
    return n;
}

} // namespace ido::nvm
