#include "nvm/persist_domain.h"

#include <cstring>

#if defined(__x86_64__)
#include <emmintrin.h>
#include <immintrin.h>
#endif

#include "common/cacheline.h"
#include "common/spin_delay.h"
#include "stats/persist_stats.h"
#include "trace/trace.h"

namespace ido::nvm {

void
flush_line_hw(const void* addr)
{
#if defined(__x86_64__)
    // clflushopt would be preferable (no implied ordering) but clflush is
    // universally available; the paper itself measured with clflush.
    _mm_clflush(addr);
#else
    (void)addr;
    asm volatile("" ::: "memory");
#endif
}

void
sfence_hw()
{
#if defined(__x86_64__)
    _mm_sfence();
#else
    __atomic_thread_fence(__ATOMIC_RELEASE);
#endif
}

RealDomain::RealDomain(uint32_t extra_flush_delay_ns)
    : flush_delay_ns_(extra_flush_delay_ns)
{
}

void
RealDomain::store(void* dst, const void* src, size_t n)
{
    std::memcpy(dst, src, n);
    auto& c = tls_persist_counters();
    c.stores += 1;
    c.store_bytes += n;
}

void
RealDomain::load(const void* src, void* dst, size_t n)
{
    std::memcpy(dst, src, n);
}

void
RealDomain::flush(const void* addr, size_t n)
{
    if (n == 0)
        return;
    const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
    const uintptr_t first = line_base(a);
    const uintptr_t last = line_base(a + n - 1);
    size_t count = 0;
    for (uintptr_t line = first; line <= last; line += kCacheLineBytes) {
        flush_line_hw(reinterpret_cast<const void*>(line));
        if (flush_delay_ns_ != 0)
            spin_delay_ns(flush_delay_ns_);
        ++count;
    }
    tls_persist_counters().flushes += count;
    trace::emit(trace::EventKind::kFlush,
                reinterpret_cast<uint64_t>(addr), count);
}

void
RealDomain::fence()
{
    sfence_hw();
    tls_persist_counters().fences += 1;
    trace::emit(trace::EventKind::kFence);
}

} // namespace ido::nvm
