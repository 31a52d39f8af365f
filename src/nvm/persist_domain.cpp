#include "nvm/persist_domain.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/cacheline.h"
#include "common/spin_delay.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"
#include "trace/trace.h"

namespace ido::nvm {

namespace {

// Chosen once, before main.  A flush_line_hw from another translation
// unit's static initializer that runs earlier reads the zero value,
// clflush, which every x86-64 CPU has.
const FlushInsn g_flush_insn = select_flush_insn(cpuid_leaf7_ebx());

// Lines this thread wrote back since its previous fence; the Fig. 9
// delay is charged for them at the fence.
thread_local uint64_t t_unfenced_lines = 0;

#if defined(__x86_64__)
// Per-function ISA targets: the build needs no -mclwb / -mclflushopt,
// and these run only on a CPU whose CPUID advertises them.
__attribute__((target("clwb"))) void
clwb_line(const void* addr)
{
    _mm_clwb(const_cast<void*>(addr));
}

__attribute__((target("clflushopt"))) void
clflushopt_line(const void* addr)
{
    _mm_clflushopt(const_cast<void*>(addr));
}
#endif

} // namespace

uint32_t
cpuid_leaf7_ebx()
{
#if defined(__x86_64__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0)
        return 0;
    return ebx;
#else
    return 0;
#endif
}

FlushInsn
flush_insn()
{
    return g_flush_insn;
}

const char*
flush_insn_name(FlushInsn insn)
{
    switch (insn) {
    case FlushInsn::kClflush:
        return "clflush";
    case FlushInsn::kClflushopt:
        return "clflushopt";
    case FlushInsn::kClwb:
        return "clwb";
    }
    return "?";
}

void
flush_line_with(FlushInsn insn, const void* addr)
{
#if defined(__x86_64__)
    switch (insn) {
    case FlushInsn::kClwb:
        clwb_line(addr);
        return;
    case FlushInsn::kClflushopt:
        clflushopt_line(addr);
        return;
    case FlushInsn::kClflush:
        break;
    }
    _mm_clflush(addr);
#else
    (void)insn;
    (void)addr;
    asm volatile("" ::: "memory");
#endif
}

void
flush_line_hw(const void* addr)
{
    flush_line_with(g_flush_insn, addr);
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
    MetricsRegistry::instance().register_gauge("nvm.flush_insn", [] {
        return static_cast<uint64_t>(flush_insn());
    });
}

namespace {

/** The word at a, for an 8-aligned address. */
std::atomic_ref<uint64_t>
word_at(uintptr_t a)
{
    return std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(a));
}

} // namespace

void
load_words(void* dst, const void* src, size_t n)
{
    auto* d = static_cast<uint8_t*>(dst);
    auto a = reinterpret_cast<uintptr_t>(src);
    const uintptr_t end = a + n;
    // Unaligned head and tail bytes are plain copies; the one-word
    // case (every GET load) takes no library call.
    const size_t head = std::min<size_t>(n, (8 - (a & 7)) & 7);
    if (head != 0) {
        std::memcpy(d, reinterpret_cast<const void*>(a), head);
        d += head;
        a += head;
    }
    for (; a + 8 <= end; a += 8, d += 8) {
        const uint64_t w = word_at(a).load(std::memory_order_relaxed);
        std::memcpy(d, &w, 8);
    }
    if (a != end)
        std::memcpy(d, reinterpret_cast<const void*>(a), end - a);
}

void
store_words(void* dst, const void* src, size_t n)
{
    auto a = reinterpret_cast<uintptr_t>(dst);
    const auto* s = static_cast<const uint8_t*>(src);
    const uintptr_t end = a + n;
    const size_t head = std::min<size_t>(n, (8 - (a & 7)) & 7);
    if (head != 0) {
        std::memcpy(reinterpret_cast<void*>(a), s, head);
        s += head;
        a += head;
    }
    for (; a + 8 <= end; a += 8, s += 8) {
        uint64_t w;
        std::memcpy(&w, s, 8);
        word_at(a).store(w, std::memory_order_relaxed);
    }
    if (a != end)
        std::memcpy(reinterpret_cast<void*>(a), s, end - a);
}

void
RealDomain::store(void* dst, const void* src, size_t n)
{
    store_words(dst, src, n);
    auto& c = tls_persist_counters();
    c.stores += 1;
    c.store_bytes += n;
}

void
RealDomain::load(const void* src, void* dst, size_t n)
{
    load_words(dst, src, n);
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
        ++count;
    }
    t_unfenced_lines += count;
    tls_persist_counters().flushes += count;
    trace::emit(trace::EventKind::kFlush,
                reinterpret_cast<uint64_t>(addr), count);
}

void
RealDomain::fence()
{
    sfence_hw();
    const uint64_t lines = std::exchange(t_unfenced_lines, 0);
    if (flush_delay_ns_ != 0 && lines != 0) {
        // sfence orders the write-backs but lets later instructions,
        // the spin's clock reads included, run while they drain; a
        // full fence first keeps the emulated latency from overlapping
        // the real one.
#if defined(__x86_64__)
        _mm_mfence();
#else
        __atomic_thread_fence(__ATOMIC_SEQ_CST);
#endif
        spin_delay_ns(lines * flush_delay_ns_);
    }
    tls_persist_counters().fences += 1;
    trace::emit(trace::EventKind::kFence);
}

} // namespace ido::nvm
