#include "common/spin_delay.h"

#include <chrono>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ido {

void
spin_delay_ns(uint64_t ns)
{
    if (ns == 0)
        return;
    using clock = std::chrono::steady_clock;
    const auto deadline = clock::now() + std::chrono::nanoseconds(ns);
    while (clock::now() < deadline) {
#if defined(__x86_64__)
        _mm_pause();
#else
        asm volatile("" ::: "memory");
#endif
    }
}

} // namespace ido
