/**
 * @file
 * Persistence-domain abstraction: how stores reach "NVM".
 *
 * The paper's testbed places persistent data in DRAM and models the cost
 * of persistence with cache-line write-back + sfence sequences (Sec. V);
 * the Fig. 9 study adds a configurable delay per write-back.  All
 * runtimes in this repo issue their persistent-memory traffic through
 * this interface, so the same FASE code can run in two modes:
 *
 *  - RealDomain: stores go directly to the mapped heap, each aligned
 *    word as one relaxed atomic (load_words/store_words); flush/fence
 *    execute real write-back (clwb, else clflushopt, else clflush) and
 *    sfence instructions (plus optional emulated NVM latency) and are
 *    counted.  Used for performance runs.
 *
 *  - ShadowDomain (shadow_domain.h): stores land in a volatile per-line
 *    shadow; only flushed+fenced lines are guaranteed to reach the
 *    persistent image, and a simulated crash drops (or adversarially
 *    evicts) the rest.  Used for crash-consistency testing.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace ido::nvm {

/** Interface for all persistent-memory traffic. */
class PersistDomain
{
  public:
    virtual ~PersistDomain() = default;

    /** Store n bytes from src to persistent address dst. */
    virtual void store(void* dst, const void* src, size_t n) = 0;

    /** Load n bytes from persistent address src into dst. */
    virtual void load(const void* src, void* dst, size_t n) = 0;

    /**
     * Initiate write-back (flush_line_hw) of every cache line spanned
     * by [addr, addr+n).  Write-backs are unordered with each other
     * and with later stores; persistence is guaranteed only after
     * fence().
     */
    virtual void flush(const void* addr, size_t n) = 0;

    /** Persist fence (sfence): previously flushed lines are durable. */
    virtual void fence() = 0;

    /** True for the crash-simulation shadow domain. */
    virtual bool is_shadow() const { return false; }

    // --- retired elision audit hooks -----------------------------------
    //
    // Nothing in src/ calls these: the region boundary's line dedup
    // needs no proof, so there is no covered store to audit.  They stay
    // as no-ops only because the repo benchmark's TimingDomain
    // (repobench/bench.h) still overrides them, and an `override` of a
    // deleted virtual does not compile.  Delete both once a
    // benchmark-only change drops those overrides.

    virtual void note_covered_store(const void* addr, size_t n)
    {
        (void)addr;
        (void)n;
    }

    virtual void audit_covered_boundary() {}

    // --- typed convenience wrappers -----------------------------------

    template <typename T>
    void
    store_val(T* dst, const T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        store(dst, &v, sizeof(T));
    }

    template <typename T>
    T
    load_val(const T* src)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        load(src, &v, sizeof(T));
        return v;
    }

    /** store + flush + fence: a fully ordered durable store. */
    template <typename T>
    void
    durable_store(T* dst, const T& v)
    {
        store_val(dst, v);
        flush(dst, sizeof(T));
        fence();
    }
};

/**
 * Copy n bytes out of persistent memory at src, reading every aligned
 * word with a relaxed atomic load (the same mov on x86).  Threads
 * store words of the heap while others read them -- a validated
 * reader (RuntimeThread::read_validated) racing a writer, LockTable
 * CASing a holder slot, NVThreads copying a page -- so a copy never
 * tears a word and is no data race.
 */
void load_words(void* dst, const void* src, size_t n);

/** Store counterpart of load_words: every aligned word of
 *  [dst, dst + n) is written with a relaxed atomic store. */
void store_words(void* dst, const void* src, size_t n);

/**
 * Direct-to-memory domain with real flush instructions and optional
 * emulated NVM write latency (the Fig. 9 knob).  Registers the
 * `nvm.flush_insn` gauge (the FlushInsn value flush_line_hw issues).
 */
class RealDomain final : public PersistDomain
{
  public:
    /**
     * @param extra_flush_delay_ns  emulated latency of one cache-line
     *        write-back, emulating slow NVM writes or a long data path
     *        (0 = the paper's default ADR-style assumption).  It is
     *        charged where the thread waits for its write-backs: each
     *        fence() busy-waits this long per line the thread flushed
     *        since its previous fence, after the sfence and a full
     *        fence, so it cannot overlap the write-backs themselves.
     */
    explicit RealDomain(uint32_t extra_flush_delay_ns = 0);

    void store(void* dst, const void* src, size_t n) override;
    void load(const void* src, void* dst, size_t n) override;
    void flush(const void* addr, size_t n) override;
    void fence() override;

    void set_flush_delay_ns(uint32_t ns) { flush_delay_ns_ = ns; }
    uint32_t flush_delay_ns() const { return flush_delay_ns_; }

  private:
    uint32_t flush_delay_ns_;
};

/**
 * Cache-line write-back instruction.  The values are the
 * `nvm.flush_insn` gauge; 0 is the universally available fallback.
 */
enum class FlushInsn : uint8_t
{
    kClflush = 0,    ///< ordered, evicts the line
    kClflushopt = 1, ///< unordered (sfence orders it), evicts the line
    kClwb = 2,       ///< unordered (sfence orders it), line stays cached
};

/** CPUID.(EAX=7,ECX=0):EBX feature bits the selection reads. */
inline constexpr uint32_t kCpuidClflushopt = 1u << 23;
inline constexpr uint32_t kCpuidClwb = 1u << 24;

/**
 * The write-back instruction for a CPU whose CPUID leaf 7 EBX is
 * `leaf7_ebx`: clwb, else clflushopt, else clflush.
 */
constexpr FlushInsn
select_flush_insn(uint32_t leaf7_ebx)
{
    if (leaf7_ebx & kCpuidClwb)
        return FlushInsn::kClwb;
    if (leaf7_ebx & kCpuidClflushopt)
        return FlushInsn::kClflushopt;
    return FlushInsn::kClflush;
}

/** CPUID leaf 7 EBX of this CPU (0 where there is no such leaf). */
uint32_t cpuid_leaf7_ebx();

/** The instruction flush_line_hw issues, chosen once per process. */
FlushInsn flush_insn();

/** "clflush", "clflushopt" or "clwb" ("?" for an unknown value). */
const char* flush_insn_name(FlushInsn insn);

/** Write back the line containing addr with flush_insn(). */
void flush_line_hw(const void* addr);

/** Write back the line containing addr with `insn`, which the CPU
 *  must support (tests exercise each instruction directly). */
void flush_line_with(FlushInsn insn, const void* addr);

/** Issue an sfence (compiler+store barrier on non-x86). */
void sfence_hw();

} // namespace ido::nvm
