/**
 * @file
 * Shared scaffolding of the repo benchmark: the result report, latency
 * sampling, phase control for closed-loop load threads, process and
 * thread resource readers, and the traced-run instruments (a timing
 * PersistDomain decorator and in-memory spans).
 *
 * Every number here is measured from outside the library: spans wrap
 * calls into public functions, and counters are read from what the
 * program already exports (MetricsRegistry, persist counters,
 * /proc/self/io, getrusage).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "nvm/persist_domain.h"
#include "runtime/runtime.h"

namespace repobench {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = "."; ///< where the traced run writes its spans
};

/** What one run prints: correctness totals plus named metrics. */
struct Report
{
    uint64_t attempted = 0; ///< ops whose result the oracle checked
    uint64_t failed = 0;    ///< wrong-valued or failed ops
    std::vector<std::string> problems; ///< other correctness failures

    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;

    void add(const std::string& name, double value, const std::string& unit);
    void problem(const std::string& what);
    /** Tally one oracle check. */
    void
    check(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
    std::string to_json() const;
};

// ---- clocks and process resources --------------------------------------

uint64_t now_ns();
uint64_t thread_cpu_ns();                 ///< calling thread
uint64_t thread_cpu_ns(std::thread& t);   ///< another live thread
uint64_t process_cpu_ns();
double peak_rss_mb();
uint64_t thread_ctx_switches();           ///< calling thread
uint64_t process_ctx_switches();

/** read-class and write-class syscalls of the process (/proc/self/io). */
struct SyscallCounts
{
    uint64_t reads = 0;
    uint64_t writes = 0;
};
SyscallCounts process_syscalls();

/**
 * Pin the calling thread to one half of the CPUs the process may use:
 * the load generator on the first half, the system under test (and the
 * threads it spawns, which inherit the mask) on the second.  No-op with
 * fewer than four CPUs.
 */
enum class CpuHalf { kLoad, kSystem };
void pin_to(CpuHalf half);

/**
 * One SCHED_IDLE busy thread per CPU while alive.  Under a hypervisor a
 * halted vCPU wakes only when the host schedules it, so every cross-CPU
 * wakeup (eventfd, condvar, socket) paid a host-dependent delay and the
 * wire workloads swung by 2x between runs; a vCPU running an idle-class
 * spinner takes the wakeup at once, and any real thread preempts it.
 */
class IdleSpinners
{
  public:
    IdleSpinners();
    ~IdleSpinners();
    IdleSpinners(const IdleSpinners&) = delete;
    IdleSpinners& operator=(const IdleSpinners&) = delete;

    /** CPU time the spinners used so far (to subtract from process CPU). */
    uint64_t cpu_ns();

  private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

void sleep_until_ns(uint64_t deadline_ns);
double median(std::vector<double> v);

// ---- latency sampling ---------------------------------------------------

/**
 * Bounded-memory latency sampler: keeps every stride-th sample and
 * doubles the stride (dropping every other kept sample) when full, so
 * the kept set stays a uniform grid over the whole window.
 */
class LatSampler
{
  public:
    void add(uint64_t ns);
    uint64_t seen() const { return seen_; }

    /** Weighted quantile (q in [0,1]) over several samplers, in us. */
    static double quantile_us(const std::vector<const LatSampler*>& s,
                              double q);
    static uint64_t total_seen(const std::vector<const LatSampler*>& s);

  private:
    static constexpr size_t kCap = 1u << 13;
    std::vector<uint32_t> kept_;
    uint64_t stride_ = 1;
    uint64_t seen_ = 0;
};

// ---- phase control -------------------------------------------------------

/**
 * Phases of a closed-loop run (warmup, measured windows, stop).  The
 * main thread advances; each load thread polls current() between ops
 * and acknowledges a change, so a phase boundary is a point every
 * thread has crossed (which lets threads fold thread-local counters
 * there).
 */
class Phases
{
  public:
    explicit Phases(unsigned threads) : threads_(threads) {}

    unsigned current() const
    {
        return phase_.load(std::memory_order_acquire);
    }
    void ack() { acks_.fetch_add(1, std::memory_order_acq_rel); }

    /** Next phase; returns once every thread acknowledged it. */
    void advance();

  private:
    const unsigned threads_;
    std::atomic<unsigned> phase_{0};
    std::atomic<unsigned> acks_{0};
};

/** Per-thread counter on its own cache line. */
struct alignas(64) PaddedCount
{
    std::atomic<uint64_t> v{0};
};

/** Slices per measured window. */
constexpr int kSlices = 50;

/**
 * The measured window, cut into kSlices slices.  On a shared VM the
 * per-op cost swings by tens of percent from one second to the next, so
 * every end-to-end timing is a median over slices, which is far steadier
 * than one figure over the whole window.
 */
struct Window
{
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> slice_ns{1};

    /** Open the window now (main thread, before entering its phase). */
    void open(double seconds);
    int slice(uint64_t t_ns) const;

    /**
     * Sleep through the window, sampling a growing op count at every
     * slice end; returns the median per-slice rate (ops/s).
     */
    double rate(const std::vector<PaddedCount>& counts) const;
};

/** A thread's latency samples of one op type, per slice. */
class SliceLat
{
  public:
    SliceLat() : by_slice_(kSlices) {}

    void add(const Window& w, uint64_t t_begin_ns, uint64_t ns)
    {
        by_slice_[w.slice(t_begin_ns)].add(ns);
    }

    /** Median over slices of each slice's q-quantile, in us. */
    static double quantile_us(const std::vector<const SliceLat*>& s,
                              double q);
    static uint64_t total_seen(const std::vector<const SliceLat*>& s);

  private:
    std::vector<LatSampler> by_slice_;
};

// ---- traced run -----------------------------------------------------------

/** One span: a timed call from the benchmark into a layer. */
struct Span
{
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t id;     ///< unique per run
    uint64_t parent; ///< 0 = root
    uint64_t op;     ///< op id shared by the spans of one op
};

namespace trace {

/** Tracing switch (the traced window sets it). */
extern std::atomic<bool> g_on;

/** Give the calling thread its span buffer (before its first op). */
void prepare_thread();
/** Open a sampled op on the calling thread; children attach to it.
 *  Ops beyond the prepared buffer's capacity are not recorded. */
uint64_t begin_op(uint64_t op);
/** Close the op's root span. */
void end_op(const char* name, uint64_t start_ns);
/** Spans of every thread (call after load threads joined). */
std::vector<Span> collect();
/** Write the spans as JSON lines; false on I/O error. */
bool write(const std::vector<Span>& spans, const std::string& path);

/** Totals of the timing decorator across threads. */
struct NvmTime
{
    uint64_t flush_ns = 0;
    uint64_t fence_ns = 0;
};
NvmTime nvm_totals();

} // namespace trace

/**
 * PersistDomain decorator that times flush() and fence() while tracing
 * is on, and attaches them as child spans of the calling thread's
 * sampled op.  Everything else forwards untouched.
 */
class TimingDomain final : public ido::nvm::PersistDomain
{
  public:
    explicit TimingDomain(ido::nvm::PersistDomain& inner) : inner_(inner) {}

    void store(void* dst, const void* src, size_t n) override
    {
        inner_.store(dst, src, n);
    }
    void load(const void* src, void* dst, size_t n) override
    {
        inner_.load(src, dst, n);
    }
    void flush(const void* addr, size_t n) override;
    void fence() override;
    bool is_shadow() const override { return inner_.is_shadow(); }
    void note_covered_store(const void* addr, size_t n) override
    {
        inner_.note_covered_store(addr, n);
    }
    void audit_covered_boundary() override
    {
        inner_.audit_covered_boundary();
    }

  private:
    ido::nvm::PersistDomain& inner_;
};

// ---- program counters and recovery -------------------------------------

/**
 * Runtime configuration of every world.  Recovery runs the heap GC in
 * repair mode: a FASE's allocation may leak at a crash (runtime.h), and
 * every block the benchmark stores is reachable from the app root, so
 * repair reclaims exactly the leaks.
 */
ido::rt::RuntimeConfig runtime_config();

/** Exported counters the ledger reads (MetricsRegistry names, plus
 *  persist.fences / persist.flushes from the persist totals). */
struct Counters
{
    std::map<std::string, uint64_t> v;

    static Counters read();
    double since(const Counters& before, const std::string& name) const
    {
        return double(v.at(name) - before.v.at(name));
    }
};

/** Recovery times of a run, whole and by recovery-timeline phase. */
struct RecoveryLedger
{
    std::vector<double> wall_ms;
    std::map<std::string, std::vector<double>> phase_ms;
    double fases_resumed = 0;
    double leaked_blocks = 0;

    /** Time restart() and book the phases the timeline exported. */
    template <typename F>
    void
    time(F&& restart)
    {
        const Counters before = Counters::read();
        const uint64_t t0 = now_ns();
        restart();
        wall_ms.push_back(double(now_ns() - t0) / 1e6);
        book(before, Counters::read());
    }

    void book(const Counters& before, const Counters& after);
    /** ido.recovery.* medians (per-layer ledger). */
    void report(Report& rep) const;
};

/** What the layer metrics shared by every workload are computed from. */
struct LayerWindow
{
    Counters before, after; ///< around the traced window
    double ops = 1;         ///< ops or requests completed in it
    double system_cpu_ns = 1; ///< CPU of the threads running the library
    double fragmentation_ppm = 0;
    double untraced_rate = 0, traced_rate = 0; ///< ops/s of the halves
};

/** nvm.*, ido.elide.*, ido.group.*, net.batch_size_mean and trace
 *  rates: the per-layer metrics every workload derives the same way. */
void report_shared_layers(const LayerWindow& w, Report& rep);

/** The allocator's heap.fragmentation gauge, in ppm. */
double heap_fragmentation_ppm();

// ---- workloads ------------------------------------------------------------

void run_kv(const Args& args, Report& rep);
void run_serve(const Args& args, Report& rep);

} // namespace repobench
