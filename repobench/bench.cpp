#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include "stats/metrics.h"
#include "stats/persist_stats.h"

namespace repobench {

// ---- report ---------------------------------------------------------------

void
Report::add(const std::string& name, double value, const std::string& unit)
{
    if (!std::isfinite(value)) {
        problem("metric " + name + " is not a finite number");
        value = 0.0;
    }
    metrics.push_back({name, value, unit});
}

void
Report::problem(const std::string& what)
{
    std::fprintf(stderr, "repobench: FAIL: %s\n", what.c_str());
    problems.push_back(what);
}

std::string
Report::to_json() const
{
    const bool correct = failed == 0 && problems.empty();
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": "
               + buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

// ---- clocks and process resources --------------------------------------

namespace {

uint64_t
clock_ns(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}

uint64_t
ctx_switches(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return uint64_t(ru.ru_nvcsw) + uint64_t(ru.ru_nivcsw);
}

} // namespace

uint64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t thread_ctx_switches() { return ctx_switches(RUSAGE_THREAD); }
uint64_t process_ctx_switches() { return ctx_switches(RUSAGE_SELF); }

uint64_t
thread_cpu_ns(std::thread& t)
{
    clockid_t id;
    if (pthread_getcpuclockid(t.native_handle(), &id) != 0)
        return 0;
    return clock_ns(id);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

SyscallCounts
process_syscalls()
{
    SyscallCounts c;
    std::ifstream io("/proc/self/io");
    std::string key;
    uint64_t v = 0;
    while (io >> key >> v) {
        if (key == "syscr:")
            c.reads = v;
        else if (key == "syscw:")
            c.writes = v;
    }
    return c;
}

void
pin_to(CpuHalf half)
{
    cpu_set_t all;
    if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 4)
        return;
    const int n = CPU_COUNT(&all);
    cpu_set_t mine;
    CPU_ZERO(&mine);
    for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE && seen < n; ++cpu) {
        if (!CPU_ISSET(cpu, &all))
            continue;
        if ((seen < n / 2) == (half == CpuHalf::kLoad))
            CPU_SET(cpu, &mine);
        ++seen;
    }
    pthread_setaffinity_np(pthread_self(), sizeof mine, &mine);
}

IdleSpinners::IdleSpinners()
{
    cpu_set_t all;
    if (sched_getaffinity(0, sizeof all, &all) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &all))
            continue;
        threads_.emplace_back([this, cpu] {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            pthread_setaffinity_np(pthread_self(), sizeof one, &one);
            // Without the idle class a spinner would compete with the
            // system under test, so it does not run at all.
            sched_param sp{};
            if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp) != 0)
                return;
            while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                __builtin_ia32_pause();
#endif
            }
        });
    }
}

IdleSpinners::~IdleSpinners()
{
    stop_.store(true);
    for (auto& t : threads_)
        t.join();
}

uint64_t
IdleSpinners::cpu_ns()
{
    uint64_t n = 0;
    for (auto& t : threads_)
        n += thread_cpu_ns(t);
    return n;
}

void
sleep_until_ns(uint64_t deadline_ns)
{
    for (uint64_t t = now_ns(); t < deadline_ns; t = now_ns()) {
        const uint64_t d = deadline_ns - t;
        timespec ts{time_t(d / 1000000000ull), long(d % 1000000000ull)};
        nanosleep(&ts, nullptr);
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ---- latency sampling ---------------------------------------------------

void
LatSampler::add(uint64_t ns)
{
    if ((seen_++ & (stride_ - 1)) != 0)
        return;
    kept_.push_back(uint32_t(std::min<uint64_t>(ns, UINT32_MAX)));
    if (kept_.size() < kCap)
        return;
    // Keep the samples on the doubled grid (even positions).
    for (size_t i = 0; i < kept_.size() / 2; ++i)
        kept_[i] = kept_[2 * i];
    kept_.resize(kept_.size() / 2);
    stride_ *= 2;
}

uint64_t
LatSampler::total_seen(const std::vector<const LatSampler*>& s)
{
    uint64_t n = 0;
    for (const LatSampler* p : s)
        n += p->seen_;
    return n;
}

double
LatSampler::quantile_us(const std::vector<const LatSampler*>& s, double q)
{
    std::vector<std::pair<uint32_t, uint64_t>> w; // value, weight
    uint64_t total = 0;
    for (const LatSampler* p : s) {
        for (uint32_t v : p->kept_)
            w.emplace_back(v, p->stride_);
        total += p->kept_.size() * p->stride_;
    }
    if (w.empty())
        return 0.0;
    std::sort(w.begin(), w.end());
    const double target = q * double(total);
    uint64_t cum = 0;
    for (const auto& [v, weight] : w) {
        cum += weight;
        if (double(cum) >= target)
            return v / 1000.0;
    }
    return w.back().first / 1000.0;
}

// ---- phase control -------------------------------------------------------

void
Phases::advance()
{
    const unsigned next = phase_.fetch_add(1, std::memory_order_acq_rel) + 1;
    while (acks_.load(std::memory_order_acquire) < threads_ * next)
        std::this_thread::yield();
}

void
Window::open(double seconds)
{
    slice_ns.store(uint64_t(seconds * 1e9 / kSlices));
    start_ns.store(now_ns());
}

int
Window::slice(uint64_t t_ns) const
{
    const uint64_t s = start_ns.load(std::memory_order_relaxed);
    const uint64_t i =
        t_ns > s ? (t_ns - s) / slice_ns.load(std::memory_order_relaxed) : 0;
    return int(std::min<uint64_t>(i, kSlices - 1));
}

double
Window::rate(const std::vector<PaddedCount>& counts) const
{
    const auto sum = [&] {
        uint64_t s = 0;
        for (const PaddedCount& c : counts)
            s += c.v.load(std::memory_order_relaxed);
        return s;
    };
    const uint64_t t0 = start_ns.load(), step = slice_ns.load();
    uint64_t prev_t = now_ns(), prev_n = sum();
    std::vector<double> rates;
    for (int i = 1; i <= kSlices; ++i) {
        sleep_until_ns(t0 + uint64_t(i) * step);
        const uint64_t t = now_ns(), n = sum();
        rates.push_back(double(n - prev_n) * 1e9 / double(t - prev_t));
        prev_t = t;
        prev_n = n;
    }
    return median(rates);
}

double
SliceLat::quantile_us(const std::vector<const SliceLat*>& s, double q)
{
    std::vector<double> per_slice;
    for (int i = 0; i < kSlices; ++i) {
        std::vector<const LatSampler*> at;
        for (const SliceLat* p : s)
            if (p->by_slice_[i].seen() != 0)
                at.push_back(&p->by_slice_[i]);
        if (!at.empty())
            per_slice.push_back(LatSampler::quantile_us(at, q));
    }
    return median(per_slice);
}

uint64_t
SliceLat::total_seen(const std::vector<const SliceLat*>& s)
{
    uint64_t n = 0;
    for (const SliceLat* p : s)
        for (const LatSampler& l : p->by_slice_)
            n += l.seen();
    return n;
}

// ---- program counters and recovery -------------------------------------

namespace {

/** Recovery-timeline phases (recovery.phase.<name>_ns) and the ledger
 *  names they are reported under. */
const std::pair<const char*, const char*> kRecoveryPhases[] = {
    {"recovery.phase.leak-reclaim_ns", "ido.recovery.leak_reclaim_ms"},
    {"recovery.phase.scan-log-records_ns",
     "ido.recovery.scan_log_records_ms"},
    {"recovery.phase.resume-fases_ns", "ido.recovery.resume_fases_ms"},
    {"recovery.phase.heap-gc_ns", "ido.recovery.heap_gc_ms"},
};

} // namespace

ido::rt::RuntimeConfig
runtime_config()
{
    ido::rt::RuntimeConfig cfg;
    cfg.gc_repair_on_recovery = true;
    return cfg;
}

Counters
Counters::read()
{
    static const char* const kNames[] = {
        "nvheap.alloc", "nvheap.free", "nvheap.cache_hit", "nvheap.refill",
        "ido.elide.covered_stores", "ido.elide.boundary_lines_deduped",
        "ido.group.fences_elided", "ido.group.close_fences",
        "net.group.batches", "net.group.requests",
        "cluster.router.forwarded", "recovery.fases_resumed",
        "recovery.leaked_blocks", "recovery.phase.leak-reclaim_ns",
        "recovery.phase.scan-log-records_ns",
        "recovery.phase.resume-fases_ns", "recovery.phase.heap-gc_ns"};
    Counters c;
    auto& reg = ido::MetricsRegistry::instance();
    for (const char* n : kNames)
        c.v[n] = reg.counter_value(n);
    const ido::PersistCounters p = ido::persist_counters_global();
    c.v["persist.fences"] = p.fences;
    c.v["persist.flushes"] = p.flushes;
    return c;
}

void
RecoveryLedger::book(const Counters& before, const Counters& after)
{
    for (const auto& [src, dst] : kRecoveryPhases)
        phase_ms[dst].push_back(after.since(before, src) / 1e6);
    fases_resumed += after.since(before, "recovery.fases_resumed");
    leaked_blocks += after.since(before, "recovery.leaked_blocks");
}

void
RecoveryLedger::report(Report& rep) const
{
    const double n = double(std::max<size_t>(wall_ms.size(), 1));
    for (const auto& [src, dst] : kRecoveryPhases) {
        const auto it = phase_ms.find(dst);
        rep.add(dst, it == phase_ms.end() ? 0.0 : median(it->second), "ms");
    }
    rep.add("ido.recovery.fases_resumed", fases_resumed / n, "count");
    rep.add("ido.recovery.leaked_blocks", leaked_blocks / n, "count");
}

double
heap_fragmentation_ppm()
{
    return double(
        ido::MetricsRegistry::instance().snapshot().gauges["heap.fragmentation"]);
}

void
report_shared_layers(const LayerWindow& w, Report& rep)
{
    const auto per_op = [&](const char* name) {
        return w.after.since(w.before, name) / w.ops;
    };
    const trace::NvmTime nvm = trace::nvm_totals();
    const double allocs = w.after.since(w.before, "nvheap.alloc");
    const double batches = w.after.since(w.before, "net.group.batches");
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    rep.add("nvm.flushes_per_op", per_op("persist.flushes"), "count");
    rep.add("nvm.fence_ns_per_op", double(nvm.fence_ns) / w.ops, "ns");
    rep.add("nvm.flush_ns_per_op", double(nvm.flush_ns) / w.ops, "ns");
    rep.add("nvm.persist_share",
            ratio(double(nvm.fence_ns + nvm.flush_ns), w.system_cpu_ns),
            "ratio");
    rep.add("nvm.heap.allocs_per_op", per_op("nvheap.alloc"), "count");
    rep.add("nvm.heap.frees_per_op", per_op("nvheap.free"), "count");
    rep.add("nvm.heap.cache_hit_ratio",
            ratio(w.after.since(w.before, "nvheap.cache_hit"), allocs),
            "ratio");
    rep.add("nvm.heap.refills_per_kalloc",
            1000.0 * ratio(w.after.since(w.before, "nvheap.refill"), allocs),
            "count");
    rep.add("nvm.heap.fragmentation_ppm", w.fragmentation_ppm, "ppm");
    rep.add("ido.elide.covered_stores_per_op",
            per_op("ido.elide.covered_stores"), "count");
    rep.add("ido.elide.lines_deduped_per_op",
            per_op("ido.elide.boundary_lines_deduped"), "count");
    rep.add("ido.group.fences_elided_per_req",
            per_op("ido.group.fences_elided"), "count");
    rep.add("ido.group.close_fences_per_batch",
            ratio(w.after.since(w.before, "ido.group.close_fences"), batches),
            "count");
    rep.add("net.batch_size_mean",
            ratio(w.after.since(w.before, "net.group.requests"), batches),
            "count");
    rep.add("trace.untraced_ops_per_s", w.untraced_rate, "1/s");
    rep.add("trace.traced_ops_per_s", w.traced_rate, "1/s");
    rep.add("trace.overhead_pct",
            100.0 * (1.0 - ratio(w.traced_rate, w.untraced_rate)), "%");
}

// ---- traced run -----------------------------------------------------------

namespace trace {

std::atomic<bool> g_on{false};

namespace {

constexpr size_t kMaxSpansPerThread = 1u << 17;

/** A thread's trace state; owned by the registry so it outlives the
 *  thread and can be collected after the join. */
struct ThreadState
{
    uint64_t index = 0;
    uint64_t next_local = 1;
    uint64_t cur_op = 0; ///< 0: no sampled op open
    uint64_t cur_id = 0;
    std::vector<Span> spans; ///< capacity kMaxSpansPerThread once prepared
    std::atomic<uint64_t> flush_ns{0};
    std::atomic<uint64_t> fence_ns{0};
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadState>> g_states;

ThreadState&
state()
{
    thread_local ThreadState* st = nullptr;
    if (st == nullptr) {
        std::lock_guard<std::mutex> g(g_mu);
        g_states.push_back(std::make_unique<ThreadState>());
        st = g_states.back().get();
        st->index = g_states.size();
    }
    return *st;
}

uint64_t
new_id(ThreadState& st)
{
    return (st.index << 40) | st.next_local++;
}

void
push(ThreadState& st, const Span& s)
{
    if (st.spans.size() < st.spans.capacity())
        st.spans.push_back(s);
}

/** Single-writer accumulate: only the owning thread stores. */
void
bump(std::atomic<uint64_t>& a, uint64_t d)
{
    a.store(a.load(std::memory_order_relaxed) + d,
            std::memory_order_relaxed);
}

} // namespace

void
prepare_thread()
{
    // Allocate and touch the whole buffer now, so no sampled op pays a
    // page fault or a reallocation.
    ThreadState& st = state();
    st.spans.resize(kMaxSpansPerThread);
    st.spans.clear();
}

uint64_t
begin_op(uint64_t op)
{
    ThreadState& st = state();
    st.cur_op = op;
    st.cur_id = new_id(st);
    return now_ns();
}

void
end_op(const char* name, uint64_t start_ns)
{
    ThreadState& st = state();
    push(st, {name, start_ns, now_ns(), st.cur_id, 0, st.cur_op});
    st.cur_op = 0;
}

std::vector<Span>
collect()
{
    std::lock_guard<std::mutex> g(g_mu);
    std::vector<Span> all;
    for (const auto& st : g_states)
        all.insert(all.end(), st->spans.begin(), st->spans.end());
    return all;
}

bool
write(const std::vector<Span>& spans, const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const Span& s : spans)
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                     "\"id\":%llu,\"parent\":%llu,\"op\":%llu}\n",
                     s.name, (unsigned long long)s.start_ns,
                     (unsigned long long)s.end_ns, (unsigned long long)s.id,
                     (unsigned long long)s.parent, (unsigned long long)s.op);
    return std::fclose(f) == 0;
}

NvmTime
nvm_totals()
{
    std::lock_guard<std::mutex> g(g_mu);
    NvmTime t;
    for (const auto& st : g_states) {
        t.flush_ns += st->flush_ns.load(std::memory_order_relaxed);
        t.fence_ns += st->fence_ns.load(std::memory_order_relaxed);
    }
    return t;
}

/** Time one persist primitive and attach it to the open op, if any. */
template <typename F>
void
timed(const char* name, std::atomic<uint64_t> ThreadState::*acc, F&& call)
{
    ThreadState& st = state();
    const uint64_t t0 = now_ns();
    call();
    const uint64_t t1 = now_ns();
    bump(st.*acc, t1 - t0);
    if (st.cur_op != 0)
        push(st, {name, t0, t1, new_id(st), st.cur_id, st.cur_op});
}

} // namespace trace

void
TimingDomain::flush(const void* addr, size_t n)
{
    if (!trace::g_on.load(std::memory_order_relaxed)) {
        inner_.flush(addr, n);
        return;
    }
    trace::timed("nvm.flush", &trace::ThreadState::flush_ns,
                 [&] { inner_.flush(addr, n); });
}

void
TimingDomain::fence()
{
    if (!trace::g_on.load(std::memory_order_relaxed)) {
        inner_.fence();
        return;
    }
    trace::timed("nvm.fence", &trace::ThreadState::fence_ns,
                 [&] { inner_.fence(); });
}

} // namespace repobench
