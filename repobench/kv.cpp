/**
 * @file
 * kv-write and kv-read: memcached_mini called in process by two
 * closed-loop worker threads under iDO on RealDomain.
 *
 * Each worker owns the keys whose index is congruent to its number mod
 * 2 and keeps a model of them, so every get and delete result is
 * checked exactly.  After the measured window the run kills the
 * workers with the crash scheduler a few times, recovers each time on
 * a fresh runtime over the same heap (timed), resolves the op each
 * worker had in flight, and finally re-reads every key, checks the
 * cache's invariants and audits the heap.
 */
#include <cstdio>
#include <map>
#include <memory>

#include "apps/memcached_mini.h"
#include "baselines/runtime_factory.h"
#include "bench.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "nvm/heap_gc.h"
#include "nvm/root_registry.h"
#include "stats/persist_stats.h"

namespace repobench {
namespace {

using namespace ido;

constexpr unsigned kThreads = 2;
constexpr uint64_t kShards = 4;
constexpr uint64_t kItemPayloadBytes = 24; ///< 16-byte key + 8-byte value

struct KvSpec
{
    uint64_t keys;
    uint32_t set_pct;
    uint32_t get_pct; ///< the rest are deletes
    double zipf_theta; ///< 0 = uniform
    double prefill;    ///< share of keys present before the window
    uint64_t nbuckets; ///< per shard
    size_t heap_bytes;
    int setups;        ///< set-ups per run (setup_s is their median)
    int crashes;       ///< crash/recover cycles per run
};

// kv-write: 1M uniform keys, far beyond L2; prefilled to the mix's
// steady-state occupancy set/(set+del) = 5/7 so occupancy does not drift.
const KvSpec kWriteSpec{1u << 20, 50, 30, 0.0, 5.0 / 7.0, 1u << 18,
                        256u << 20, 3, 3};
// kv-read: the paper's search-intensive mix over 10k keys, all present.
const KvSpec kReadSpec{10000, 10, 90, 0.99, 1.0, 4096, 32u << 20, 9, 9};

enum Op : uint8_t { kSet, kGet, kDel };
const char* const kOpSpan[] = {"apps.set", "apps.get", "apps.del"};

/** Heap, domain(s) and runtime of one in-process run. */
struct KvWorld
{
    KvWorld(size_t heap_bytes, bool traced) : heap({.size = heap_bytes})
    {
        if (traced)
            timing = std::make_unique<TimingDomain>(real);
        start_runtime();
        arena_total = rt->allocator().arena_remaining();
    }

    nvm::PersistDomain& dom()
    {
        return timing ? static_cast<nvm::PersistDomain&>(*timing) : real;
    }

    void
    start_runtime()
    {
        rt = baselines::make_runtime(baselines::RuntimeKind::kIdo, heap,
                                     dom(), runtime_config());
    }

    double
    space_amp()
    {
        const uint64_t used = arena_total - rt->allocator().arena_remaining();
        const uint64_t live = apps::MemcachedMini::size(heap, root);
        return double(used) / double(live * kItemPayloadBytes);
    }

    nvm::PersistentHeap heap;
    nvm::RealDomain real;
    std::unique_ptr<TimingDomain> timing;
    std::unique_ptr<rt::Runtime> rt;
    uint64_t root = 0;
    uint64_t arena_total = 0;
};

/** A worker's key subset, its model, and what it measured. */
struct Owner
{
    unsigned t = 0;
    std::vector<uint64_t> val; ///< by local index; 0 = absent
    uint64_t next_value = 0;
    // The op started but not finished when a crash hit (-1: none).
    int64_t inflight = -1;
    Op inflight_op = kGet;
    uint64_t inflight_value = 0;
    uint64_t attempted = 0, failed = 0;
    SliceLat lat[3];
};

/** Key words of key index idx.  Independent of the seed, so which
 *  shard a hot key lands on is the same in every run. */
std::pair<uint64_t, uint64_t>
key_words(uint64_t idx)
{
    uint64_t s = idx;
    return {splitmix64(s), idx};
}

uint64_t
fresh_value(Owner& o)
{
    return (++o.next_value << 8) | (o.t + 1);
}

/** Execute one op against the cache and check it against the model. */
void
do_op(apps::MemcachedMini& cache, rt::RuntimeThread& th, Owner& o, Op op,
      uint64_t local, uint64_t value)
{
    const auto [lo, hi] = key_words(local * kThreads + o.t);
    o.inflight = int64_t(local);
    o.inflight_op = op;
    o.inflight_value = value;
    bool ok = true;
    switch (op) {
    case kSet:
        cache.set(th, lo, hi, value);
        o.val[local] = value;
        break;
    case kGet: {
        uint64_t got = 0;
        const bool hit = cache.get(th, lo, hi, &got);
        ok = hit ? got == o.val[local] : o.val[local] == 0;
        break;
    }
    case kDel:
        ok = cache.del(th, lo, hi) == (o.val[local] != 0);
        o.val[local] = 0;
        break;
    }
    o.inflight = -1;
    ++o.attempted;
    o.failed += ok ? 0 : 1;
}

/** Draws ops of the spec's mix for one worker. */
struct OpGen
{
    OpGen(const KvSpec& s, uint64_t seed, unsigned t, const ZipfSampler* z)
        : spec(s), rng(seed * 1000003 + t + 1), zipf(z)
    {
    }

    std::pair<Op, uint64_t>
    next()
    {
        const uint64_t r = rng.next_below(100);
        const Op op = r < spec.set_pct                  ? kSet
                      : r < spec.set_pct + spec.get_pct ? kGet
                                                        : kDel;
        const uint64_t local = zipf ? zipf->next(rng)
                                    : rng.next_below(spec.keys / kThreads);
        return {op, local};
    }

    const KvSpec& spec;
    Rng rng;
    const ZipfSampler* zipf;
};

std::unique_ptr<KvWorld>
setup(const KvSpec& spec, uint64_t seed, bool traced,
      std::vector<Owner>& owners)
{
    auto w = std::make_unique<KvWorld>(spec.heap_bytes, traced);
    apps::MemcachedMini::register_programs();
    {
        auto th = w->rt->make_thread();
        w->root = apps::MemcachedMini::create(*th, kShards, spec.nbuckets);
    }
    nvm::RootRegistry::set_ref(w->heap, nvm::RootSlot::kAppRoot, w->root,
                               w->dom());
    owners.assign(kThreads, Owner{});
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Owner& o = owners[t];
            o.t = t;
            o.val.assign(spec.keys / kThreads, 0);
            Rng rng(seed * 7919 + t);
            auto th = w->rt->make_thread();
            apps::MemcachedMini cache(w->heap, w->root);
            for (uint64_t local = 0; local < o.val.size(); ++local)
                if (rng.next_double() < spec.prefill)
                    do_op(cache, *th, o, kSet, local, fresh_value(o));
        });
    }
    for (auto& t : threads)
        t.join();
    return w;
}

/** Fail-stop the workers, recover on a fresh runtime, resolve in-flight
 *  ops.  Returns false if the crash never fired. */
bool
crash_and_recover(KvWorld& w, const KvSpec& spec, uint64_t seed,
                  unsigned cycle, std::vector<Owner>& owners,
                  RecoveryLedger& led, Report& rep)
{
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Owner& o = owners[t];
            OpGen gen(spec, seed + 31 * (cycle + 1), t, nullptr);
            auto th = w.rt->make_thread();
            apps::MemcachedMini cache(w.heap, w.root);
            try {
                while (!stop.load(std::memory_order_relaxed)) {
                    const auto [op, local] = gen.next();
                    do_op(cache, *th, o, op, local,
                          op == kSet ? fresh_value(o) : 0);
                }
            } catch (const rt::SimCrashException&) {
                // fail-stop: this worker is dead
            }
        });
    }
    Rng rng(seed * 131 + cycle);
    sleep_until_ns(now_ns() + 20'000'000);
    w.rt->crash_scheduler().arm(int64_t(1 + rng.next_below(2000)));
    const uint64_t deadline = now_ns() + 5'000'000'000ull;
    while (!w.rt->crash_scheduler().crashed() && now_ns() < deadline)
        std::this_thread::yield();
    stop.store(true);
    for (auto& t : threads)
        t.join();
    if (!w.rt->crash_scheduler().crashed()) {
        rep.problem("crash scheduler never fired");
        return false;
    }

    // The crashed runtime's volatile state dies with it; recovery is a
    // fresh runtime, recover(), and the cache attached from its root.
    w.rt.reset();
    led.time([&] {
        w.start_runtime();
        w.rt->recover();
        w.root = nvm::RootRegistry::get_ref(w.heap, nvm::RootSlot::kAppRoot);
        apps::MemcachedMini attached(w.heap, w.root);
    });
    apps::MemcachedMini cache(w.heap, w.root);

    // An interrupted op reads as either its old or its new state.
    auto th = w.rt->make_thread();
    for (Owner& o : owners) {
        if (o.inflight < 0)
            continue;
        const uint64_t local = uint64_t(o.inflight);
        const auto [lo, hi] = key_words(local * kThreads + o.t);
        uint64_t got = 0;
        const uint64_t now = cache.get(*th, lo, hi, &got) ? got : 0;
        const uint64_t after_op =
            o.inflight_op == kSet ? o.inflight_value
            : o.inflight_op == kDel ? 0
                                    : o.val[local];
        rep.check(now == o.val[local] || now == after_op);
        o.val[local] = now;
        o.inflight = -1;
    }
    return true;
}

/** Re-read every key, check structure, audit the heap. */
void
final_checks(KvWorld& w, std::vector<Owner>& owners, Report& rep)
{
    auto th = w.rt->make_thread();
    apps::MemcachedMini cache(w.heap, w.root);
    for (Owner& o : owners) {
        for (uint64_t local = 0; local < o.val.size(); ++local) {
            const auto [lo, hi] = key_words(local * kThreads + o.t);
            uint64_t got = 0;
            const bool hit = cache.get(*th, lo, hi, &got);
            rep.check(hit ? got == o.val[local] : o.val[local] == 0);
        }
    }
    if (!apps::MemcachedMini::check_invariants(w.heap, w.root))
        rep.problem("memcached_mini invariants violated");
    nvm::HeapGc gc(w.rt->allocator(), w.dom());
    const nvm::GcStats gs = gc.audit();
    if (gs.leaked_blocks != 0 || gs.dangling_links != 0)
        rep.problem("heap audit: leaked=" + std::to_string(gs.leaked_blocks)
                    + " dangling=" + std::to_string(gs.dangling_links));
}

/** apps.* means and self times from the sampled spans. */
void
span_ledger(const std::vector<Span>& spans, Report& rep)
{
    struct Acc
    {
        double total = 0, self = 0;
        uint64_t n = 0;
    };
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> child; // id -> ns, n
    std::map<uint64_t, const Span*> parents;
    for (const Span& s : spans)
        if (s.parent == 0)
            parents[s.id] = &s;
    uint64_t orphans = 0;
    for (const Span& s : spans) {
        if (s.parent == 0)
            continue;
        auto p = parents.find(s.parent);
        // A child must lie inside its parent span.
        if (p == parents.end() || s.start_ns < p->second->start_ns
            || s.end_ns > p->second->end_ns) {
            ++orphans;
            continue;
        }
        child[s.parent].first += s.end_ns - s.start_ns;
    }
    if (orphans != 0)
        rep.problem(std::to_string(orphans) + " nvm spans outside their op");
    std::map<std::string, Acc> by_op;
    for (const auto& [id, s] : parents) {
        const uint64_t dur = s->end_ns - s->start_ns;
        const uint64_t nvm = child.count(id) ? child[id].first : 0;
        Acc& a = by_op[s->name];
        a.total += double(dur);
        a.self += double(dur - nvm);
        ++a.n;
    }
    const auto mean = [&](const char* op, bool self) {
        const Acc& a = by_op[op];
        return a.n ? (self ? a.self : a.total) / double(a.n) : 0.0;
    };
    rep.add("apps.set_ns_mean", mean("apps.set", false), "ns");
    rep.add("apps.get_ns_mean", mean("apps.get", false), "ns");
    rep.add("apps.del_ns_mean", mean("apps.del", false), "ns");
    rep.add("apps.set_self_ns_mean", mean("apps.set", true), "ns");
    rep.add("apps.get_self_ns_mean", mean("apps.get", true), "ns");
}

} // namespace

void
run_kv(const Args& args, Report& rep)
{
    const KvSpec& spec = args.workload == "kv-write" ? kWriteSpec : kReadSpec;
    const bool traced = args.trace;

    // Set up several times; keep the last world, report the median.
    // Recovery time depends on where a heap landed in physical memory,
    // which differs per heap and per run, so every discarded world is
    // also crashed and recovered once, on top of the measured world's
    // crash cycles after the window.
    RecoveryLedger led;
    std::vector<Owner> owners;
    std::unique_ptr<KvWorld> w;
    std::vector<double> setup_s;
    for (int i = 0; i < spec.setups; ++i) {
        w.reset();
        const uint64_t t0 = now_ns();
        w = setup(spec, args.seed, traced, owners);
        setup_s.push_back(double(now_ns() - t0) / 1e9);
        if (i + 1 < spec.setups)
            crash_and_recover(*w, spec, args.seed, unsigned(spec.crashes + i),
                              owners, led, rep);
    }

    std::unique_ptr<ZipfSampler> zipf;
    if (spec.zipf_theta > 0)
        zipf = std::make_unique<ZipfSampler>(spec.keys / kThreads,
                                             spec.zipf_theta);

    // Phases: warmup, measured window (untraced run), or warmup,
    // untraced half, traced half (traced run); then stop.
    const unsigned measured = traced ? 2 : 1;
    const unsigned stop_phase = measured + 1;
    Phases phases(kThreads);
    Window untraced_half, window;
    std::vector<std::vector<PaddedCount>> counts(stop_phase);
    for (auto& c : counts)
        c = std::vector<PaddedCount>(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Owner& o = owners[t];
            OpGen gen(spec, args.seed, t, zipf.get());
            auto th = w->rt->make_thread();
            apps::MemcachedMini cache(w->heap, w->root);
            if (traced)
                trace::prepare_thread();
            unsigned my_phase = 0;
            uint64_t n = 0;
            for (;;) {
                const unsigned ph = phases.current();
                if (ph != my_phase) {
                    persist_counters_flush_tls();
                    phases.ack();
                    my_phase = ph;
                    if (ph == stop_phase)
                        break;
                }
                const auto [op, local] = gen.next();
                const uint64_t value = op == kSet ? fresh_value(o) : 0;
                const bool sampled =
                    traced && ph == measured && (n & 1023) == 0;
                const uint64_t t0 = sampled
                                        ? trace::begin_op(n * kThreads + t)
                                        : now_ns();
                do_op(cache, *th, o, op, local, value);
                if (sampled)
                    trace::end_op(kOpSpan[op], t0);
                else if (ph == measured)
                    o.lat[op].add(window, t0, now_ns() - t0);
                counts[ph][t].v.fetch_add(1, std::memory_order_relaxed);
                ++n;
            }
        });
    }

    const double warmup_s = std::min(2.0, 0.2 * args.seconds);
    sleep_until_ns(now_ns() + uint64_t(warmup_s * 1e9));
    double untraced_rate = 0;
    if (traced) {
        untraced_half.open(args.seconds / 2);
        phases.advance();
        untraced_rate = untraced_half.rate(counts[1]);
    }
    window.open(traced ? args.seconds / 2 : args.seconds);
    phases.advance();
    if (traced)
        trace::g_on.store(true);
    const Counters c0 = Counters::read();
    const uint64_t cpu0 = process_cpu_ns();
    const double rate = window.rate(counts[measured]);
    const uint64_t cpu = process_cpu_ns() - cpu0;
    const double fragmentation = heap_fragmentation_ppm();
    phases.advance();
    trace::g_on.store(false);
    for (auto& t : threads)
        t.join();
    const Counters c1 = Counters::read();
    uint64_t ops = 0;
    for (const PaddedCount& c : counts[measured])
        ops += c.v.load();
    ops = std::max<uint64_t>(ops, 1);
    const double space_amp = w->space_amp();

    for (int i = 0; i < spec.crashes; ++i)
        if (!crash_and_recover(*w, spec, args.seed, unsigned(i), owners, led,
                               rep))
            break;
    final_checks(*w, owners, rep);
    for (const Owner& o : owners) {
        rep.attempted += o.attempted;
        rep.failed += o.failed;
    }

    if (!traced) {
        std::vector<const SliceLat*> get, set;
        for (const Owner& o : owners) {
            get.push_back(&o.lat[kGet]);
            set.push_back(&o.lat[kSet]);
        }
        std::printf("samples: get=%llu set=%llu\n",
                    (unsigned long long)SliceLat::total_seen(get),
                    (unsigned long long)SliceLat::total_seen(set));
        rep.add("ops_per_s", rate, "1/s");
        rep.add("get_p50_us", SliceLat::quantile_us(get, 0.50), "us");
        rep.add("get_p90_us", SliceLat::quantile_us(get, 0.90), "us");
        rep.add("set_p50_us", SliceLat::quantile_us(set, 0.50), "us");
        rep.add("set_p90_us", SliceLat::quantile_us(set, 0.90), "us");
        rep.add("cpu_us_per_op", double(cpu) / 1e3 / double(ops), "us");
        rep.add("fences_per_op", c1.since(c0, "persist.fences") / double(ops),
                "count");
        rep.add("setup_s", median(setup_s), "s");
        rep.add("recovery_ms", median(led.wall_ms), "ms");
        rep.add("space_amp", space_amp, "ratio");
        rep.add("peak_rss_mb", peak_rss_mb(), "MB");
        return;
    }

    const std::vector<Span> spans = trace::collect();
    const std::string path = args.out_dir + "/spans-" + args.workload + "-"
                             + std::to_string(args.seed) + ".jsonl";
    if (!trace::write(spans, path))
        rep.problem("cannot write " + path);
    std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    report_shared_layers({c0, c1, double(ops), double(cpu), fragmentation,
                          untraced_rate, rate},
                         rep);
    led.report(rep);
    span_ledger(spans, rep);
    rep.add("trace.spans", double(spans.size()), "count");
}

} // namespace repobench
