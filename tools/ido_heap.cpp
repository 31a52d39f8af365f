/**
 * @file
 * ido_heap: offline heap inspection CLI for NvHeap v2.
 *
 * Attaches to an ido heap file and runs the reachability audit
 * against it.  A dirty heap (crash flag set) is first taken through
 * full iDO recovery -- resumed FASEs finish and retire their log
 * entries -- unless --no-recover asks for a raw look.
 *
 * Subcommands:
 *   audit    read-only census + leak/dangling report.  Exit 1 when
 *            any unreachable-live block or dangling link is found.
 *   stats    census only, always exit 0 (monitoring-friendly).
 *   selftest build a throwaway heap in-process, run a churn workload
 *            through the iDO runtime, and check the audit's counts
 *            end to end (CI hook; no --heap).
 *
 * Usage:
 *   ido_heap <audit|stats> --heap=PATH [--heap-bytes=N]
 *            [--json] [--no-recover]
 *   ido_heap selftest [--json]
 *
 * --json prints the GcStats object as one JSON line (the CI churn
 * soak archives `ido_heap audit --json` as its artifact); otherwise a
 * human table plus the capped findings list is printed.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/memcached_mini.h"
#include "apps/redis_mini.h"
#include "ido/ido_runtime.h"
#include "nvm/heap_gc.h"
#include "nvm/persistent_heap.h"
#include "nvm/root_registry.h"

using namespace ido;

namespace {

bool
parse_flag(const char* arg, const char* name, std::string* out)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    *out = arg + n + 1;
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: ido_heap <audit|stats> --heap=PATH\n"
                 "                [--heap-bytes=N] [--json] "
                 "[--no-recover]\n"
                 "       ido_heap selftest [--json]\n");
    return 2;
}

void
print_human(const char* cmd, const nvm::GcStats& s)
{
    std::printf("== ido_heap %s ==\n", cmd);
    std::printf("%-22s %llu blocks / %llu bytes in %llu chunks\n",
                "census:",
                static_cast<unsigned long long>(s.blocks),
                static_cast<unsigned long long>(s.bytes),
                static_cast<unsigned long long>(s.chunks));
    std::printf("%-22s live %llu (%llu B)  free %llu\n", "states:",
                static_cast<unsigned long long>(s.live_blocks),
                static_cast<unsigned long long>(s.live_bytes),
                static_cast<unsigned long long>(s.free_blocks));
    std::printf("%-22s leaked %llu (%llu B)  dangling %llu  "
                "opaque %llu\n",
                "findings:",
                static_cast<unsigned long long>(s.leaked_blocks),
                static_cast<unsigned long long>(s.leaked_bytes),
                static_cast<unsigned long long>(s.dangling_links),
                static_cast<unsigned long long>(s.opaque_live));
    std::printf("%-22s index %.1f ms  mark %.1f ms (%llu thr)  "
                "census %.1f ms\n",
                "phases:", s.index_ns / 1e6, s.mark_ns / 1e6,
                static_cast<unsigned long long>(s.mark_threads),
                s.census_ns / 1e6);
    for (const std::string& f : s.findings)
        std::printf("  - %s\n", f.c_str());
}

void
report(const char* cmd, const nvm::GcStats& s, bool json)
{
    if (json)
        std::printf("%s\n", s.to_json().c_str());
    else
        print_human(cmd, s);
    std::fflush(stdout);
}

int
run_file_command(const std::string& cmd, const std::string& heap_path,
                 uint64_t heap_bytes, bool json, bool no_recover)
{
    nvm::PersistentHeap heap(
        { .path = heap_path, .size = heap_bytes, .reset = false });
    nvm::RealDomain dom;
    ido::IdoRuntime rt(heap, dom, rt::RuntimeConfig{});
    // The heap may hold app structures; their FASEs must be
    // registered before recovery can resume an interrupted one.
    apps::MemcachedMini::register_programs();
    apps::RedisMini::register_programs();

    const bool was_dirty = heap.recovered_from_crash();
    if (was_dirty && !no_recover)
        rt.recover();
    else if (was_dirty)
        std::fprintf(stderr,
                     "ido_heap: heap is dirty (crashed) and "
                     "--no-recover was given; an interrupted FASE's "
                     "blocks may read as leaks\n");

    const nvm::GcStats s = nvm::HeapGc(rt.allocator(), dom).audit();
    nvm::HeapGc::publish(s);

    // A recovered heap is consistent; record the clean shutdown so the
    // next attach skips recovery.  A dirty heap we refused to recover
    // keeps its crash flag.
    if (!was_dirty || !no_recover)
        heap.mark_clean(dom);

    report(cmd.c_str(), s, json);
    if (cmd == "stats")
        return 0;
    return s.leaked_blocks == 0 && s.dangling_links == 0 ? 0 : 1;
}

/**
 * In-process end-to-end exercise on a throwaway heap: churn a
 * memcached + redis corpus through the iDO runtime, verify the audit
 * is clean, plant typed leaks and check the audit counts exactly
 * them, free them and check it is clean again with every surviving
 * key intact.  Returns 0 on pass, 1 with a FAIL line on the first
 * violated expectation.
 */
int
run_selftest(bool json)
{
    int failures = 0;
    const auto expect = [&](bool ok, const char* what) {
        if (!ok) {
            std::fprintf(stderr, "FAIL: %s\n", what);
            ++failures;
        }
    };

    nvm::PersistentHeap heap({ .path = "", .size = 16u << 20 });
    nvm::RealDomain dom;
    ido::IdoRuntime rt(heap, dom, rt::RuntimeConfig{});
    apps::MemcachedMini::register_programs();
    apps::RedisMini::register_programs();
    // The selftest's leak blocks are typed leaves.
    nvm::TypeDescriptor leak_desc;
    leak_desc.name = "heapcli.leak";
    nvm::TypeRegistry::instance().register_type(nvm::TypeId::kTestBlock,
                                                leak_desc);

    std::unique_ptr<rt::RuntimeThread> th = rt.make_thread();
    const uint64_t mc_root = apps::MemcachedMini::create(*th, 2, 64);
    nvm::RootRegistry::set_ref(heap, nvm::RootSlot::kAppRoot, mc_root,
                               dom);
    const uint64_t rd_root = apps::RedisMini::create(*th, 64);
    nvm::RootRegistry::set_ref(heap, nvm::RootSlot::kUser0, rd_root,
                               dom);

    apps::MemcachedMini cache(heap, mc_root);
    apps::RedisMini store(heap, rd_root);
    constexpr uint64_t kKeys = 400;
    for (uint64_t k = 0; k < kKeys; ++k) {
        cache.set(*th, k, k ^ 0x5a5a, k * 3 + 1);
        if (k % 2 == 0)
            store.set(*th, k, k + 1000);
    }
    for (uint64_t k = 0; k < kKeys; k += 3)
        cache.del(*th, k, k ^ 0x5a5a);

    nvm::HeapGc gc(rt.allocator(), dom);
    const nvm::GcStats base = gc.audit();
    expect(base.leaked_blocks == 0, "clean corpus audits zero leaks");
    expect(base.dangling_links == 0, "clean corpus has no dangling links");
    expect(base.live_blocks > kKeys, "corpus blocks are all visible");

    // Plant typed leaks: allocated through the runtime, never rooted.
    constexpr uint64_t kLeaks = 8;
    std::vector<uint64_t> leaks;
    uint64_t leaked_bytes = 0;
    for (uint64_t i = 0; i < kLeaks; ++i) {
        leaks.push_back(
            th->nv_alloc_as(nvm::TypeId::kTestBlock, 48 + i * 16));
        expect(leaks.back() != 0, "leak allocation succeeds");
        // Header (size word, meta word) plus class-rounded payload.
        const uint64_t raw = rt.allocator().raw_payload(leaks.back(), dom);
        leaked_bytes += *heap.resolve<uint64_t>(raw - 16) + 16;
    }
    nvm::GcStats s = gc.audit();
    expect(s.leaked_blocks == kLeaks, "audit counts planted leaks");
    expect(s.leaked_bytes == leaked_bytes, "audit sizes planted leaks");
    expect(s.live_blocks == base.live_blocks + kLeaks,
           "leaks are live blocks");
    expect(s.findings.size() == kLeaks, "one finding per leak");

    for (const uint64_t off : leaks)
        rt.allocator().free_block(off, dom);
    for (uint64_t k = 0; k < kKeys; ++k)
        if (k % 3 != 0 && k % 16 != 1)
            cache.del(*th, k, k ^ 0x5a5a);
    s = gc.audit();
    expect(s.leaked_blocks == 0 && s.dangling_links == 0,
           "freed leaks leave a clean audit");
    for (uint64_t k = 0; k < kKeys; ++k) {
        uint64_t v = 0;
        const bool hit = cache.get(*th, k, k ^ 0x5a5a, &v);
        if (k % 3 != 0 && k % 16 == 1)
            expect(hit && v == k * 3 + 1, "surviving key intact");
        else
            expect(!hit, "deleted key stays deleted");
    }
    expect(rt.allocator().check_consistency(), "allocator consistent");
    expect(apps::MemcachedMini::check_invariants(heap, mc_root),
           "memcached invariants hold");
    expect(apps::RedisMini::check_invariants(heap, rd_root),
           "redis invariants hold");

    report("selftest", s, json);
    if (failures == 0)
        std::printf("selftest PASS\n");
    else
        std::printf("selftest FAIL (%d)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::string heap_path;
    uint64_t heap_bytes = 64u << 20;
    bool json = false;
    bool no_recover = false;

    for (int i = 2; i < argc; ++i) {
        std::string val;
        if (parse_flag(argv[i], "--heap", &val))
            heap_path = val;
        else if (parse_flag(argv[i], "--heap-bytes", &val))
            heap_bytes = std::strtoull(val.c_str(), nullptr, 10);
        else if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else if (std::strcmp(argv[i], "--no-recover") == 0)
            no_recover = true;
        else
            return usage();
    }

    if (cmd == "selftest")
        return run_selftest(json);
    if (cmd != "audit" && cmd != "stats")
        return usage();
    if (heap_path.empty() || heap_bytes < (1u << 20))
        return usage();
    return run_file_command(cmd, heap_path, heap_bytes, json,
                            no_recover);
}
