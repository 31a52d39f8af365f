/**
 * @file
 * repobench: one workload of the repo benchmark per invocation.
 *
 *   repobench --workload kv-write|kv-read|serve|serve-routed
 *             --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * and the metrics -- the end-to-end set (--trace 0) or the per-layer
 * ledger (--trace 1).  run.py builds this binary and checks the names
 * against BENCHMARK.json.
 */
#include <cstdio>
#include <cstdlib>
#include <set>

#include "bench.h"

namespace {

using repobench::Report;

/** Per-layer ledger: every name is reported on every workload; a layer
 *  that is not on a workload's path reads 0 there. */
const std::pair<const char*, const char*> kPerLayer[] = {
    {"nvm.flushes_per_op", "count"},
    {"nvm.fence_ns_per_op", "ns"},
    {"nvm.flush_ns_per_op", "ns"},
    {"nvm.persist_share", "ratio"},
    {"nvm.heap.allocs_per_op", "count"},
    {"nvm.heap.frees_per_op", "count"},
    {"nvm.heap.cache_hit_ratio", "ratio"},
    {"nvm.heap.refills_per_kalloc", "count"},
    {"nvm.heap.fragmentation_ppm", "ppm"},
    {"ido.elide.covered_stores_per_op", "count"},
    {"ido.elide.lines_deduped_per_op", "count"},
    {"ido.group.fences_elided_per_req", "count"},
    {"ido.group.close_fences_per_batch", "count"},
    {"ido.recovery.leak_reclaim_ms", "ms"},
    {"ido.recovery.scan_log_records_ms", "ms"},
    {"ido.recovery.resume_fases_ms", "ms"},
    {"ido.recovery.heap_gc_ms", "ms"},
    {"ido.recovery.fases_resumed", "count"},
    {"ido.recovery.leaked_blocks", "count"},
    {"apps.set_ns_mean", "ns"},
    {"apps.get_ns_mean", "ns"},
    {"apps.del_ns_mean", "ns"},
    {"apps.set_self_ns_mean", "ns"},
    {"apps.get_self_ns_mean", "ns"},
    {"net.queue_us_p50", "us"},
    {"net.queue_us_p99", "us"},
    {"net.exec_us_p50", "us"},
    {"net.publish_us_p50", "us"},
    {"net.outside_server_us_p50", "us"},
    {"net.batch_size_mean", "count"},
    {"net.loop_cpu_us_per_req", "us"},
    {"net.shard_cpu_us_per_req", "us"},
    {"net.read_syscalls_per_req", "count"},
    {"net.write_syscalls_per_req", "count"},
    {"net.ctx_switches_per_req", "count"},
    {"cluster.router_cpu_us_per_req", "us"},
    {"cluster.hop_us_p50", "us"},
    {"cluster.forwarded_per_req", "count"},
    {"client.cpu_us_per_req", "us"},
    {"trace.untraced_ops_per_s", "1/s"},
    {"trace.traced_ops_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

const char* const kEndToEnd[] = {
    "ops_per_s",   "get_p50_us",    "get_p90_us",    "set_p50_us",
    "set_p90_us",  "cpu_us_per_op", "fences_per_op", "setup_s",
    "recovery_ms", "space_amp",     "peak_rss_mb"};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: repobench --workload kv-write|kv-read|serve|"
                 "serve-routed --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    repobench::Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            args.workload = v;
        else if (k == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            args.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            args.trace = v == "1";
        else if (k == "--out-dir")
            args.out_dir = v;
        else
            usage();
    }
    if (argc % 2 != 1 || args.seconds <= 0)
        usage();

    Report rep;
    if (args.workload == "kv-write" || args.workload == "kv-read")
        repobench::run_kv(args, rep);
    else if (args.workload == "serve" || args.workload == "serve-routed")
        repobench::run_serve(args, rep);
    else
        usage();

    std::set<std::string> have;
    for (const auto& m : rep.metrics)
        have.insert(m.name);
    if (args.trace) {
        for (const auto& [name, unit] : kPerLayer)
            if (!have.count(name))
                rep.add(name, 0.0, unit);
    } else {
        for (const char* name : kEndToEnd)
            if (!have.count(name))
                rep.problem(std::string("metric not measured: ") + name);
    }
    std::printf("%s\n", rep.to_json().c_str());
    return 0;
}
