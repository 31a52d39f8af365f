/**
 * @file
 * Shared scaffolding for the figure/table reproduction harnesses:
 * world construction, runtime/thread sweeps, and paper-style table
 * printing.  Every harness prints, alongside measured throughput, the
 * persist-event profile per operation (fences, cache-line
 * write-backs, log bytes) -- the deterministic, hardware-independent
 * signature of each system's protocol that underlies the paper's
 * performance ordering.
 *
 * Environment knobs:
 *   IDO_BENCH_SECONDS   duration per configuration (default 0.3)
 *   IDO_BENCH_THREADS   max worker threads (default: 8)
 *   IDO_BENCH_JSON      directory: append one JSON line per measured
 *                       configuration to $IDO_BENCH_JSON/BENCH_<bench>
 *                       .json, embedding the full MetricsRegistry
 *                       snapshot (counters, gauges, latencies)
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/runtime_factory.h"
#include "nvm/persist_domain.h"
#include "nvm/persistent_heap.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"

namespace ido::bench {

inline double
bench_seconds()
{
    if (const char* s = std::getenv("IDO_BENCH_SECONDS"))
        return std::atof(s);
    return 0.3;
}

inline std::vector<uint32_t>
thread_sweep()
{
    uint32_t max_threads = 8;
    if (const char* s = std::getenv("IDO_BENCH_THREADS"))
        max_threads = static_cast<uint32_t>(std::atoi(s));
    std::vector<uint32_t> sweep;
    for (uint32_t t = 1; t <= max_threads; t *= 2)
        sweep.push_back(t);
    return sweep;
}

/** Heap + domain + runtime bundle for one measured configuration. */
struct BenchWorld
{
    explicit BenchWorld(baselines::RuntimeKind kind,
                        size_t heap_bytes = 512u << 20,
                        uint32_t flush_delay_ns = 0,
                        size_t log_bytes = 4u << 20)
        : heap({.size = heap_bytes}), dom(flush_delay_ns)
    {
        rt::RuntimeConfig cfg;
        cfg.log_bytes_per_thread = log_bytes;
        runtime = baselines::make_runtime(kind, heap, dom, cfg);
        persist_counters_reset_global();
    }

    nvm::PersistentHeap heap;
    nvm::RealDomain dom;
    std::unique_ptr<rt::Runtime> runtime;
};

/** "fences/op=12.0 flushes/op=8.1 logB/op=64" for the last run. */
inline std::string
persist_profile(uint64_t ops)
{
    const PersistCounters c = persist_counters_global();
    char buf[128];
    if (ops == 0)
        ops = 1;
    std::snprintf(buf, sizeof(buf),
                  "fences/op=%6.2f flushes/op=%6.2f logB/op=%7.1f",
                  double(c.fences) / double(ops),
                  double(c.flushes) / double(ops),
                  double(c.log_bytes) / double(ops));
    return buf;
}

inline void
print_header(const char* title)
{
    std::printf("\n=== %s ===\n", title);
}

/**
 * Append one machine-readable result row (JSON-lines) for the
 * configuration just measured.  No-op unless IDO_BENCH_JSON names a
 * directory.  persist_counters_flush_tls() must already have run on
 * the workers (workload_run joins them, so it has), since the embedded
 * metrics snapshot reads the global registry.
 */
inline void
emit_json_row(const char* bench, const char* runtime, uint32_t threads,
              uint64_t ops, double seconds,
              const LatencyHistogram* lat = nullptr)
{
    const char* dir = std::getenv("IDO_BENCH_JSON");
    if (!dir || !*dir)
        return;
    const std::string path =
        std::string(dir) + "/BENCH_" + bench + ".json";
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (!f)
        return;
    // flush_insn names the write-back instruction RealDomain issued,
    // so trajectories from different machines stay comparable.
    char head[320];
    std::snprintf(head, sizeof(head),
                  "{\"bench\":\"%s\",\"runtime\":\"%s\","
                  "\"threads\":%u,\"ops\":%llu,\"seconds\":%.6f,"
                  "\"flush_insn\":\"%s\",",
                  bench, runtime, threads,
                  static_cast<unsigned long long>(ops), seconds,
                  nvm::flush_insn_name(nvm::flush_insn()));
    std::fputs(head, f);
    if (lat != nullptr && lat->total() > 0) {
        // Per-op latency percentiles (ido-stat): the Fig. 9 latency
        // sweep and bench_server record request latencies into a
        // LatencyHistogram and publish them alongside throughput.
        std::snprintf(head, sizeof(head),
                      "\"lat\":{\"count\":%llu,\"mean_ns\":%.1f,"
                      "\"p50_ns\":%llu,\"p90_ns\":%llu,"
                      "\"p99_ns\":%llu,\"p999_ns\":%llu,"
                      "\"max_ns\":%llu},",
                      static_cast<unsigned long long>(lat->total()),
                      lat->mean(),
                      static_cast<unsigned long long>(
                          lat->percentile(0.50)),
                      static_cast<unsigned long long>(
                          lat->percentile(0.90)),
                      static_cast<unsigned long long>(
                          lat->percentile(0.99)),
                      static_cast<unsigned long long>(
                          lat->percentile(0.999)),
                      static_cast<unsigned long long>(
                          lat->max_value()));
        std::fputs(head, f);
    }
    std::fputs("\"metrics\":", f);
    const std::string metrics = MetricsRegistry::instance().format_json();
    std::fwrite(metrics.data(), 1, metrics.size(), f);
    std::fputs("}\n", f);
    std::fclose(f);
}

} // namespace ido::bench
