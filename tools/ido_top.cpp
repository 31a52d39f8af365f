/**
 * @file
 * ido_top: live terminal view of a running ido_serve.
 *
 * Polls the admin endpoint's /stats.json at a fixed interval and
 * renders, per frame:
 *  - throughput (requests/s) and fences/op, computed as deltas between
 *    consecutive frames (counters are cumulative), and per request the
 *    one-word FASEs committed without the log and those that fell
 *    back to it (ido.single_store.*), and the validated GETs' retries
 *    and waits for a writer (rt.read.*);
 *  - per-op latency percentiles (p50/p99/p999) straight from the
 *    server's live recorders -- cumulative since server start, which
 *    is what the recorders expose;
 *  - the execute and replica-ack phase percentiles, reply send()s per
 *    request, and the connection/pending-bytes gauges;
 *  - the cache-line write-back instruction the server issues
 *    (nvm.flush_insn: clwb, clflushopt or clflush);
 *  - after a crash restart, what recovery cost: wall time, the
 *    leak-reclaim phase and the allocator census behind it
 *    (recovery.*).
 *
 * JSON handling is a deliberately tiny scanner over the flat schema
 * MetricsRegistry::format_json() emits ("name":value and
 * "name":{"k":v,...}); it does not parse general JSON and never needs
 * to.
 *
 * Usage:
 *   ido_top --port=N[,N,...] [--host=127.0.0.1] [--interval-ms=1000]
 *           [--frames=0] [--raw]
 *
 * --frames=0 polls forever (^C to quit); --raw dumps the fetched JSON
 * instead of the rendered table (CI smoke uses --frames=2 --raw).
 *
 * A comma-separated --port list switches to cluster mode (ido-cluster):
 * one row per node's admin endpoint plus a TOTAL rollup -- summed
 * throughput/connections, worst-node p99, and the cluster.* replica
 * forwarding counters where a node publishes them.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/admin.h"
#include "nvm/persist_domain.h"

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

/**
 * Extract every "name":<number> pair from the flat metrics JSON into
 * *out, flattening one nesting level: {"net.lat.req.get":{"p50_ns":7}}
 * yields "net.lat.req.get.p50_ns".  Quoted string values are skipped.
 */
void
scan_numbers(const std::string& json,
             std::map<std::string, double>* out)
{
    std::vector<std::string> stack;
    size_t i = 0;
    while (i < json.size()) {
        if (json[i] != '"') {
            if (json[i] == '}' && !stack.empty())
                stack.pop_back();
            ++i;
            continue;
        }
        const size_t kend = json.find('"', i + 1);
        if (kend == std::string::npos)
            return;
        const std::string key = json.substr(i + 1, kend - i - 1);
        i = kend + 1;
        if (i >= json.size() || json[i] != ':')
            continue;
        ++i;
        if (i >= json.size())
            return;
        if (json[i] == '{') {
            stack.push_back(key);
            ++i;
            continue;
        }
        if (json[i] == '"') { // string value: skip it
            const size_t vend = json.find('"', i + 1);
            if (vend == std::string::npos)
                return;
            i = vend + 1;
            continue;
        }
        char* end = nullptr;
        const double v = std::strtod(json.c_str() + i, &end);
        if (end == json.c_str() + i)
            continue;
        i = static_cast<size_t>(end - json.c_str());
        std::string full;
        for (const std::string& s : stack) {
            // The top-level section names ("counters", "latencies",
            // ...) are schema, not metric name.
            if (s == "counters" || s == "gauges" || s == "latencies")
                continue;
            full += s + ".";
        }
        full += key;
        (*out)[full] = v;
    }
}

double
get(const std::map<std::string, double>& m, const std::string& k)
{
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

/** Name of the write-back instruction a node reports ("-" if none). */
const char*
flush_insn_of(const std::map<std::string, double>& m)
{
    auto it = m.find("nvm.flush_insn");
    if (it == m.end())
        return "-";
    return nvm::flush_insn_name(
        static_cast<nvm::FlushInsn>(static_cast<int>(it->second)));
}

void
render(const std::map<std::string, double>& cur,
       const std::map<std::string, double>& prev, double dt_s,
       uint64_t frame)
{
    const double req_delta = get(cur, "net.requests")
                             - get(prev, "net.requests");
    const double fence_delta = get(cur, "persist.fences")
                               - get(prev, "persist.fences");
    const double rps = dt_s > 0 ? req_delta / dt_s : 0.0;
    const double fpo = req_delta > 0 ? fence_delta / req_delta : 0.0;
    const auto per_req = [&](const char* name) {
        const double d = get(cur, name) - get(prev, name);
        return req_delta > 0 ? d / req_delta : 0.0;
    };

    std::printf("--- frame %llu ---------------------------------------\n",
                static_cast<unsigned long long>(frame));
    std::printf("throughput %10.0f req/s    fences/op %5.2f    "
                "conns %.0f    pending %.0f B    flush %s\n",
                rps, fpo, get(cur, "net.conns"),
                get(cur, "net.pending_out_bytes"), flush_insn_of(cur));
    std::printf("one-word FASEs/op: committed %5.3f    fell back %5.3f    "
                "reply sends/op %5.3f\n",
                per_req("ido.single_store.commits"),
                per_req("ido.single_store.fallbacks"),
                per_req("net.sends"));
    std::printf("validated GETs/op: retries %5.3f    waits %5.3f\n",
                per_req("rt.read.retries"), per_req("rt.read.waits"));
    std::printf("%-10s %10s %12s %12s %12s\n", "op", "count",
                "p50(us)", "p99(us)", "p999(us)");
    for (const char* op : { "get", "set", "delete" }) {
        const std::string base = std::string("net.lat.req.") + op;
        if (get(cur, base + ".count") == 0)
            continue;
        std::printf("%-10s %10.0f %12.1f %12.1f %12.1f\n", op,
                    get(cur, base + ".count"),
                    get(cur, base + ".p50_ns") / 1e3,
                    get(cur, base + ".p99_ns") / 1e3,
                    get(cur, base + ".p999_ns") / 1e3);
    }
    for (const char* phase : { "exec", "replica_ack" }) {
        const std::string base = std::string("net.lat.") + phase;
        if (get(cur, base + ".count") == 0)
            continue;
        std::printf("%-10s %10.0f %12.1f %12.1f %12.1f\n", phase,
                    get(cur, base + ".count"),
                    get(cur, base + ".p50_ns") / 1e3,
                    get(cur, base + ".p99_ns") / 1e3,
                    get(cur, base + ".p999_ns") / 1e3);
    }
    // Heap occupancy: live/free split, fragmentation share of the
    // consumed arena (served in ppm), the mapping's 2 MiB-page share,
    // and what the last GC run saw.
    std::printf("heap live %.0f blk / free %.0f blk    frag %5.2f%%    "
                "huge pages %.1f MiB\n",
                get(cur, "nvheap.live_blocks_est"),
                get(cur, "nvheap.free_pool_blocks_est"),
                get(cur, "heap.fragmentation") / 1e4,
                get(cur, "nvm.heap.huge_page_bytes") / (1024.0 * 1024.0));
    std::printf("gc leaks %.0f (%.0f B)\n",
                get(cur, "heap.gc.leaked_blocks"),
                get(cur, "heap.gc.leaked_bytes"));
    if (get(cur, "heap.gc.runs") > 0)
        std::printf("gc last run: index %.1f ms  mark %.1f ms (%.0f thr)  "
                    "census %.1f ms\n",
                    get(cur, "heap.gc.last_index_us") / 1e3,
                    get(cur, "heap.gc.last_mark_us") / 1e3,
                    get(cur, "heap.gc.last_mark_threads"),
                    get(cur, "heap.gc.last_census_us") / 1e3);
    // The crash recovery this server ran at attach, if any: its wall
    // time, and the leak-reclaim phase with the census behind it.
    if (get(cur, "recovery.count") > 0)
        std::printf("recovery: wall %.2f ms  leak-reclaim %.2f ms "
                    "(census %.0f blk / %.0f extents on %.0f thr, "
                    "%.2f ms)  resumed %.0f FASEs\n",
                    get(cur, "recovery.wall_ns") / 1e6,
                    get(cur, "recovery.phase.leak-reclaim_ns") / 1e6,
                    get(cur, "recovery.census_blocks"),
                    get(cur, "recovery.census_extents"),
                    get(cur, "recovery.census_threads"),
                    get(cur, "recovery.census_ns") / 1e6,
                    get(cur, "recovery.fases_resumed"));
    std::fflush(stdout);
}

/**
 * Cluster mode: one row per node plus a TOTAL rollup.  Counters sum;
 * latency percentiles do not, so TOTAL reports the *worst* node p99 --
 * the number a cluster operator actually pages on.
 */
void
render_cluster(const std::vector<std::map<std::string, double>>& cur,
               const std::vector<std::map<std::string, double>>& prev,
               const std::vector<uint16_t>& ports, double dt_s,
               uint64_t frame)
{
    std::printf("--- frame %llu (cluster, %zu nodes) ------------------\n",
                static_cast<unsigned long long>(frame),
                ports.size());
    std::printf("%-10s %12s %10s %7s %12s %12s %12s %10s\n", "node",
                "req/s", "fences/op", "conns", "get p99(us)",
                "set p99(us)", "repl batch/s", "flush");
    double tot_rps = 0, tot_conns = 0, tot_rep = 0;
    double worst_get = 0, worst_set = 0;
    for (size_t i = 0; i < cur.size(); ++i) {
        const auto& c = cur[i];
        const auto& p = prev[i];
        const double req_delta =
            get(c, "net.requests") - get(p, "net.requests");
        const double fence_delta =
            get(c, "persist.fences") - get(p, "persist.fences");
        const double rep_delta = get(c, "cluster.replica.batches")
                                 - get(p, "cluster.replica.batches");
        const double rps = dt_s > 0 ? req_delta / dt_s : 0.0;
        const double reps = dt_s > 0 ? rep_delta / dt_s : 0.0;
        const double g99 = get(c, "net.lat.req.get.p99_ns") / 1e3;
        const double s99 = get(c, "net.lat.req.set.p99_ns") / 1e3;
        std::printf(":%-9u %12.0f %10.2f %7.0f %12.1f %12.1f %12.0f"
                    " %10s\n",
                    ports[i], rps,
                    req_delta > 0 ? fence_delta / req_delta : 0.0,
                    get(c, "net.conns"), g99, s99, reps, flush_insn_of(c));
        tot_rps += rps;
        tot_conns += get(c, "net.conns");
        tot_rep += reps;
        worst_get = std::max(worst_get, g99);
        worst_set = std::max(worst_set, s99);
    }
    std::printf("%-10s %12.0f %10s %7.0f %12.1f %12.1f %12.0f %10s\n",
                "TOTAL", tot_rps, "-", tot_conns, worst_get, worst_set,
                tot_rep, "-");
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: ido_top --port=N[,N,...] [--host=127.0.0.1]\n"
                 "               [--interval-ms=1000] [--frames=0] "
                 "[--raw]\n"
                 "(host must be 127.0.0.1; the admin endpoint only "
                 "binds loopback)\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<uint16_t> ports;
    uint64_t interval_ms = 1000;
    uint64_t frames = 0;
    bool raw = false;
    std::string host = "127.0.0.1";

    for (int i = 1; i < argc; ++i) {
        std::string val;
        if (parse_flag(argv[i], "--port", &val)) {
            size_t at = 0;
            while (at <= val.size()) {
                const size_t comma = val.find(',', at);
                const std::string tok = val.substr(
                    at, comma == std::string::npos ? std::string::npos
                                                   : comma - at);
                const uint64_t p =
                    std::strtoull(tok.c_str(), nullptr, 10);
                if (p == 0 || p > 65535)
                    return usage();
                ports.push_back(static_cast<uint16_t>(p));
                if (comma == std::string::npos)
                    break;
                at = comma + 1;
            }
        } else if (parse_flag(argv[i], "--host", &val))
            host = val;
        else if (parse_flag(argv[i], "--interval-ms", &val))
            interval_ms = std::strtoull(val.c_str(), nullptr, 10);
        else if (parse_flag(argv[i], "--frames", &val))
            frames = std::strtoull(val.c_str(), nullptr, 10);
        else if (std::strcmp(argv[i], "--raw") == 0)
            raw = true;
        else
            return usage();
    }
    if (ports.empty() || host != "127.0.0.1")
        return usage();

    std::vector<std::map<std::string, double>> prev(ports.size());
    auto t_prev = std::chrono::steady_clock::now();
    for (uint64_t frame = 0; frames == 0 || frame < frames; ++frame) {
        if (frame != 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(interval_ms));
        std::vector<std::map<std::string, double>> cur(ports.size());
        for (size_t n = 0; n < ports.size(); ++n) {
            std::string body;
            if (!net::admin_http_get(ports[n], "/stats.json", &body)) {
                std::fprintf(stderr,
                             "ido_top: GET 127.0.0.1:%u/stats.json "
                             "failed\n",
                             ports[n]);
                return 1;
            }
            if (raw) {
                std::printf("%s\n", body.c_str());
                std::fflush(stdout);
                continue;
            }
            scan_numbers(body, &cur[n]);
        }
        if (raw)
            continue;
        const auto t_now = std::chrono::steady_clock::now();
        const double dt_s = frame == 0
                                ? 0.0
                                : std::chrono::duration<double>(
                                      t_now - t_prev)
                                      .count();
        if (ports.size() == 1)
            render(cur[0], prev[0], dt_s, frame);
        else
            render_cluster(cur, prev, ports, dt_s, frame);
        prev.swap(cur);
        t_prev = t_now;
    }
    return 0;
}
