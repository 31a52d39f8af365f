/**
 * @file
 * Structured recovery timeline (ido-stat).
 *
 * Recovery after a fail-stop is the event the whole system exists for,
 * and until now its only record was trace events inside the ring
 * buffers.  The timeline captures a durable, queryable summary of the
 * most recent attach/recover: ordered phases with wall time and a
 * detail count each (leak reclaim, log scan, FASE resumption), plus
 * headline fields (FASEs resumed, locks reacquired, flush/fence
 * traffic).  ido_serve exposes it on the admin endpoint (/recovery)
 * and drops a recovery_timeline.json artifact into IDO_TRACE_DIR; the
 * kill -9 harness and CI assert it is present and non-empty after a
 * crash restart.
 *
 * Process-global singleton: exactly one recovery runs per attach, and
 * consumers (admin endpoint, tests) read it long after.  All methods
 * take an internal mutex; none are hot-path.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ido {

class RecoveryTimeline
{
  public:
    static RecoveryTimeline& instance();

    /** Begin a new timeline (discards any previous one).
     *  `trigger` is "crash" or "clean". */
    void start(const std::string& trigger);

    /** Count `ns` of work done for this recovery before start() (the
     *  allocator's attach census) into the wall time. */
    void backdate(uint64_t ns);

    /** Append a completed phase: wall time + one detail count. */
    void add_phase(const std::string& name, uint64_t dur_ns,
                   uint64_t detail = 0);

    /** Set/overwrite a headline numeric field (fases_resumed, ...). */
    void set_field(const std::string& key, uint64_t value);

    /** Close the timeline; stamps total wall time. */
    void finish();

    /** True once a finished timeline exists. */
    bool recorded() const;

    /** {"trigger":..,"wall_ns":..,"phases":[{..}],"fields":{..}} --
     *  {"recorded":false} before the first finish(). */
    std::string to_json() const;

    /** Fold headline numbers into MetricsRegistry (recovery.*). */
    void publish_metrics() const;

    /** Write to_json() to <dir>/recovery_timeline.json; true on ok. */
    bool write_file(const std::string& dir) const;

  private:
    RecoveryTimeline() = default;

    struct Phase
    {
        std::string name;
        uint64_t dur_ns;
        uint64_t detail;
    };

    mutable std::mutex mu_;
    bool recorded_ = false;
    bool open_ = false;
    std::string trigger_;
    uint64_t start_ns_ = 0;
    uint64_t wall_ns_ = 0;
    std::vector<Phase> phases_;
    std::vector<std::pair<std::string, uint64_t>> fields_;
};

} // namespace ido
