#include "net/group_commit.h"

#include <mutex>

#include "fuzz/rr.h"
#include "stats/metrics.h"
#include "trace/trace.h"

namespace ido::net {

GroupCommit::GroupCommit(uint64_t shard_index) : shard_index_(shard_index)
{
}

void
GroupCommit::run_batch(const std::vector<ShardJob>& jobs, const Exec& exec,
                       std::vector<ShardReply>* out)
{
    if (jobs.empty())
        return;
    static std::atomic<uint64_t>& batches =
        *MetricsRegistry::instance().counter("net.group.batches");
    static std::atomic<uint64_t>& requests =
        *MetricsRegistry::instance().counter("net.group.requests");
    batches.fetch_add(1, std::memory_order_relaxed);
    requests.fetch_add(jobs.size(), std::memory_order_relaxed);

    const auto do_batch = [&] {
        trace::emit(trace::EventKind::kGroupOpen, shard_index_);
        for (const ShardJob& job : jobs) {
            ShardReply r;
            r.conn_id = job.conn_id;
            r.seq = job.seq;
            r.data = exec(job);
            out->push_back(std::move(r));
        }
        trace::emit(trace::EventKind::kGroupClose, shard_index_,
                    jobs.size());
    };

    if (!fuzz::rr::active()) [[likely]] {
        do_batch();
        return;
    }
    // ido-fuzz: under record/replay the whole batch becomes one
    // recorded sync op on a single global kNetBatch object, so the
    // *cross-shard* interleaving of group-commit batches is captured
    // and replayed bit-for-bit.  A per-shard key would only pin each
    // shard's own program order, which replay gets for free; the
    // global turn is what makes a multi-worker schedule deterministic.
    static std::mutex net_batch_mu;
    fuzz::rr::OrderedGuard g(net_batch_mu,
                             fuzz::obj_key(fuzz::ObjKind::kNetBatch));
    do_batch();
}

} // namespace ido::net
