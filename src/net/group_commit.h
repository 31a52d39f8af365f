/**
 * @file
 * Group-commit batcher: a shard worker runs up to K pipelined requests
 * back to back and releases their replies together.
 *
 * Batching buys fewer wakeups, handoffs and reply syscalls, not fewer
 * fences.  Every iDO FASE is durable when it returns: its last store's
 * boundary already fenced the inactive recovery_pc, or the one word of
 * a one-word FASE, before the FASE released its locks (ido_runtime.h),
 * so there is nothing left for a batch-close fence to publish.  A
 * set-update pays its 1 fence at K=1 and K=16 alike.
 *
 * Durability contract (DESIGN.md Sec. 10): a reply follows a FASE that
 * is already durable.  Crashing mid-batch may lose *unacknowledged*
 * requests -- each either completes through recovery or vanishes
 * atomically -- but never an acknowledged one, and never corrupts the
 * cache.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/memc_protocol.h"

namespace ido::net {

/** One parsed request routed to a shard worker. */
struct ShardJob
{
    uint64_t conn_id = 0;
    uint64_t seq = 0; ///< per-connection sequence for in-order replies
    uint64_t t_enqueue_ns = 0; ///< stat_now_ns() at routing; 0 = untimed
    MemcRequest req;
};

/** The wire-ready reply for one job. */
struct ShardReply
{
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::string data;
};

class GroupCommit
{
  public:
    /** Executes one job, returning its wire reply. */
    using Exec = std::function<std::string(const ShardJob&)>;

    explicit GroupCommit(uint64_t shard_index);

    /**
     * Run every job in `jobs` (the caller bounds its size to the batch
     * limit), appending replies to `out`.  Every job's FASE is durable
     * on return, so the caller may release the replies to clients.
     * Never throws past a job -- exec must handle its own protocol
     * errors and reply accordingly.
     */
    void run_batch(const std::vector<ShardJob>& jobs, const Exec& exec,
                   std::vector<ShardReply>* out);

  private:
    uint64_t shard_index_;
};

} // namespace ido::net
