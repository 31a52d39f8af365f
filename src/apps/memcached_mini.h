/**
 * @file
 * memcached_mini: a lock-based in-memory KV cache modeled on the
 * memcached 1.2.4 code base the paper evaluates (Sec. V-A).
 *
 * Structure: a small, fixed number of shards (1.2.4 guards the whole
 * cache with one lock; a handful of coarse shards reproduces its
 * "scales only to eight threads" behaviour), each holding an
 * open-chaining hash table plus an intrusive LRU list.  SET walks the
 * chain and either updates in place or allocates+links a new item
 * (hash head + LRU head + count -- several stores spread over a few
 * idempotent regions, which is why ~30% of memcached's dynamic regions
 * have multiple stores, Fig. 8).  GET is a read-only critical section.
 *
 * Keys are 16 bytes (two u64 words) and values 8 bytes, exactly the
 * memaslap configuration of the paper.
 */
#pragma once

#include <cstdint>

#include "common/cacheline.h"
#include "runtime/fase_program.h"
#include "runtime/runtime.h"

namespace ido::apps {

struct alignas(kCacheLineBytes) McShard
{
    uint64_t lock_holder;
    uint64_t pad0[7];
    uint64_t nbuckets;
    uint64_t lru_head;
    uint64_t lru_tail;
    uint64_t count;
    uint64_t pad1[4];
    // nbuckets u64 bucket heads follow.
};

struct McItem
{
    uint64_t next; ///< hash-chain link
    uint64_t key_lo;
    uint64_t key_hi;
    uint64_t value;
    uint64_t lru_next;
    uint64_t lru_prev;
    uint64_t pad[2];
};

static_assert(sizeof(McItem) == kCacheLineBytes);

struct alignas(kCacheLineBytes) McRoot
{
    uint64_t nshards;
    uint64_t shard_off[7]; ///< up to 7 shards (coarse by design)
};

class MemcachedMini
{
  public:
    /** Create the cache; nshards <= 7, nbuckets a power of two. */
    static uint64_t create(rt::RuntimeThread& th, uint64_t nshards,
                           uint64_t nbuckets);

    MemcachedMini(nvm::PersistentHeap& heap, uint64_t root_off);

    /** SET: insert or update (failure-atomic). */
    void set(rt::RuntimeThread& th, uint64_t key_lo, uint64_t key_hi,
             uint64_t value);

    /** GET: returns true and fills *value if present. */
    bool get(rt::RuntimeThread& th, uint64_t key_lo, uint64_t key_hi,
             uint64_t* value);

    /** DELETE: returns true if the key was present. */
    bool del(rt::RuntimeThread& th, uint64_t key_lo, uint64_t key_hi);

    uint64_t root_off() const { return root_off_; }
    uint64_t nshards() const { return nshards_; }

    /**
     * Index of the McShard owning this key: which shard's lock and
     * buckets a request for it uses.
     */
    uint64_t shard_index(uint64_t key_lo, uint64_t key_hi) const;

    /** Items across all shards (quiescent state only). */
    static uint64_t size(nvm::PersistentHeap& heap, uint64_t root_off);

    /** Hash chains and LRU lists structurally sound. */
    static bool check_invariants(nvm::PersistentHeap& heap,
                                 uint64_t root_off);

    static const rt::FaseProgram& set_program();
    static const rt::FaseProgram& get_program();
    static const rt::FaseProgram& del_program();

    /** Register the memcached FASEs (idempotent). */
    static void register_programs();

  private:
    std::pair<uint64_t, uint64_t>
    locate(uint64_t key_lo, uint64_t key_hi) const;

    uint64_t root_off_;
    uint64_t nshards_;
    uint64_t nbuckets_;
    uint64_t shard_off_[7];
};

} // namespace ido::apps
