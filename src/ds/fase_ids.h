/**
 * @file
 * Stable FASE identifiers.
 *
 * recovery_pc persists a (fase_id, region) pair across crashes, so ids
 * must be stable across program runs -- they are assigned here once,
 * centrally, exactly as a compiler would assign stable indices into a
 * recovery table emitted alongside the binary.
 */
#pragma once

#include <cstdint>

namespace ido::ds {

enum FaseId : uint32_t
{
    kFaseStackPush = 1,
    kFaseStackPop,
    kFaseQueueEnqueue,
    kFaseQueueDequeue,
    kFaseListInsert,
    kFaseListRemove,
    kFaseListLookup,
    kFaseMemcachedSet,
    // 9 was memcached.get, now a validated read and no FASE; the ids
    // after it keep their values.
    kFaseMemcachedDelete = kFaseMemcachedSet + 2,
    kFaseRedisSet,
    kFaseRedisGet,
    kFaseBankTransfer,
    kFaseKvPut,
    kFaseKvDelete,
};

/** Register every data-structure and app FASE with the FaseRegistry.
 *  Idempotent; call at process start and before any recovery. */
void register_all_programs();

} // namespace ido::ds
