/**
 * @file
 * Nanosecond-scale busy wait.
 *
 * The Fig. 9 sensitivity study charges a configurable delay "looping with
 * nops" per write-back to nonvolatile memory, as done by Mnemosyne and
 * Atlas.  A sleep would be far too coarse (and would yield
 * the core, perturbing the scalability measurements), so we spin on a
 * pause loop until a steady-clock deadline.  Nothing is calibrated, so
 * the wait never falls short however the machine's speed drifts.
 */
#pragma once

#include <cstdint>

namespace ido {

/** Busy-wait at least ns nanoseconds. ns == 0 returns immediately. */
void spin_delay_ns(uint64_t ns);

} // namespace ido
