/**
 * @file
 * Compile-time-gated runtime invariant layer for the simulator's
 * hardware-modeling contracts. Enabled with -DSCUSIM_CHECK=ON (and
 * automatically in every sanitizer build); compiled out entirely
 * otherwise, so Release timing runs pay nothing.
 *
 * The checks encode contracts that, when silently violated, corrupt
 * results rather than crash: a memory completion before its issue
 * travels backwards in time through every downstream latency
 * computation, a ClockedObject ticked non-monotonically is usually a
 * component shared between two Simulations (a determinism bug under
 * the parallel executor), and an overfull SCU hash group corrupts the
 * grouping traffic model. A violated check panics (aborts), which is
 * what the tier-1 death tests in tests/check_test.cc assert.
 */

#ifndef SCUSIM_SIM_CHECK_HH
#define SCUSIM_SIM_CHECK_HH

#include <cstddef>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

#ifdef SCUSIM_CHECK
#define SCUSIM_CHECK_ENABLED 1
#else
#define SCUSIM_CHECK_ENABLED 0
#endif

/**
 * Assert a simulator invariant. Active only in checked builds, but
 * the condition must always compile so checks cannot bitrot. A
 * violation is classified FailureKind::Invariant: it aborts
 * standalone (death tests) and throws SimError under the executor's
 * error trap (see common/sim_error.hh).
 */
#if SCUSIM_CHECK_ENABLED
#define sim_check(cond, ...)                                            \
    do {                                                                \
        if (!(cond))                                                    \
            sim_invariant(__VA_ARGS__);                                 \
    } while (0)
#else
#define sim_check(cond, ...)                                            \
    do {                                                                \
        if (false) {                                                    \
            (void)(cond);                                               \
        }                                                               \
    } while (0)
#endif

namespace scusim::sim
{

/** Whether the invariant layer is compiled in (for tests to skip). */
constexpr bool checksEnabled = SCUSIM_CHECK_ENABLED != 0;

/**
 * Memory-timing contract: an access completes at or after the tick
 * it was issued. @p who names the level for the diagnostic.
 */
inline void
checkMemCompletion([[maybe_unused]] const char *who, Tick issue,
                   Tick complete)
{
    sim_check(complete >= issue,
              "%s: completion tick %llu precedes issue tick %llu",
              who, static_cast<unsigned long long>(complete),
              static_cast<unsigned long long>(issue));
}

/**
 * Clocked contract: tick() is driven with non-decreasing time. A
 * violation almost always means one component is registered with two
 * Simulations at once.
 */
inline void
checkTickMonotonic([[maybe_unused]] const char *what, Tick now,
                   Tick last)
{
    sim_check(now >= last,
              "%s ticked backwards: now=%llu < last tick %llu",
              what, static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(last));
}

/**
 * Bounded-structure contract: occupancy never exceeds capacity
 * (SCU hash groups, FIFOs sized from Table 2).
 */
inline void
checkOccupancy([[maybe_unused]] const char *what,
               std::size_t occupancy, std::size_t capacity)
{
    sim_check(occupancy <= capacity,
              "%s overfull: %zu entries in capacity %zu", what,
              occupancy, capacity);
}

/**
 * FIFO credit-accounting contract: the number of elements popped
 * never exceeds the number pushed, and the difference equals the
 * queue's occupancy. A drift means a producer and a consumer
 * disagree about back-pressure credits — the hardware analogue loses
 * or duplicates flow-control credits and hangs.
 */
inline void
checkFifoCredits([[maybe_unused]] const char *what,
                 std::uint64_t pushes, std::uint64_t pops,
                 std::size_t occupancy)
{
    sim_check(pops <= pushes && pushes - pops == occupancy,
              "%s credit drift: %llu pushes - %llu pops != %zu "
              "occupancy",
              what, static_cast<unsigned long long>(pushes),
              static_cast<unsigned long long>(pops), occupancy);
}

/**
 * Coalescing-window contract: merging a warp's lane addresses can
 * produce at most one transaction per lane, and at least one when
 * any lane is active. Outside those bounds the coalescer fabricated
 * or lost traffic, corrupting every bandwidth-derived metric.
 */
inline void
checkCoalesceBounds(std::size_t lanes, std::size_t txns)
{
    sim_check(txns <= lanes && (lanes == 0 || txns >= 1),
              "coalescer window out of bounds: %zu lanes merged "
              "into %zu transactions",
              lanes, txns);
}

} // namespace scusim::sim

#endif // SCUSIM_SIM_CHECK_HH
