/**
 * @file
 * Death tests for the SCUSIM_CHECK invariant layer (sim/check.hh).
 * Each test drives a real component into a contract violation and
 * asserts the checked build panics. In unchecked builds the layer is
 * compiled out, so every test skips (the checks' *absence* there is
 * itself part of the contract: Release timing runs pay nothing).
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/request.hh"
#include "scu/hash_table.hh"
#include "sim/check.hh"
#include "sim/clocked.hh"
#include "stats/stats.hh"

using namespace scusim;

namespace
{

#define SKIP_UNLESS_CHECKED()                                           \
    do {                                                                \
        if (!sim::checksEnabled)                                        \
            GTEST_SKIP() << "SCUSIM_CHECK not compiled in";             \
    } while (0)

struct NullClocked : sim::Clocked
{
    void tick(Tick) override {}
    bool busy(Tick) const override { return false; }
};

TEST(CheckDeath, ClockedTickMustBeMonotonic)
{
    SKIP_UNLESS_CHECKED();
    NullClocked c;
    c.noteTick(10);
    c.noteTick(10); // same tick twice is fine
    EXPECT_DEATH(c.noteTick(9), "ticked backwards");
}

/** A memory level whose completions travel backwards in time. */
struct BrokenLevel : mem::MemLevel
{
    mem::MemResult
    access(Tick issue, Addr, mem::AccessKind, unsigned) override
    {
        return {issue - 10, true};
    }
};

TEST(CheckDeath, MemCompletionNeverPrecedesIssue)
{
    SKIP_UNLESS_CHECKED();
    BrokenLevel broken;
    stats::StatGroup root("t");
    mem::Cache c(mem::CacheParams{}, &broken, &root);
    // A cold read misses and fills from the broken downstream.
    EXPECT_DEATH(c.access(100, 0, mem::AccessKind::Read, 4),
                 "precedes issue tick");
}

TEST(CheckDeath, HashSetIndexStaysInBounds)
{
    SKIP_UNLESS_CHECKED();
    mem::AddressSpace as(1ULL << 28);
    scu::UniqueFilterTable t({4096, 4, 4}, as, "h");
    EXPECT_EQ(t.setAddr(0), t.baseAddr());
    EXPECT_DEATH(t.setAddr(t.numSets()), "out of");
}

TEST(CheckDeath, OccupancyAboveCapacityPanics)
{
    SKIP_UNLESS_CHECKED();
    // The grouping table's public API can never overfill a group —
    // which is exactly why the invariant exists: it guards against
    // future refactors of the eviction path. Exercise the check
    // directly at its boundary.
    sim::checkOccupancy("scu hash group", 8, 8);
    EXPECT_DEATH(sim::checkOccupancy("scu hash group", 9, 8),
                 "overfull");
}

TEST(CheckDeath, FifoCreditDriftPanics)
{
    SKIP_UNLESS_CHECKED();
    // Balanced books at every occupancy are fine...
    sim::checkFifoCredits("BoundedFifo", 8, 3, 5);
    sim::checkFifoCredits("BoundedFifo", 0, 0, 0);
    // ...a consumer ahead of its producer lost a credit...
    EXPECT_DEATH(sim::checkFifoCredits("BoundedFifo", 3, 4, 0),
                 "credit drift");
    // ...and books that do not match the queue duplicated one.
    EXPECT_DEATH(sim::checkFifoCredits("BoundedFifo", 8, 3, 4),
                 "credit drift");
}

TEST(CheckDeath, CoalescerWindowBoundsPanic)
{
    SKIP_UNLESS_CHECKED();
    // A warp's lanes merge into [1, lanes] transactions.
    sim::checkCoalesceBounds(32, 1);
    sim::checkCoalesceBounds(32, 32);
    sim::checkCoalesceBounds(0, 0);
    // Fabricated traffic: more transactions than lanes.
    EXPECT_DEATH(sim::checkCoalesceBounds(4, 5), "out of bounds");
    // Lost traffic: active lanes produced no transaction at all.
    EXPECT_DEATH(sim::checkCoalesceBounds(4, 0), "out of bounds");
}

TEST(Check, PassingChecksAreSilent)
{
    // Valid in both checked and unchecked builds.
    sim::checkMemCompletion("l2", 10, 10);
    sim::checkTickMonotonic("sm", 7, 7);
    sim::checkOccupancy("fifo", 0, 8);
    sim_check(1 + 1 == 2, "arithmetic broke");
    SUCCEED();
}

} // namespace
