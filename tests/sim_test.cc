/**
 * @file
 * Unit tests for the simulation kernel: clock domain conversions and
 * the fast-forwarding run loop.
 */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "sim/clock.hh"
#include "sim/clocked.hh"
#include "sim/simulation.hh"

using namespace scusim;
using namespace scusim::sim;

TEST(ClockDomain, SecondsConversion)
{
    ClockDomain c(1e9);
    EXPECT_DOUBLE_EQ(c.toSeconds(1000000000), 1.0);
    EXPECT_EQ(c.fromNs(10.0), 10u);
    EXPECT_EQ(c.fromNs(10.5), 11u); // rounds up
}

TEST(ClockDomain, BandwidthCycles)
{
    ClockDomain c(1e9);
    // 128 bytes at 12.8 GB/s = 10 ns = 10 cycles.
    EXPECT_EQ(c.cyclesForBytes(128, 12.8e9), 10u);
}

namespace
{

/** A component busy for the first N ticks it is ticked. */
class CountdownClocked : public Clocked
{
  public:
    explicit CountdownClocked(int n) : remaining(n) {}

    void tick(Tick) override { --remaining; ++ticked; }
    bool busy(Tick) const override { return remaining > 0; }

    int remaining;
    int ticked = 0;
};

/** Idle component that wakes once at a fixed tick. */
class SleeperClocked : public Clocked
{
  public:
    explicit SleeperClocked(Tick at) : wake(at) {}

    void
    tick(Tick now) override
    {
        if (now >= wake)
            done = true;
    }

    bool
    busy(Tick now) const override
    {
        return !done && now >= wake;
    }

    Tick
    nextWakeTick() const override
    {
        return done ? tickNever : wake;
    }

    Tick wake;
    bool done = false;
};

/** Wakes at a fixed tick, runs for a fixed number of ticks. */
class Sleeper : public Clocked
{
  public:
    Sleeper(Tick wake, Tick ticks) : wakeAt(wake), left(ticks) {}

    void
    tick(Tick) override
    {
        if (left) {
            --left;
            noteProgress();
        }
    }

    bool busy(Tick now) const override
    {
        return left && now >= wakeAt;
    }

    Tick
    nextWakeTick() const override
    {
        return left ? wakeAt : tickNever;
    }

    Tick wakeAt;
    Tick left;
};

/**
 * Busy over a list of [from, to) windows, consumed in order. Logs
 * (tick, id) on every tick() and every tick busy() is asked about.
 */
class WindowLogger : public Clocked
{
  public:
    using Log = std::vector<std::pair<Tick, int>>;

    WindowLogger(int id, std::deque<std::pair<Tick, Tick>> windows,
                 Log &ticked, std::set<Tick> &asked)
        : id(id), windows(std::move(windows)), ticked(ticked),
          asked(asked)
    {
    }

    void
    tick(Tick now) override
    {
        ticked.emplace_back(now, id);
        if (now + 1 >= windows.front().second)
            windows.pop_front();
    }

    bool
    busy(Tick now) const override
    {
        asked.insert(now);
        return !windows.empty() && now >= windows.front().first;
    }

    Tick
    nextWakeTick() const override
    {
        return windows.empty() ? tickNever : windows.front().first;
    }

  private:
    int id;
    std::deque<std::pair<Tick, Tick>> windows;
    Log &ticked;
    std::set<Tick> &asked;
};

} // namespace

TEST(Simulation, RunsClockedUntilDrained)
{
    Simulation s;
    CountdownClocked c(5);
    s.addClocked(&c);
    s.run();
    EXPECT_EQ(c.ticked, 5);
    EXPECT_EQ(c.remaining, 0);
}

TEST(Simulation, FastForwardsIdleGaps)
{
    Simulation s;
    SleeperClocked sleeper(1000000);
    s.addClocked(&sleeper);
    Tick elapsed = s.run();
    // The loop must jump, not crawl: elapsed covers the gap and the
    // component fired at its wake tick.
    EXPECT_TRUE(sleeper.done);
    EXPECT_GE(elapsed, 1000000u);
    EXPECT_LE(elapsed, 1000002u);
}

TEST(Simulation, FastForwardsToTheEarliestOfSeveralWakes)
{
    Simulation s;
    Sleeper a(1000000, 3), b(500, 2);
    s.addClocked(&a, "a");
    s.addClocked(&b, "b");
    s.run();
    EXPECT_EQ(a.left, 0u);
    EXPECT_EQ(b.left, 0u);
    // Wake at 1000000, three busy ticks, done after the third.
    EXPECT_EQ(s.now(), 1000003u);
}

TEST(Simulation, WorkGivenBetweenRunsIsPickedUp)
{
    // The loop caches no wake ticks, so work handed to an idle
    // component between runs (the way Sm::beginKernel hands a launch
    // to an SM) is seen by the next run().
    Simulation s;
    Sleeper a(0, 1);
    s.addClocked(&a, "a");
    s.run();
    EXPECT_EQ(s.now(), 1u);

    a.wakeAt = s.now() + 100;
    a.left = 2;
    s.run();
    EXPECT_EQ(a.left, 0u);
    EXPECT_EQ(s.now(), 103u);
}

TEST(Simulation, TicksBusyComponentsInRegistrationOrder)
{
    // Components share the memory system within a tick, so the order
    // they are ticked in is part of the model. #0 and #2 both wake at
    // 10 and again at 40; #1 stays busy through [12, 30), where the
    // other two are idle. Nothing is busy in [4, 10) or [30, 40).
    WindowLogger::Log ticked;
    std::set<Tick> asked;
    WindowLogger c0(0, {{10, 12}, {40, 41}}, ticked, asked);
    WindowLogger c1(1, {{2, 4}, {11, 30}}, ticked, asked);
    WindowLogger c2(2, {{10, 11}, {40, 42}}, ticked, asked);
    Simulation s;
    s.addClocked(&c0);
    s.addClocked(&c1);
    s.addClocked(&c2);
    s.run();
    EXPECT_EQ(s.now(), 42u);

    WindowLogger::Log want = {{2, 1},  {3, 1},  {10, 0},
                              {10, 2}, {11, 0}, {11, 1}};
    for (Tick t = 12; t < 30; ++t)
        want.emplace_back(t, 1);
    want.insert(want.end(), {{40, 0}, {40, 2}, {41, 2}});
    EXPECT_EQ(ticked, want);

    // The loop asks about the first tick of an all-idle gap, finds
    // everyone idle and jumps to the next wake: no later tick of the
    // gap is serviced, so none is even asked about.
    for (Tick t = 5; t < 10; ++t)
        EXPECT_EQ(asked.count(t), 0u) << "serviced idle tick " << t;
    for (Tick t = 31; t < 40; ++t)
        EXPECT_EQ(asked.count(t), 0u) << "serviced idle tick " << t;
}

TEST(Simulation, AdvanceToOnlyMovesForward)
{
    Simulation s;
    s.advanceTo(50);
    EXPECT_EQ(s.now(), 50u);
    s.advanceTo(150);
    EXPECT_EQ(s.now(), 150u);
    // Going backwards is a no-op.
    s.advanceTo(10);
    EXPECT_EQ(s.now(), 150u);
}

TEST(Simulation, StepAdvancesExactly)
{
    Simulation s;
    s.step(7);
    EXPECT_EQ(s.now(), 7u);
}
