/**
 * @file
 * sim::TickQueue against std::priority_queue in lockstep: top() and
 * size() must agree after every operation, for any push order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hh"
#include "sim/tick_queue.hh"

using namespace scusim;
using sim::TickQueue;

namespace
{

/** A TickQueue and the binary heap it must match. */
struct Lockstep
{
    TickQueue q;
    std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>> pq;

    void
    check() const
    {
        ASSERT_EQ(q.size(), pq.size());
        ASSERT_EQ(q.empty(), pq.empty());
        if (!pq.empty()) {
            ASSERT_EQ(q.top(), pq.top());
        }
    }

    void
    push(Tick key)
    {
        q.push(key);
        pq.push(key);
        check();
    }

    Tick
    pop()
    {
        const Tick key = pq.top();
        pq.pop();
        q.pop();
        check();
        return key;
    }

    void
    drain()
    {
        while (!pq.empty())
            pop();
    }

    void
    clear()
    {
        q.clear();
        pq = {};
        check();
    }
};

/** Push @p n keys drawn by @p draw, popping with probability @p p. */
template <typename Draw>
void
churn(Lockstep &ls, Rng &rng, int n, double p, Draw draw)
{
    for (int i = 0; i < n; ++i) {
        if (!ls.pq.empty() && rng.chance(p))
            ls.pop();
        else
            ls.push(draw());
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace

TEST(TickQueue, DuplicatesPopOneAtATime)
{
    Lockstep ls;
    for (int i = 0; i < 5; ++i)
        ls.push(100);
    ls.push(99);
    ls.push(101);
    ls.drain();
    EXPECT_TRUE(ls.q.empty());
}

TEST(TickQueue, MoreDuplicatesThanASlotCounts)
{
    // A slot counts 255 keys; the rest of a run of equal keys waits
    // in the heap and moves back as the slot drains.
    Lockstep ls;
    for (int i = 0; i < 700; ++i) {
        ls.push(5000);
        if (i % 3 == 0)
            ls.push(4990 + i % 20);
    }
    for (int i = 0; i < 300; ++i)
        ls.pop();
    for (int i = 0; i < 300; ++i)
        ls.push(5000 + i % 2);
    ls.drain();
    EXPECT_TRUE(ls.q.empty());
}

TEST(TickQueue, PushBelowTheRingGoesToTheHeap)
{
    Lockstep ls;
    const Tick base = Tick{1} << 40;
    ls.push(base + 10);
    ls.push(base + 20);
    // Far below the ring and far beyond it: both too wide to share
    // the ring with the keys already in it.
    ls.push(base - (Tick{1} << 30));
    ls.push(base + (Tick{1} << 30));
    EXPECT_EQ(ls.q.top(), base - (Tick{1} << 30));
    ls.push(base + 15);
    ls.drain();
}

TEST(TickQueue, RingDoublesWhileKeysAreLive)
{
    Lockstep ls;
    const std::size_t start = ls.q.span();
    for (Tick k = 1000; k < 1000 + start; k += 37)
        ls.push(k);
    // A key one span past the smallest live key forces a doubling;
    // the keys re-filed by it must come out in order.
    ls.push(1000 + start);
    EXPECT_EQ(ls.q.span(), 2 * start);
    ls.push(1000 + 5 * start);
    EXPECT_EQ(ls.q.span(), 8 * start);
    ls.push(999);
    ls.drain();
}

TEST(TickQueue, PushPastTheCeilingIsStillExact)
{
    Lockstep ls;
    Rng rng(11);
    ls.push(0);
    // Doubles up to the ceiling, then overflows to the heap.
    for (Tick k = 1; k < (Tick{1} << 24); k = k * 3 + rng.below(7))
        ls.push(k);
    const std::size_t ceiling = ls.q.span();
    EXPECT_LT(ceiling, std::size_t{1} << 24);
    ls.push(Tick{1} << 40);
    EXPECT_EQ(ls.q.span(), ceiling);
    // Pops slide the ring up; heap keys move back in once they fit.
    ls.drain();
}

TEST(TickQueue, WrapsRoundTheRing)
{
    // A narrow sliding band whose ticks cross many multiples of the
    // ring span; the ring must never grow.
    Lockstep ls;
    Rng rng(5);
    Tick t = ls.q.span() - 50;
    for (int i = 0; i < 200000 && !HasFatalFailure(); ++i) {
        while (!ls.pq.empty() && ls.pq.top() <= t)
            ls.pop();
        ls.push(t + 1 + rng.below(900));
        t += rng.below(4);
    }
    EXPECT_EQ(ls.q.span(), TickQueue().span());
    ls.drain();
}

TEST(TickQueue, ClearThenReuse)
{
    Lockstep ls;
    Rng rng(3);
    for (int round = 0; round < 6 && !HasFatalFailure(); ++round) {
        const Tick base = rng.below(Tick{1} << 50);
        churn(ls, rng, 5000, 0.3,
              [&] { return base + rng.below(1u << (8 + 2 * round)); });
        if (round % 2)
            ls.push(base + (Tick{1} << 35)); // leave a heap key too
        ls.clear();
        EXPECT_TRUE(ls.q.empty());
    }
}

/**
 * Mixed key shapes: a band, duplicates, keys far below and far
 * beyond the live ones, and band jumps that leave every key behind.
 */
TEST(TickQueue, MatchesBinaryHeapOnRandomOperations)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        Lockstep ls;
        Tick band = rng.below(Tick{1} << 32);
        Tick last = band;
        for (int i = 0; i < 60000 && !HasFatalFailure(); ++i) {
            const double r = rng.uniform();
            if (!ls.pq.empty() && r < 0.45) {
                ls.pop();
                continue;
            }
            Tick key;
            if (r < 0.75)
                key = band + rng.below(3000);
            else if (r < 0.85)
                key = last; // duplicate
            else if (r < 0.90)
                key = band - std::min(band, rng.below(Tick{1} << 22));
            else if (r < 0.95)
                key = band + rng.below(Tick{1} << 22);
            else if (r < 0.99)
                key = band + rng.below(1u << 17);
            else
                key = band += rng.below(Tick{1} << 20);
            ls.push(key);
            last = key;
            band += rng.below(3);
        }
        ls.drain();
    }
}

/**
 * The cache's MSHR pattern (mem::Cache::acquireMshr): issue ticks
 * that are not monotone, a purge of every key <= start, a pop of the
 * minimum when all MSHRs are busy, and a push of the completion.
 */
TEST(TickQueue, MatchesBinaryHeapOnMshrAcquires)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        const std::size_t mshrs = 8 + rng.below(256);
        Lockstep ls;
        Tick now = rng.below(Tick{1} << 20);
        for (int i = 0; i < 40000 && !HasFatalFailure(); ++i) {
            now += rng.below(3);
            // Requesters lag the newest issue tick by up to 400.
            Tick start = now - std::min(now, rng.below(400));
            while (!ls.pq.empty() && ls.pq.top() <= start)
                ls.pop();
            if (ls.pq.size() >= mshrs)
                start = ls.pop();
            Tick latency = 200 + rng.below(600);
            if (rng.chance(0.001))
                latency += rng.below(Tick{1} << 16); // queueing spike
            ls.push(start + latency);
        }
        ls.drain();
    }
}
