/**
 * @file
 * Min-multiset of ticks: a counted timing wheel (Varghese, Lauck,
 * "Hashed and hierarchical timing wheels", SOSP 1987) with a binary
 * heap for the keys the wheel cannot hold.
 *
 * The wheel is a power-of-two ring of per-tick counts; key k lives in
 * slot k mod span. The ring holds any set of keys whose range
 * (largest minus smallest) is below the span, so no two distinct live
 * keys share a slot, and the smallest live key plus a slot's distance
 * from it names the key of every live slot. A bit per slot, and a bit
 * per 64-slot word, find the next live slot after a pop.
 *
 * A push that would widen the ring's range to the span or more first
 * doubles the ring, re-filing its keys, up to a fixed ceiling. A key
 * that still does not fit goes to the heap, as does a key whose slot
 * already counts 255 keys (the counts are bytes, to keep a ring that
 * grew for a few far-apart keys small). top() is the smaller of the
 * ring's and the heap's minimum, so the queue is exact for any push
 * order. After every pop the heap's minimum moves back into the ring
 * if it now fits.
 *
 * The in-flight windows this serves (cache MSHRs, an SM's load
 * budget, the SCU's read window) keep their live ticks in a band a
 * few thousand ticks wide, so the heap stays empty and a push or pop
 * is a few word operations, inlined here; the rest is in
 * tick_queue.cc.
 */

#ifndef SCUSIM_SIM_TICK_QUEUE_HH
#define SCUSIM_SIM_TICK_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"
#include "sim/check.hh"

namespace scusim::sim
{

class TickQueue
{
  public:
    TickQueue() { resize(minSpan); }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Slots in the ring; it doubles, up to maxSpan, as needed. */
    std::size_t span() const { return counts.size(); }

    /** Smallest key; the queue must not be empty. */
    Tick top() const { return std::min(ringMin, heapMin); }

    /** Add @p key, which must be below tickNever. */
    void
    push(Tick key)
    {
        sim_check(key != tickNever, "tick queue push of tickNever");
        ++count;
        const Tick lo = std::min(ringMin, key);
        const Tick hi = std::max(ringMax, key);
        if (hi - lo > mask || counts[key & mask] == maxCount)
            [[unlikely]] {
            pushSlow(key);
            return;
        }
        ringMin = lo;
        ringMax = hi;
        place(key);
    }

    /** Remove one smallest key; the queue must not be empty. */
    void
    pop()
    {
        --count;
        if (heapMin < ringMin || ringSize == 0) [[unlikely]] {
            popHeap();
            return;
        }
        const std::size_t i = ringMin & mask;
        --ringSize;
        if (--counts[i] == 0) {
            std::uint64_t &word = bits[i >> 6];
            word &= ~bit(i);
            // The next live slot is most often in the same word.
            const std::uint64_t above = word & (allOnes << (i & 63));
            if (above)
                ringMin += ctz64(above) - (i & 63);
            else
                advance(i);
        }
        if (heapMin != tickNever) [[unlikely]]
            refill();
    }

    /**
     * Empty the queue, keeping the ring's span. Only live slots are
     * zeroed; they are found through the occupancy bits.
     */
    void clear();

  private:
    static constexpr std::size_t minSpan = std::size_t{1} << 12;
    static constexpr std::size_t maxSpan = std::size_t{1} << 18;
    static constexpr std::uint64_t allOnes = ~std::uint64_t{0};
    /** A slot holds at most this many keys; more go to the heap. */
    static constexpr std::uint8_t maxCount = 255;

    static constexpr std::uint64_t
    bit(std::size_t i)
    {
        return std::uint64_t{1} << (i & 63);
    }

    /** Count @p key in its slot; the ring bounds must admit it. */
    void
    place(Tick key)
    {
        const std::size_t i = key & mask;
        if (counts[i]++ == 0) {
            bits[i >> 6] |= bit(i);
            summary[i >> 12] |= bit(i >> 6);
        }
        ++ringSize;
    }

    /** push() of a key the ring cannot take as it is. */
    void pushSlow(Tick key);

    /** pop() of the heap's minimum. */
    void popHeap();

    /**
     * Move the ring's minimum on from just-emptied slot @p i, whose
     * word holds no live slot above it.
     */
    void advance(std::size_t i);

    /** First live slot in word @p w or after it, wrapping round. */
    std::size_t nextLiveFrom(std::size_t w) const;

    /** Double the ring until it spans @p range; re-file its keys. */
    void grow(Tick range);

    /** Allocate an empty ring of @p n slots, a power of two. */
    void resize(std::size_t n);

    void heapPush(Tick key);
    void heapPop();

    /** Move heap keys into the ring while the smallest one fits. */
    void refill();

    /** Keys per slot; slot = key & mask. */
    std::vector<std::uint8_t> counts;
    /** Bit i set while slot i holds a key. */
    std::vector<std::uint64_t> bits;
    /** Bit w set while bits[w] is non-zero. */
    std::vector<std::uint64_t> summary;
    std::size_t mask = 0;
    std::size_t wordMask = 0;

    /**
     * Smallest and largest key in the ring; tickNever and 0 when it
     * is empty, so that min/max with a new key give that key.
     */
    Tick ringMin = tickNever;
    Tick ringMax = 0;
    std::size_t ringSize = 0;

    /** Keys the ring cannot hold, as a min-heap. */
    std::vector<Tick> heap;
    /** heap.front(), or tickNever when the heap is empty. */
    Tick heapMin = tickNever;

    std::size_t count = 0;
};

} // namespace scusim::sim

#endif // SCUSIM_SIM_TICK_QUEUE_HH
