/**
 * @file
 * Monotone min-priority queue of ticks: a radix heap (Ahuja,
 * Mehlhorn, Orlin, Tarjan, "Faster algorithms for the shortest path
 * problem", JACM 1990).
 *
 * Keys live in 65 buckets by the highest bit in which they differ
 * from the floor, the last popped key: bucket 0 holds keys equal to
 * it, bucket b keys whose highest differing bit is b - 1. Every key
 * of a lower bucket is smaller than every key of a higher one, so the
 * minimum sits in the lowest non-empty bucket. A pop that finds
 * bucket 0 empty moves the floor to that bucket's minimum and spreads
 * its keys over the buckets below. Each key moves down at most 64
 * times.
 *
 * The contract that buys this: a pushed key is never below the
 * floor. A per-bucket minimum makes top() a const peek, so a caller
 * may look at the minimum, decide not to pop it, and still push keys
 * between the floor and that minimum.
 */

#ifndef SCUSIM_SCU_RADIX_QUEUE_HH
#define SCUSIM_SCU_RADIX_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <memory>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace scusim::scu
{

class RadixQueue
{
  public:
    /**
     * A queue of at most @p capacity keys. Each bucket owns a
     * capacity-sized slice of one allocation; a slice's pages become
     * resident only as far as that bucket ever fills.
     */
    explicit RadixQueue(std::size_t capacity)
        : cap(capacity),
          keys(std::make_unique_for_overwrite<Tick[]>(numBuckets *
                                                      capacity))
    {
        clear();
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return cap; }

    /** Smallest key; the queue must not be empty. */
    Tick
    top() const
    {
        return lens[0] ? floor : mins[lowestUpper()];
    }

    void
    push(Tick key)
    {
        panic_if(count >= cap, "radix queue over its capacity %zu", cap);
        panic_if(key < floor,
                 "radix queue push %llu below its floor %llu",
                 static_cast<unsigned long long>(key),
                 static_cast<unsigned long long>(floor));
        occupied |= place(key, floor);
        ++count;
    }

    /** Remove the smallest key; the queue must not be empty. */
    void
    pop()
    {
        if (!lens[0]) {
            // Move the floor to the lowest bucket's minimum and spread
            // that bucket over the buckets below it.
            const unsigned b = lowestUpper();
            const Tick f = mins[b];
            std::uint64_t occ = occupied & (occupied - 1);
            const Tick *spill = &keys[b * cap];
            const std::size_t n = lens[b];
            for (std::size_t i = 0; i < n; ++i)
                occ |= place(spill[i], f);
            lens[b] = 0;
            mins[b] = noKey;
            occupied = occ;
            floor = f;
        }
        --lens[0];
        --count;
    }

    /** Empty the queue and reset its floor. */
    void
    clear()
    {
        lens.fill(0);
        mins.fill(noKey);
        occupied = 0;
        floor = 0;
        count = 0;
    }

  private:
    static constexpr unsigned numBuckets = 65;
    static constexpr Tick noKey = ~Tick{0};

    /** Lowest non-empty bucket above 0; one must exist. */
    unsigned lowestUpper() const { return ctz64(occupied) + 1; }

    /**
     * File @p key by its highest bit differing from floor @p f;
     * returns the occupancy bit of the bucket it joined (0 for
     * bucket 0, which the occupancy word does not track).
     */
    std::uint64_t
    place(Tick key, Tick f)
    {
        const unsigned b =
            static_cast<unsigned>(std::bit_width(key ^ f));
        keys[b * cap + lens[b]++] = key;
        if (b == 0)
            return 0;
        mins[b] = std::min(mins[b], key);
        return std::uint64_t{1} << (b - 1);
    }

    std::size_t cap;
    /** Bucket b holds keys[b * cap, b * cap + lens[b]). */
    std::unique_ptr<Tick[]> keys;
    std::array<std::size_t, numBuckets> lens;
    /** Minimum key of each bucket above 0; noKey when empty. */
    std::array<Tick, numBuckets> mins;
    /** Bit b - 1 set when bucket b (b >= 1) is non-empty. */
    std::uint64_t occupied = 0;
    /** Last popped key; no key in the queue is below it. */
    Tick floor = 0;
    std::size_t count = 0;
};

} // namespace scusim::scu

#endif // SCUSIM_SCU_RADIX_QUEUE_HH
