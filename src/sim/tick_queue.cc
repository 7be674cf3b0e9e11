#include "sim/tick_queue.hh"

#include <functional>
#include <utility>

namespace scusim::sim
{

void
TickQueue::clear()
{
    for (std::size_t s = 0; s < summary.size(); ++s) {
        for (std::uint64_t sm = summary[s]; sm; sm &= sm - 1) {
            const std::size_t w = s * 64 + ctz64(sm);
            for (std::uint64_t m = bits[w]; m; m &= m - 1)
                counts[w * 64 + ctz64(m)] = 0;
            bits[w] = 0;
        }
        summary[s] = 0;
    }
    heap.clear();
    heapMin = tickNever;
    ringMin = tickNever;
    ringMax = 0;
    ringSize = 0;
    count = 0;
}

void
TickQueue::pushSlow(Tick key)
{
    const Tick lo = std::min(ringMin, key);
    const Tick hi = std::max(ringMax, key);
    if (hi - lo > mask && hi - lo < maxSpan)
        grow(hi - lo);
    if (hi - lo > mask || counts[key & mask] == maxCount) {
        heapPush(key);
        return;
    }
    ringMin = lo;
    ringMax = hi;
    place(key);
}

void
TickQueue::popHeap()
{
    heapPop();
    refill();
}

void
TickQueue::advance(std::size_t i)
{
    if (!bits[i >> 6])
        summary[i >> 12] &= ~bit(i >> 6);
    if (ringSize == 0) {
        ringMin = tickNever;
        ringMax = 0;
        return;
    }
    // Every live slot lies in a later word or, past the wrap, below
    // i in its own word.
    const std::size_t next = nextLiveFrom(((i >> 6) + 1) & wordMask);
    ringMin += (next - i) & mask;
}

std::size_t
TickQueue::nextLiveFrom(std::size_t w) const
{
    for (;;) {
        const std::size_t s = w >> 6;
        const std::uint64_t sm = summary[s] & (allOnes << (w & 63));
        if (sm) {
            const std::size_t live = s * 64 + ctz64(sm);
            return live * 64 + ctz64(bits[live]);
        }
        w = ((s + 1) * 64) & wordMask;
    }
}

void
TickQueue::grow(Tick range)
{
    std::size_t n = span();
    while (n <= range)
        n *= 2;
    std::vector<std::uint8_t> oldCounts(std::move(counts));
    std::vector<std::uint64_t> oldBits(std::move(bits));
    const std::size_t oldMask = mask;
    resize(n);
    const Tick base = ringMin;
    const std::size_t baseSlot = base & oldMask;
    for (std::size_t w = 0; w < oldBits.size(); ++w) {
        for (std::uint64_t m = oldBits[w]; m; m &= m - 1) {
            const std::size_t i = w * 64 + ctz64(m);
            const Tick key = base + ((i - baseSlot) & oldMask);
            const std::size_t j = key & mask;
            counts[j] = oldCounts[i];
            bits[j >> 6] |= bit(j);
            summary[j >> 12] |= bit(j >> 6);
        }
    }
}

void
TickQueue::resize(std::size_t n)
{
    counts.assign(n, 0);
    bits.assign(n / 64, 0);
    summary.assign(divCeil(n / 64, 64), 0);
    mask = n - 1;
    wordMask = n / 64 - 1;
}

void
TickQueue::heapPush(Tick key)
{
    heap.push_back(key);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    heapMin = heap.front();
}

void
TickQueue::heapPop()
{
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
    heapMin = heap.empty() ? tickNever : heap.front();
}

void
TickQueue::refill()
{
    while (heapMin != tickNever) {
        const Tick key = heapMin;
        const Tick lo = std::min(ringMin, key);
        const Tick hi = std::max(ringMax, key);
        if (hi - lo > mask || counts[key & mask] == maxCount)
            return;
        ringMin = lo;
        ringMax = hi;
        heapPop();
        place(key);
    }
}

} // namespace scusim::sim
