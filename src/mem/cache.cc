#include "mem/cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/check.hh"

namespace scusim::mem
{

Cache::Cache(const CacheParams &params, MemLevel *downstream,
             stats::StatGroup *parent)
    : p(params), next(downstream),
      numSets(static_cast<unsigned>(
          p.sizeBytes / (static_cast<std::uint64_t>(p.lineBytes) *
                         p.ways))),
      lineShift(floorLog2(p.lineBytes)),
      setDiv(std::max(1u, numSets)),
      bankDiv(std::max(1u, p.banks)),
      grp(p.name, parent),
      hits(&grp, "hits", "accesses serviced by this level"),
      misses(&grp, "misses", "accesses forwarded downstream"),
      writebacks(&grp, "writebacks", "dirty evictions"),
      atomicOps(&grp, "atomics", "read-modify-write operations"),
      mshrStallCycles(&grp, "mshr_stall_cycles",
                      "cycles accesses waited for a free MSHR")
{
    panic_if(numSets == 0, "cache '%s' smaller than one set",
             p.name.c_str());
    panic_if(!isPowerOf2(p.lineBytes), "line size must be 2^n");
    const std::size_t slots =
        static_cast<std::size_t>(numSets) * p.ways;
    tags.assign(slots, invalidTag);
    lastUse.assign(slots, 0);
    readyAt.assign(slots, 0);
    dirty.assign(slots, 0);
    bankFree.assign(std::max(1u, p.banks), 0);
}

Tick
Cache::reserveBank(Tick issue, std::uint64_t tag, Tick occupancy)
{
    Tick &free_at = bankFree[bankDiv.mod(tag)];
    Tick start = std::max(issue, free_at);
    free_at = start + occupancy;
    return start;
}

Tick
Cache::acquireMshr(Tick start)
{
    // Purge already-completed misses.
    while (!outstanding.empty() && outstanding.top() <= start)
        outstanding.pop();
    if (outstanding.size() >= p.mshrs) {
        Tick free_at = outstanding.top();
        outstanding.pop();
        mshrStallCycles += static_cast<double>(free_at - start);
        start = free_at;
    }
    return start;
}

void
Cache::evict(Tick start, std::size_t i)
{
    if (dirty[i]) {
        // Write back the victim. The requester does not wait for it;
        // it only consumes downstream bandwidth.
        next->access(start, tags[i] << lineShift, AccessKind::Write,
                     p.lineBytes);
        ++writebacks;
    }
    if (readyAt[i])
        evictedPending[tags[i]] = readyAt[i];
}

void
Cache::install(std::size_t i, std::uint64_t tag, bool is_dirty,
               Tick ready)
{
    tags[i] = tag;
    dirty[i] = is_dirty;
    lastUse[i] = ++lruClock;
    readyAt[i] = ready;
}

void
Cache::purgeReady(Tick issue)
{
    for (Tick &r : readyAt) {
        if (r <= issue)
            r = 0;
    }
    std::erase_if(evictedPending, [issue](const auto &kv) {
        return kv.second <= issue;
    });
}

Tick
Cache::fill(Tick start, std::uint64_t tag, std::size_t set_base,
            unsigned bytes, bool is_dirty)
{
    // Victim selection: the first empty way, else LRU among the
    // ways; lines in the protected (way-locked) region are only
    // victimized by protected fills.
    constexpr std::size_t noWay = ~std::size_t{0};
    const bool filler_protected = isProtected(tag);
    std::size_t victim = noWay;
    for (std::size_t i = set_base; i < set_base + p.ways; ++i) {
        if (tags[i] == invalidTag) {
            victim = i;
            break;
        }
        if (!filler_protected && isProtected(tags[i]))
            continue;
        if (victim == noWay || lastUse[i] < lastUse[victim])
            victim = i;
    }
    const Addr line_addr = tag << lineShift;
    if (victim == noWay) {
        // Every way is pinned: service downstream without
        // allocating.
        MemResult down = next->access(start, line_addr,
                                      AccessKind::Read, p.lineBytes);
        sim::checkMemCompletion("cache downstream", start,
                                down.complete);
        outstanding.push(down.complete);
        return down.complete;
    }
    if (tags[victim] != invalidTag)
        evict(start, victim);

    MemResult down = next->access(start, line_addr, AccessKind::Read,
                                  bytes);
    sim::checkMemCompletion("cache downstream", start, down.complete);
    // The fill supersedes any fill tick stashed for this tag.
    if (!evictedPending.empty())
        evictedPending.erase(tag);
    install(victim, tag, is_dirty, down.complete);
    outstanding.push(down.complete);
    return down.complete;
}

MemResult
Cache::access(Tick issue, Addr addr, AccessKind kind, unsigned bytes)
{
    const std::uint64_t tag = addr >> lineShift;
    // Hash the set index so power-of-two strides (CSR offsets, hash
    // table rows) do not pathologically alias.
    const std::size_t set_base =
        static_cast<std::size_t>(setDiv.mod(mixBits(tag))) * p.ways;

    Tick occupancy = p.bankCycle +
        (kind == AccessKind::Atomic ? p.atomicExtra : 0);
    Tick start = reserveBank(issue, tag, occupancy);

    // Keep the tracked fill ticks from outliving their use.
    if (++accessesSincePurge >= 8192) {
        accessesSincePurge = 0;
        purgeReady(issue);
    }

    if (kind == AccessKind::Atomic)
        ++atomicOps;

    const bool is_write = kind == AccessKind::Write ||
                          kind == AccessKind::WriteNoAlloc;
    const bool is_read = kind == AccessKind::Read ||
                         kind == AccessKind::ReadNoAlloc;

    // Tag lookup.
    for (std::size_t i = set_base; i < set_base + p.ways; ++i) {
        if (tags[i] != tag)
            continue;
        lastUse[i] = ++lruClock;
        if (!is_read)
            dirty[i] = 1;
        ++hits;
        MemResult r;
        r.hit = true;
        // A hit on a line whose fill is still in flight waits for
        // the fill (secondary miss merged into the MSHR); a hit at
        // or after it retires the fill tick.
        Tick avail = start + p.hitLatency;
        if (readyAt[i] > start)
            avail = std::max(avail, readyAt[i]);
        else
            readyAt[i] = 0;
        r.complete = is_write ? start + 1 : avail;
        return r;
    }

    // Miss.
    ++misses;
    const Addr line_addr = tag << lineShift;

    if (kind == AccessKind::WriteNoAlloc) {
        // Streaming store: forward downstream, keep the cache clean.
        next->access(start, line_addr, AccessKind::WriteNoAlloc,
                     p.lineBytes);
        MemResult wr;
        wr.hit = false;
        wr.complete = start + 1;
        return wr;
    }

    if (kind == AccessKind::ReadNoAlloc) {
        // Streaming load: no allocation — the requester tolerates
        // the full downstream latency (deep request FIFOs).
        start = acquireMshr(start);
        MemResult down = next->access(start, line_addr,
                                      AccessKind::ReadNoAlloc,
                                      p.lineBytes);
        outstanding.push(down.complete);
        MemResult rr;
        rr.hit = false;
        rr.complete = down.complete + p.hitLatency;
        return rr;
    }

    if (kind == AccessKind::Write) {
        // Write-validate: a line-granular store allocates the line
        // without fetching it (GPU L2 behaviour); no read-for-
        // ownership traffic is generated. The victim is plain LRU
        // (way-locking is not consulted), and the line inherits the
        // fill tick of an evicted copy still tracked.
        std::size_t victim = set_base;
        for (std::size_t i = set_base; i < set_base + p.ways; ++i) {
            if (tags[i] == invalidTag) {
                victim = i;
                break;
            }
            if (lastUse[i] < lastUse[victim])
                victim = i;
        }
        if (tags[victim] != invalidTag)
            evict(start, victim);
        Tick ready = 0;
        if (auto it = evictedPending.find(tag);
            it != evictedPending.end()) {
            ready = it->second;
            evictedPending.erase(it);
        }
        install(victim, tag, true, ready);
        MemResult wr;
        wr.hit = false;
        wr.complete = start + 1;
        return wr;
    }

    // Read or Atomic (which dirties the line): allocate through an
    // MSHR.
    start = acquireMshr(start);
    Tick fill_done = fill(start, tag, set_base, bytes, !is_read);

    MemResult r;
    r.hit = false;
    r.complete = fill_done + p.hitLatency;
    sim::checkMemCompletion(p.name.c_str(), issue, r.complete);
    return r;
}

void
Cache::invalidateAll(Tick now)
{
    for (std::size_t i = 0; i < tags.size(); ++i) {
        // Timing model only: dirty data is not lost functionally,
        // but the writeback traffic must be accounted.
        if (tags[i] != invalidTag && dirty[i]) {
            next->access(now, tags[i] << lineShift, AccessKind::Write,
                         p.lineBytes);
            ++writebacks;
        }
    }
    std::fill(tags.begin(), tags.end(), invalidTag);
    std::fill(lastUse.begin(), lastUse.end(), 0);
    std::fill(readyAt.begin(), readyAt.end(), 0);
    std::fill(dirty.begin(), dirty.end(), 0);
    evictedPending.clear();
}

} // namespace scusim::mem
