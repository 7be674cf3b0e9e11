#include "reference_cache.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"
#include "sim/check.hh"

namespace scusim::mem::reference
{

Cache::Cache(const CacheParams &params, MemLevel *downstream,
             stats::StatGroup *parent)
    : p(params), next(downstream),
      numSets(static_cast<unsigned>(
          p.sizeBytes / (static_cast<std::uint64_t>(p.lineBytes) *
                         p.ways))),
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
    sets.assign(numSets, std::vector<Line>(p.ways));
    bankFree.assign(std::max(1u, p.banks), 0);
}

unsigned
Cache::setIndex(Addr line_addr) const
{
    // Hash the set index so power-of-two strides (CSR offsets, hash
    // table rows) do not pathologically alias.
    return static_cast<unsigned>(
        mixBits(line_addr / p.lineBytes) % numSets);
}

Tick
Cache::reserveBank(Tick issue, Addr line_addr, Tick occupancy)
{
    unsigned bank = static_cast<unsigned>(
        (line_addr / p.lineBytes) % bankFree.size());
    Tick start = std::max(issue, bankFree[bank]);
    bankFree[bank] = start + occupancy;
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

Tick
Cache::fill(Tick start, Addr line_addr, std::vector<Line> &set,
            std::uint64_t tag, unsigned set_idx, unsigned bytes)
{
    (void)set_idx;
    // Victim selection: LRU among the ways; lines in the protected
    // (way-locked) region are only victimized by protected fills.
    const bool filler_protected = isProtected(line_addr);
    Line *victim = nullptr;
    for (auto &l : set) {
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (!filler_protected && isProtected(l.tag * p.lineBytes))
            continue;
        if (!victim || l.lastUse < victim->lastUse)
            victim = &l;
    }
    if (!victim) {
        // Every way is pinned: service downstream without
        // allocating.
        MemResult down = next->access(start, line_addr,
                                      AccessKind::Read, p.lineBytes);
        sim::checkMemCompletion("cache downstream", start,
                                down.complete);
        outstanding.push(down.complete);
        return down.complete;
    }
    if (victim->valid && victim->dirty) {
        // Write back the victim. The requester does not wait for it;
        // it only consumes downstream bandwidth.
        Addr victim_addr = victim->tag * p.lineBytes;
        next->access(start, victim_addr, AccessKind::Write,
                     p.lineBytes);
        ++writebacks;
    }

    MemResult down = next->access(start, line_addr, AccessKind::Read,
                                  bytes);
    sim::checkMemCompletion("cache downstream", start, down.complete);
    victim->tag = tag;
    victim->valid = true;
    victim->dirty = false;
    victim->lastUse = ++lruClock;

    Tick done = down.complete;
    outstanding.push(done);
    inflight[line_addr] = done;
    return done;
}

MemResult
Cache::access(Tick issue, Addr addr, AccessKind kind, unsigned bytes)
{
    (void)bytes;
    const Addr line_addr = alignDown(addr, p.lineBytes);
    const std::uint64_t tag = line_addr / p.lineBytes;
    const unsigned set_idx = setIndex(line_addr);
    auto &set = sets[set_idx];

    Tick occupancy = p.bankCycle +
        (kind == AccessKind::Atomic ? p.atomicExtra : 0);
    Tick start = reserveBank(issue, line_addr, occupancy);

    // Keep the in-flight merge table from growing without bound.
    if (++accessesSincePurge >= 8192) {
        accessesSincePurge = 0;
        std::erase_if(inflight, [issue](const auto &kv) {
            return kv.second <= issue;
        });
    }

    if (kind == AccessKind::Atomic)
        ++atomicOps;

    const bool is_write = kind == AccessKind::Write ||
                          kind == AccessKind::WriteNoAlloc;
    const bool is_read = kind == AccessKind::Read ||
                         kind == AccessKind::ReadNoAlloc;

    // Tag lookup.
    for (auto &l : set) {
        if (l.valid && l.tag == tag) {
            l.lastUse = ++lruClock;
            if (!is_read)
                l.dirty = true;
            ++hits;
            MemResult r;
            r.hit = true;
            // A hit on a line whose fill is still in flight waits for
            // the fill (secondary miss merged into the MSHR).
            Tick avail = start + p.hitLatency;
            auto it = inflight.find(line_addr);
            if (it != inflight.end()) {
                if (it->second > start)
                    avail = std::max(avail, it->second);
                else
                    inflight.erase(it);
            }
            r.complete = is_write ? start + 1 : avail;
            return r;
        }
    }

    // Miss.
    ++misses;

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
        // ownership traffic is generated.
        Line *victim = &set[0];
        for (auto &l : set) {
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (l.lastUse < victim->lastUse)
                victim = &l;
        }
        if (victim->valid && victim->dirty) {
            next->access(start, victim->tag * p.lineBytes,
                         AccessKind::Write, p.lineBytes);
            ++writebacks;
        }
        victim->tag = tag;
        victim->valid = true;
        victim->dirty = true;
        victim->lastUse = ++lruClock;
        MemResult wr;
        wr.hit = false;
        wr.complete = start + 1;
        return wr;
    }

    start = acquireMshr(start);
    Tick fill_done = fill(start, line_addr, set, tag, set_idx, bytes);

    // Mark dirtiness after the fill installed the line.
    if (!is_read) {
        for (auto &l : set) {
            if (l.valid && l.tag == tag) {
                l.dirty = true;
                break;
            }
        }
    }

    MemResult r;
    r.hit = false;
    r.complete = is_write ? start + 1 : fill_done + p.hitLatency;
    sim::checkMemCompletion(p.name.c_str(), issue, r.complete);
    return r;
}

void
Cache::invalidateAll(Tick now)
{
    for (auto &set : sets) {
        for (auto &l : set) {
            // Timing model only: dirty data is not lost functionally,
            // but the writeback traffic must be accounted.
            if (l.valid && l.dirty) {
                next->access(now, l.tag * p.lineBytes,
                             AccessKind::Write, p.lineBytes);
                ++writebacks;
            }
            l = Line{};
        }
    }
    inflight.clear();
}

} // namespace scusim::mem::reference
