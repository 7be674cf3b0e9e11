/**
 * @file
 * Test-only reference: the map-based cache timing model that
 * mem::Cache replaced, kept verbatim apart from its namespace. It
 * merges in-flight fills through an unordered_map keyed by line
 * address with an 8192-access purge. cache_oracle_test drives it and
 * mem::Cache in lockstep and requires identical results and stats.
 */

#ifndef SCUSIM_TESTS_REFERENCE_CACHE_HH
#define SCUSIM_TESTS_REFERENCE_CACHE_HH

#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/request.hh"
#include "stats/stats.hh"

namespace scusim::mem::reference
{

/**
 * One cache level. Misses propagate to the @p downstream level given
 * at construction.
 */
class Cache : public MemLevel
{
  public:
    Cache(const CacheParams &params, MemLevel *downstream,
          stats::StatGroup *parent);

    MemResult access(Tick issue, Addr addr, AccessKind kind,
                     unsigned bytes) override;

    /** Drop all lines (kernel-boundary behaviour for L1s). */
    void invalidateAll(Tick now);

    /**
     * Pin an address range (way-locking): lines inside it are never
     * victimized by fills from outside it. Used for the SCU's
     * in-memory hash tables, which are sized to stay L2 resident
     * (Table 2). Pass bytes = 0 to clear.
     */
    void
    setProtectedRegion(Addr base, std::uint64_t bytes)
    {
        protBase = base;
        protBytes = bytes;
    }

    const CacheParams &params() const { return p; }

    double numHits() const { return hits.value(); }
    double numMisses() const { return misses.value(); }

    double
    hitRate() const
    {
        double t = hits.value() + misses.value();
        return t > 0 ? hits.value() / t : 0;
    }

    /** Total accesses (reads+writes+atomics), for energy accounting. */
    double numAccesses() const { return hits.value() + misses.value(); }
    double numWritebacks() const { return writebacks.value(); }

  private:
    struct Line
    {
        std::uint64_t tag = static_cast<std::uint64_t>(-1);
        bool valid = false;
        bool dirty = false;
        Tick lastUse = 0;
    };

    /** Reserve a bank slot; returns the tick the access starts. */
    Tick reserveBank(Tick issue, Addr line_addr, Tick occupancy);

    /** Block until an MSHR is free; returns the adjusted start tick. */
    Tick acquireMshr(Tick start);

    /** Bring a line in from downstream; returns fill-complete tick. */
    Tick fill(Tick start, Addr line_addr, std::vector<Line> &set,
              std::uint64_t tag, unsigned set_idx, unsigned bytes);

    unsigned setIndex(Addr line_addr) const;

    CacheParams p;
    MemLevel *next;
    unsigned numSets;
    std::vector<std::vector<Line>> sets;
    std::vector<Tick> bankFree;

    /** Completion ticks of outstanding misses (MSHR occupancy). */
    std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>>
        outstanding;
    /** In-flight line fills, for secondary-miss merging. */
    std::unordered_map<Addr, Tick> inflight;
    Tick lruClock = 0;
    std::uint64_t accessesSincePurge = 0;
    Addr protBase = 0;
    std::uint64_t protBytes = 0;

    bool
    isProtected(Addr a) const
    {
        return protBytes && a >= protBase &&
               a < protBase + protBytes;
    }

    stats::StatGroup grp;
    stats::Scalar hits, misses, writebacks, atomicOps;
    stats::Scalar mshrStallCycles;
};

} // namespace scusim::mem::reference

#endif // SCUSIM_TESTS_REFERENCE_CACHE_HH
