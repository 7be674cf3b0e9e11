/**
 * @file
 * Set-associative, write-back, write-allocate cache timing model with
 * banked tag/data arrays, MSHR-limited miss parallelism and in-flight
 * miss merging. Used for the per-SM L1s and the shared, banked L2.
 *
 * The model is tag-only: functional data lives in host arrays (see
 * mem/address_space.hh); the cache tracks presence, dirtiness and
 * resource occupancy to produce completion ticks and activity counts.
 * Line state is held in flat per-cache arrays indexed by
 * set * ways + way; DESIGN.md ("Cache and SCU-window timing") gives
 * the in-flight fill rules.
 */

#ifndef SCUSIM_MEM_CACHE_HH
#define SCUSIM_MEM_CACHE_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"
#include "mem/request.hh"
#include "sim/tick_queue.hh"
#include "stats/stats.hh"

namespace scusim::mem
{

/** Configuration of one cache level. */
struct CacheParams
{
    std::string name = "l2";
    std::uint64_t sizeBytes = 2 << 20;
    unsigned lineBytes = 128;
    unsigned ways = 16;
    unsigned banks = 16;      ///< parallel tag/data banks
    Tick hitLatency = 28;     ///< cycles from issue to data on a hit
    Tick bankCycle = 1;       ///< bank occupancy per access
    Tick atomicExtra = 4;     ///< extra occupancy for read-modify-write
    unsigned mshrs = 128;     ///< max misses in flight
};

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
        // Held as the tag range whose line addresses fall inside
        // [base, base + bytes).
        protLo = bytes ? divCeil(base, p.lineBytes) : 0;
        protHi = bytes ? divCeil(base + bytes, p.lineBytes) : 0;
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
    /** Tag of an empty way; no line address maps to it. */
    static constexpr std::uint64_t invalidTag = ~std::uint64_t{0};

    /** Reserve a bank slot; returns the tick the access starts. */
    Tick reserveBank(Tick issue, std::uint64_t tag, Tick occupancy);

    /** Block until an MSHR is free; returns the adjusted start tick. */
    Tick acquireMshr(Tick start);

    /**
     * Bring a line in from downstream and install it (dirty if
     * @p is_dirty); returns the fill-complete tick. When every way
     * of the set is pinned the line bypasses the cache.
     */
    Tick fill(Tick start, std::uint64_t tag, std::size_t set_base,
              unsigned bytes, bool is_dirty);

    /**
     * Empty slot @p i: write it back if dirty and, if its fill is
     * still tracked, stash the fill tick by tag.
     */
    void evict(Tick start, std::size_t i);

    /** Install @p tag in slot @p i (pending-fill tick @p ready). */
    void install(std::size_t i, std::uint64_t tag, bool is_dirty,
                 Tick ready);

    /** Forget every tracked fill that completed by @p issue. */
    void purgeReady(Tick issue);

    bool
    isProtected(std::uint64_t tag) const
    {
        return tag - protLo < protHi - protLo;
    }

    CacheParams p;
    MemLevel *next;
    unsigned numSets;
    unsigned lineShift;
    FixedDivisor setDiv;
    FixedDivisor bankDiv;

    /** Per-slot line state, slot = set * ways + way. */
    std::vector<std::uint64_t> tags;
    std::vector<Tick> lastUse;
    /**
     * Completion tick of the fill that brought the line in, 0 once a
     * hit at or after it (or a purge) has retired it. A hit before it
     * waits for the fill (secondary miss merged into the MSHR).
     */
    std::vector<Tick> readyAt;
    std::vector<std::uint8_t> dirty;
    std::vector<Tick> bankFree;

    /** Completion ticks of outstanding misses (MSHR occupancy). */
    sim::TickQueue outstanding;
    /**
     * Tracked fill ticks of lines evicted before their fill was
     * retired, by tag; a write-validate allocation of the tag
     * inherits it. Holds no resident tag.
     */
    std::unordered_map<std::uint64_t, Tick> evictedPending;
    Tick lruClock = 0;
    std::uint64_t accessesSincePurge = 0;
    /** Protected (way-locked) tags: [protLo, protHi). */
    std::uint64_t protLo = 0;
    std::uint64_t protHi = 0;

    stats::StatGroup grp;
    stats::Scalar hits, misses, writebacks, atomicOps;
    stats::Scalar mshrStallCycles;
};

} // namespace scusim::mem

#endif // SCUSIM_MEM_CACHE_HH
