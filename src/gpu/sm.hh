/**
 * @file
 * Streaming multiprocessor timing model: resident warps, greedy
 * round-robin warp scheduling with a configurable issue width, an
 * LSU that injects one coalesced transaction per cycle, per-SM L1,
 * and an MSHR-style cap on outstanding load transactions.
 *
 * The scheduling hot path keeps the per-warp fields tick() actually
 * reads — blockedUntil, pc, computeLeft, instruction count — in
 * parallel packed arrays (SoA) beside 64-bit ready/done masks, so a
 * serviced cycle walks a handful of cache lines instead of a vector
 * of fat Warp structs. Blocked slots wait in tick-ordered wake
 * buckets, so waking them costs one compare per cycle, and retired
 * warps' buffers are recycled into the next warp. A reference scan
 * path (`SmIssuePath`) keeps the straightforward linear loop alive as
 * an equivalence oracle.
 */

#ifndef SCUSIM_GPU_SM_HH
#define SCUSIM_GPU_SM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/kernel.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "sim/clocked.hh"
#include "sim/tick_queue.hh"
#include "stats/stats.hh"

namespace scusim::sim
{
class Simulation;
}

namespace scusim::trace
{
class TraceChannel;
}

namespace scusim::gpu
{

/**
 * Builds the next warp for an SM, or returns false when the kernel
 * has no more warps for it. Supplied by the Gpu dispatcher.
 */
using WarpSource = std::function<bool(Warp &out)>;

/**
 * Which issue-scan implementation tick() runs. Both produce
 * byte-identical stats and tick trajectories; `Reference` is the
 * plain linear scan kept as the equivalence oracle for the mask
 * path (`sm_equiv_test` pits them against each other).
 */
enum class SmIssuePath
{
    SoaMasked, ///< ctz walk over readyMask & ~doneMask (default)
    Reference, ///< linear rotated scan testing every resident slot
};

class StreamingMultiprocessor : public sim::Clocked
{
  public:
    /**
     * Resident-slot capacity of the mask machinery: one bit per slot
     * in a 64-bit word. Both modeled systems resolve
     * maxResidentWarps() to 64 (2048 threads / 32-wide warps); the
     * constructor rejects configs that exceed the mask width.
     */
    static constexpr unsigned kMaxWarpSlots = 64;
    static_assert(kMaxWarpSlots <= 64,
                  "ready/done masks are single 64-bit words");

    StreamingMultiprocessor(const GpuParams &params, unsigned id,
                            mem::MemLevel *shared_mem,
                            stats::StatGroup *parent,
                            sim::Simulation *sim = nullptr);

    /** Attach the warp source and per-kernel stats sink for a launch. */
    void beginKernel(WarpSource source, KernelStats *sink);

    /** Detach after a launch completes; invalidates the L1. */
    void endKernel(Tick now);

    void tick(Tick now) override;
    bool busy(Tick now) const override;
    Tick nextWakeTick() const override;

    mem::Cache &l1() { return l1Cache; }

    double activeCycles() const { return smActiveCycles.value(); }

    /** Bind this SM's trace channel (non-owning, null detaches). */
    void setTraceChannel(trace::TraceChannel *c) { traceChan = c; }

    /** The issue path this SM resolved at construction. */
    SmIssuePath issuePath() const { return path; }

    /**
     * Issue path new SMs use: the override if set, else SoaMasked.
     */
    static SmIssuePath defaultIssuePath();
    /** Process-wide override (tests); survives until cleared. */
    static void overrideDefaultIssuePath(SmIssuePath path);
    static void clearDefaultIssuePathOverride();

  private:
    /**
     * Cold per-warp state the issue scan never touches. A body stays
     * in the `bodies` pool for the SM's lifetime; when its warp
     * retires, its buffers wait, index on `spare`, until refill hands
     * them, cleared, to the next warp.
     */
    struct WarpBody
    {
        std::vector<WarpInstr> instrs;
        std::vector<Addr> addrs;
        unsigned threads = 0;
    };

    /** The blocked slots that wake at tick @p at. */
    struct WakeBucket
    {
        Tick at = 0;
        std::uint64_t slots = 0;
    };

    /**
     * Move the slots of every wake bucket due at or before @p now into
     * readyMask. One compare while the earliest bucket is still in
     * the future — the wholly-blocked rejection that keeps
     * stall-adjacent ticks off the warp arrays entirely.
     */
    void advanceReady(Tick now);

    /** Record that blocked slot @p s wakes at tick @p at. */
    void addWake(std::size_t s, Tick at);

    /** Earliest wake over the blocked slots (tickNever when none). */
    Tick
    blockedMin() const
    {
        return wake.empty() ? tickNever : wake.back().at;
    }

    /**
     * Issue slot @p s's current instruction. The caller guarantees
     * the slot is ready and not done; mask/wake-bucket bookkeeping for
     * the slot's new blockedUntil happens here.
     */
    void issueSlot(std::size_t s, Tick now);

    /**
     * Execute a memory warp instruction whose lane addresses are
     * @p lanes; returns block-until tick.
     */
    Tick executeMem(const WarpInstr &wi, std::span<const Addr> lanes,
                    Tick now);

    /**
     * Remove the slots of @p retire, preserving the relative order of
     * the survivors (an order-preserving two-pointer compaction — a
     * swap-with-back would permute round-robin issue order and break
     * the byte-identical-stats mandate; see DESIGN). The retired
     * slots' bodies go back on `spare`.
     */
    void compactRetired(std::uint64_t retire);

    /**
     * Pull new warps from the source while slots are free, building
     * each into a spare body's buffers.
     */
    void refill();

    /** The mask issue scan (default path). */
    void tickSoa(Tick now);
    /** The linear reference scan (equivalence oracle). */
    void tickReference(Tick now);

    const GpuParams &p;
    unsigned smId;
    mem::MemLevel *sharedMem; ///< L2 side (atomics bypass the L1)
    sim::Simulation *simPtr;  ///< for fault-injector lookups (may
                              ///< be null in unit tests)
    mem::Cache l1Cache;
    SmIssuePath path;

    /** Recompute wakeCache (blockedMin folded with the ready slots). */
    void recomputeWake();

    WarpSource warpSource;
    KernelStats *kstats = nullptr;

    /**
     * Resident warps in SoA layout, index = slot. `wBody[s]` names
     * the slot's cold half (instruction and address buffers, thread
     * count) in `bodies`; the packed arrays below are everything the
     * per-cycle scan reads, so the scan streams over ~n*16 bytes
     * instead of n fat structs. Invariants (outside tick()):
     *  - readyMask bit s set  ⇔ wBlocked[s] <= some past now (ticks
     *    are monotone, so ready slots never revert on their own);
     *  - doneMask bit s set   ⇔ wPc[s] >= wNumInstrs[s];
     *  - `wake` is sorted by strictly decreasing tick, so the
     *    earliest wake is at the back; its masks are disjoint, their
     *    union is exactly the slots NOT in readyMask, and each slot
     *    sits in the bucket whose tick is its wBlocked;
     *  - masks never carry bits >= wBody.size();
     *  - `wBody` and `spare` together hold each index of `bodies`
     *    exactly once.
     */
    std::vector<std::uint8_t> wBody;
    std::vector<Tick> wBlocked;
    std::vector<std::uint32_t> wPc;
    std::vector<std::uint32_t> wComputeLeft;
    std::vector<std::uint32_t> wNumInstrs;
    std::uint64_t readyMask = 0;
    std::uint64_t doneMask = 0;
    std::vector<WakeBucket> wake;
    /**
     * maxResidentWarps() bodies, allocated once. Their buffers keep
     * their capacity across warps and kernels, so a steady-state
     * kernel allocates nothing.
     */
    std::vector<WarpBody> bodies;
    std::vector<std::uint8_t> spare; ///< free `bodies` indices (LIFO)

    std::size_t rrCursor = 0;
    bool sourceDry = true;
    /**
     * Min blockedUntil over resident warps (tickNever when none),
     * maintained at the end of every tick()/refill() so busy() and
     * nextWakeTick() are O(1) instead of rescanning the warp list
     * twice per serviced cycle — the simulator's hottest reads.
     */
    Tick wakeCache = tickNever;

    Tick lsuFree = 0;
    sim::TickQueue outstandingLoads;
    std::vector<Addr> txnScratch;
    trace::TraceChannel *traceChan = nullptr;
    std::size_t mshrHighWater = 0; ///< outstanding-load FIFO peak
                                   ///< (per kernel; reset on
                                   ///< endKernel)

    stats::StatGroup grp;
    stats::Scalar smActiveCycles;
    stats::Scalar issuedInstrs;
    stats::Scalar issueStallCycles;
};

} // namespace scusim::gpu

#endif // SCUSIM_GPU_SM_HH
