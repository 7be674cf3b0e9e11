/**
 * @file
 * The "device kernel" interface of the GPU timing model. A kernel
 * body runs once per warp and records, through a WarpRecorder, the
 * warp's instruction stream: compute-instruction counts and, for
 * every memory instruction, the exact simulated address of each
 * active lane. The host code around the launch computes the
 * functional result, so the timing model sees the addresses the real
 * algorithm would issue, with all of their (lack of) coalescing.
 *
 * A kernel whose lanes run the same op sequence, or that sequence
 * followed by one tail only some lanes run, is written directly as a
 * warp body: the tail is a lane mask. A kernel whose lanes diverge
 * in op kind or count mid-stream is written per thread against a
 * ThreadRecorder and adapted by perThread(), which merges the lanes'
 * op lists by position as the SIMT pipeline would.
 */

#ifndef SCUSIM_GPU_KERNEL_HH
#define SCUSIM_GPU_KERNEL_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"

namespace scusim::gpu
{

/** Execution phase a kernel belongs to, for Figure 1 attribution. */
enum class Phase
{
    Compaction, ///< stream compaction work (offloadable to the SCU)
    Processing, ///< the rest of the graph algorithm
};

/** One recorded per-thread operation. */
struct ThreadOp
{
    enum class Kind : std::uint8_t { Compute, Load, Store, Atomic };

    Kind kind;
    std::uint32_t count; ///< instructions (Compute) or bytes (mem ops)
    Addr addr;           ///< memory ops only
};

/** One warp-level instruction. */
struct WarpInstr
{
    ThreadOp::Kind kind = ThreadOp::Kind::Compute;
    std::uint32_t computeCount = 0;  ///< Compute: instructions
    std::uint32_t bytesPerLane = 4;  ///< mem ops
    /**
     * Mem ops: offset of this instruction's address slots in the
     * owning warp's `Warp::addrs` pool. Lane i's address is
     * addrs[addrBase + i] for i < Warp::threads; slots whose laneMask
     * bit is clear are don't-care. Compute ops leave it unused. The
     * coalescer consumes the (span, laneMask) pair directly.
     */
    std::uint32_t addrBase = 0;
    /** Active lanes of a mem op: bit i set means lane i participates. */
    std::uint64_t laneMask = 0;
};

/**
 * A warp as handed over by the dispatcher: instruction stream, the
 * address pool its memory instructions index, and initial pipeline
 * state. The SM unpacks it into its SoA arrays on refill; this struct
 * is the handoff/test-construction type, not the resident
 * representation. The SM hands the source a Warp whose vectors are
 * empty but may carry capacity recycled from a retired warp, so a
 * source appends to them rather than replacing them.
 */
struct Warp
{
    std::vector<WarpInstr> instrs;
    std::vector<Addr> addrs; ///< lane-address pool (see addrBase)
    std::size_t pc = 0;
    std::uint32_t computeLeft = 0; ///< remaining issues of current op
    Tick blockedUntil = 0;
    unsigned threads = 0; ///< active thread count (last warp may be
                          ///< partial)

    bool done() const { return pc >= instrs.size(); }
};

/**
 * Recorder handed to a kernel body for one warp of @p lanes threads
 * starting at @p first_tid, lane i being thread first_tid + i. Each
 * call appends one warp instruction to the Warp, and a memory
 * instruction also appends one address slot per lane. A memory call
 * takes the lanes' addresses, @p at, and a lane mask; lanes outside
 * the mask do not take part, and their slots hold 0. @p at is a
 * function from thread id to address, or a device array whose
 * element tid thread tid touches.
 */
class WarpRecorder
{
  public:
    /** Every lane the warp has. */
    static constexpr std::uint64_t allLanes = ~std::uint64_t{0};

    WarpRecorder(std::uint64_t first_tid, unsigned lanes, Warp &out)
        : first(first_tid), n(lanes), full(maskLow(lanes)), w(out)
    {
    }

    /** The lanes whose thread id satisfies @p pred. */
    template <class Pred>
    std::uint64_t
    lanesWhere(Pred &&pred) const
    {
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (pred(first + i))
                m |= std::uint64_t{1} << i;
        }
        return m;
    }

    /** @p count back-to-back ALU/control instructions on every lane;
     *  zero records nothing. */
    void
    compute(std::uint32_t count)
    {
        if (!count)
            return;
        WarpInstr wi;
        wi.computeCount = count;
        w.instrs.push_back(wi);
    }

    /** A global load of @p bytes per lane. */
    template <class At>
    void
    load(const At &at, std::uint32_t bytes = 4,
         std::uint64_t mask = allLanes)
    {
        access(ThreadOp::Kind::Load, at, bytes, mask);
    }

    /** A global (posted) store of @p bytes per lane. */
    template <class At>
    void
    store(const At &at, std::uint32_t bytes = 4,
          std::uint64_t mask = allLanes)
    {
        access(ThreadOp::Kind::Store, at, bytes, mask);
    }

    /** A read-modify-write performed at the L2 (atomicAdd/Min). */
    template <class At>
    void
    atomic(const At &at, std::uint32_t bytes = 4,
           std::uint64_t mask = allLanes)
    {
        access(ThreadOp::Kind::Atomic, at, bytes, mask);
    }

  private:
    /** Thread @p tid's address in @p at. */
    template <class At>
    static Addr
    addrOf(const At &at, std::uint64_t tid)
    {
        if constexpr (std::is_invocable_v<const At &, std::uint64_t>)
            return at(tid);
        else
            return at.addrOf(tid);
    }

    /** One memory instruction over the lanes of @p mask; an empty
     *  mask records nothing. A lane moves at least 4 bytes. */
    template <class At>
    void
    access(ThreadOp::Kind kind, const At &at, std::uint32_t bytes,
           std::uint64_t mask)
    {
        mask &= full;
        if (!mask)
            return;
        WarpInstr wi;
        wi.kind = kind;
        wi.bytesPerLane = std::max(bytes, 4u);
        wi.addrBase = static_cast<std::uint32_t>(w.addrs.size());
        wi.laneMask = mask;
        if (mask == full) {
            for (unsigned i = 0; i < n; ++i)
                w.addrs.push_back(addrOf(at, first + i));
        } else {
            for (unsigned i = 0; i < n; ++i)
                w.addrs.push_back(mask >> i & 1 ? addrOf(at, first + i)
                                                : Addr{0});
        }
        w.instrs.push_back(wi);
    }

    const std::uint64_t first;
    const unsigned n;
    const std::uint64_t full;
    Warp &w;
};

/**
 * Recorder handed to a per-thread body for one thread. Operations
 * are merged across the lanes of a warp by perThread().
 */
class ThreadRecorder
{
  public:
    /** @p n back-to-back ALU/control instructions. */
    void
    compute(std::uint32_t n)
    {
        if (n)
            ops.push_back({ThreadOp::Kind::Compute, n, 0});
    }

    /** A global load of @p bytes at @p a. */
    void
    load(Addr a, std::uint32_t bytes = 4)
    {
        ops.push_back({ThreadOp::Kind::Load, bytes, a});
    }

    /** A global (posted) store of @p bytes at @p a. */
    void
    store(Addr a, std::uint32_t bytes = 4)
    {
        ops.push_back({ThreadOp::Kind::Store, bytes, a});
    }

    /** A read-modify-write performed at the L2 (atomicAdd/Min). */
    void
    atomic(Addr a, std::uint32_t bytes = 4)
    {
        ops.push_back({ThreadOp::Kind::Atomic, bytes, a});
    }

    const std::vector<ThreadOp> &recorded() const { return ops; }
    std::size_t size() const { return ops.size(); }
    void clear() { ops.clear(); }

  private:
    std::vector<ThreadOp> ops;
};

/** Body of a kernel: record warp @p rec's instructions. */
using KernelBody = std::function<void(
    std::uint64_t first_tid, unsigned lanes, WarpRecorder &rec)>;

/** Body of a per-thread kernel: record thread @p tid's ops. */
using ThreadBody =
    std::function<void(std::uint64_t tid, ThreadRecorder &rec)>;

/**
 * Adapt a per-thread body to a kernel body. The warp records every
 * lane's ops, then merges them by position: at each step the kind of
 * the lowest unfinished lane's current op executes, and the lanes
 * whose current op has that kind take part and advance; the others
 * (divergent paths) wait for a later step. A compute step issues the
 * most instructions any taking-part lane asked for, a memory step
 * moves the most bytes.
 */
KernelBody perThread(ThreadBody body);

/**
 * A kernel launch: a name, a phase tag, a thread count and a body
 * invoked once per warp at warp-activation time.
 */
struct KernelLaunch
{
    std::string name;
    Phase phase = Phase::Processing;
    std::uint64_t numThreads = 0;
    KernelBody body;
};

/** Aggregate result of one kernel execution. */
struct KernelStats
{
    std::string name;
    Phase phase = Phase::Processing;
    Tick startTick = 0;
    Tick endTick = 0;
    std::uint64_t threads = 0;
    std::uint64_t warps = 0;
    std::uint64_t warpInstrs = 0;   ///< issued warp instructions
    std::uint64_t threadInstrs = 0; ///< sum of active lanes
    std::uint64_t warpMemInstrs = 0;
    std::uint64_t memTransactions = 0;
    std::uint64_t memLanes = 0;     ///< active lanes of mem instrs

    Tick cycles() const { return endTick - startTick; }

    /** Average transactions per warp memory instruction. */
    double
    txnsPerMemInstr() const
    {
        return warpMemInstrs
                   ? static_cast<double>(memTransactions) /
                         static_cast<double>(warpMemInstrs)
                   : 0;
    }

    /** Coalescing efficiency in (0,1]: lanes served per transaction
     *  relative to a fully coalesced 32-lane access. */
    double
    coalescingEfficiency() const
    {
        return memTransactions
                   ? static_cast<double>(memLanes) /
                         (32.0 *
                          static_cast<double>(memTransactions))
                   : 0;
    }

    void
    accumulate(const KernelStats &o)
    {
        threads += o.threads;
        warps += o.warps;
        warpInstrs += o.warpInstrs;
        threadInstrs += o.threadInstrs;
        warpMemInstrs += o.warpMemInstrs;
        memTransactions += o.memTransactions;
        memLanes += o.memLanes;
    }
};

} // namespace scusim::gpu

#endif // SCUSIM_GPU_KERNEL_HH
