/**
 * @file
 * The GPU device model: owns the SMs and their L1s, dispatches
 * kernel launches onto them, runs the simulation until the grid
 * drains and aggregates per-phase statistics (the stream-compaction
 * versus rest-of-algorithm split of Figure 1).
 */

#ifndef SCUSIM_GPU_GPU_HH
#define SCUSIM_GPU_GPU_HH

#include <memory>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/kernel.hh"
#include "gpu/sm.hh"
#include "mem/mem_system.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

namespace scusim::trace
{
class TraceChannel;
class TraceSink;
} // namespace scusim::trace

namespace scusim::gpu
{

/** Whole-device accumulated activity, per phase. */
struct GpuTotals
{
    KernelStats compaction;
    KernelStats processing;
    Tick compactionCycles = 0;
    Tick processingCycles = 0;
    std::uint64_t launches = 0;

    Tick
    busyCycles() const
    {
        return compactionCycles + processingCycles;
    }
};

class Gpu
{
  public:
    Gpu(const GpuParams &params, mem::MemSystem &mem,
        sim::Simulation &simulation, stats::StatGroup *parent);

    /**
     * Launch @p k and run the simulation until the grid completes.
     * Kernel launches are serialized on the system timeline, as in
     * the iterative graph algorithms.
     */
    KernelStats launch(const KernelLaunch &k);

    const GpuParams &params() const { return p; }
    const GpuTotals &totals() const { return agg; }

    /** Sum of per-SM active cycles (for dynamic energy). */
    double smActiveCycles() const;

    /** Sum of L1 accesses over all SMs (for energy). */
    double l1Accesses() const;

    /** Fixed host-side launch overhead, in cycles. */
    Tick launchOverhead() const { return p.launchLatency; }

    /**
     * Bind trace channels: "gpu" for kernel spans, one per-SM channel
     * ("sm<i>") for issue/memory events. Multi-device systems pass a
     * "d<k>." prefix so each device gets its own channel lane.
     */
    void attachTrace(trace::TraceSink &sink,
                     const std::string &prefix = "");

    /**
     * Build warp @p warp_id (threads [warp_id * warp_size, ...) of
     * @p k) by running @p k's body over it, appending to @p out.
     * @p warp_size is at most 64, the lane-mask width.
     */
    static void buildWarp(const KernelLaunch &k, std::uint64_t warp_id,
                          unsigned warp_size, Warp &out);

  private:
    const GpuParams p;
    sim::Simulation &sim;
    stats::StatGroup grp;
    std::vector<std::unique_ptr<StreamingMultiprocessor>> sms;
    GpuTotals agg;
    trace::TraceChannel *traceChan = nullptr;
};

} // namespace scusim::gpu

#endif // SCUSIM_GPU_GPU_HH
