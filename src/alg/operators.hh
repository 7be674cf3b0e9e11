/**
 * @file
 * The compaction operators every primitive is written against, in
 * Gunrock's advance/filter vocabulary: expand() turns a node frontier
 * into edge-frontier streams, compact() packs the flagged elements of
 * one or more streams. A primitive describes its streams, flags,
 * refinement and kernel names; the layer owns the ScuMode choice:
 *
 *   - GpuOnly runs the baseline the SCU replaces, the shapes of the
 *     CUDA implementations the paper builds on: a multi-kernel
 *     exclusive scan (CUB-style) followed by a scatter for
 *     compaction, and Merrill-style scan + binary-search gather for
 *     expansion;
 *   - ScuBasic runs one SCU operation per stream (Section 3);
 *   - ScuEnhanced first runs the metadata passes the Refine asks for
 *     over the first stream — a filter pass that records keep flags
 *     and a grouping pass that records the emit order — then one SCU
 *     operation per stream that applies them (Section 4.1).
 *
 * Every operator computes the functional result and charges the
 * equivalent kernels or SCU operations, with the true simulated
 * addresses. The SCU operations of one call run inside one
 * System::scuSection, so their activity is attributed to the SCU.
 */

#ifndef SCUSIM_ALG_OPERATORS_HH
#define SCUSIM_ALG_OPERATORS_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "alg/options.hh"
#include "harness/system.hh"
#include "mem/address_space.hh"
#include "scu/scu.hh"

namespace scusim::alg
{

using Elems = mem::DeviceArray<std::uint32_t>;
using Flags = mem::DeviceArray<std::uint8_t>;

/** Launch a simple one-op-per-thread kernel. */
gpu::KernelStats
gpuStreamKernel(harness::System &sys, const std::string &name,
                gpu::Phase phase, std::uint64_t threads,
                std::function<void(std::uint64_t,
                                   gpu::ThreadRecorder &)> body,
                DeviceId dev = 0);

/**
 * One output stream of an expansion. Output element (i, j) — input
 * element i, offset j within its run — is gather[indexes[i] + j] (an
 * edge-indexed array) or replicate[i] (a node-indexed array). With
 * both set it is their sum, which only the GPU can produce in one
 * pass; the GPU loads the gathered element first.
 */
struct ExpandOutput
{
    Elems *out;
    const Elems *gather = nullptr;
    const Elems *replicate = nullptr;
};

/** One input/output pair of a multi-stream compaction. */
struct CompactStream
{
    const Elems *in;
    Elems *out;
};

/**
 * What the enhanced SCU does to a stream before it lands (Sections
 * 4.2 and 4.3): at most one of the two filters, and grouping. The
 * GPU baseline and the basic SCU ignore it.
 */
struct Refine
{
    /** Drop elements already seen in this pass (BFS). */
    bool unique = false;
    /**
     * Keep, per element value, only the cheapest occurrence (SSSP).
     * Returns the cost of every element the filter pass sees, in
     * stream order: every produced element for expand(), every
     * flagged one for compact(). Called only when the pass runs.
     */
    std::function<std::vector<std::uint32_t>()> bestCost = {};
    /** Emit elements whose values share an L2 line together. */
    bool group = false;
};

/** The compaction operators of one device, bound to a run's mode. */
class Operators
{
  public:
    /** @p capacity bounds the streams the GPU scans cover. */
    Operators(harness::System &sys, DeviceId dev, std::size_t capacity);

    /** Start a run in @p mode; SCU runs start from empty tables. */
    void begin(harness::ScuMode mode);

    harness::ScuMode mode() const { return runMode; }
    bool offloaded() const { return runMode != harness::ScuMode::GpuOnly; }

    /**
     * Expand input elements i < @p n into the runs
     * [indexes[i], indexes[i] + counts[i]) of every output stream.
     * Adds the elements produced before any filtering to
     * @p m.rawExpanded and the filtered ones to @p m.scuFiltered.
     * @p name prefixes the GPU kernels.
     *
     * @return elements landed in each output.
     */
    std::size_t expand(const std::string &name, const Elems &indexes,
                       const Elems &counts, std::size_t n,
                       std::span<const ExpandOutput> outputs,
                       const Refine &refine, AlgMetrics &m);

    /**
     * Append in[i] of every stream to its out for each i < @p n with
     * flags[i] != 0, all streams at the common packed position
     * starting at @p out_n; panics if the streams land different
     * counts. Advances @p out_n and adds the filtered elements to
     * @p m.scuFiltered. @p name prefixes the GPU kernels.
     */
    void compact(const std::string &name,
                 std::span<const CompactStream> streams,
                 const Flags &flags, std::size_t n, std::size_t &out_n,
                 const Refine &refine, AlgMetrics &m);

  private:
    /**
     * The two scan kernels over @p n elements whose input loads
     * @p load_input records; fills `scanned` with the exclusive scan
     * of the values @p value_of yields.
     */
    void gpuScan(const std::string &name, std::size_t n,
                 const std::function<void(std::uint64_t,
                                          gpu::ThreadRecorder &)>
                     &load_input,
                 const std::function<std::uint32_t(std::size_t)>
                     &value_of);

    /** One SCU operation writing stream @p s of the call. */
    using StreamOp = std::function<scu::ScuOpStats(
        std::size_t s, const scu::OpOptions &, std::size_t &out_n)>;

    /** The SCU side of a call over @p streams streams. */
    std::size_t scuRun(std::size_t streams, std::size_t &out_n,
                       const Refine &refine, AlgMetrics &m,
                       const StreamOp &op);

    harness::System &sys;
    DeviceId dev;
    Elems scanned;   ///< per-element exclusive-scan results
    Elems blockSums; ///< per-block partial sums
    harness::ScuMode runMode = harness::ScuMode::GpuOnly;
};

} // namespace scusim::alg

#endif // SCUSIM_ALG_OPERATORS_HH
