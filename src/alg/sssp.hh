/**
 * @file
 * Single-Source Shortest Paths on the simulated system, following the
 * Davidson et al. near-far work delegation of Section 2.2 with the
 * SCU offloads of Sections 3.4 (basic) and 4.5 (enhanced: best-cost
 * filtering plus grouping).
 *
 * Like BFS, the runner owns one device's share and exposes it as
 * steps (beginRun()/nearIteration()/advanceThreshold()/farPhase()).
 * The near/far loop lives once, in runSssp() (alg/driver.cc), which
 * advances one runner per device in lockstep and exchanges boundary
 * relaxations between near iterations.
 */

#ifndef SCUSIM_ALG_SSSP_HH
#define SCUSIM_ALG_SSSP_HH

#include <span>
#include <vector>

#include "alg/graph_buffers.hh"
#include "alg/operators.hh"
#include "alg/options.hh"
#include "graph/csr.hh"
#include "graph/partition.hh"
#include "harness/system.hh"

namespace scusim::alg
{

/** Result of one simulated SSSP run. */
struct SsspResult
{
    std::vector<std::uint32_t> dist; ///< costs, infDist if unreached
    AlgMetrics metrics;
};

class SsspRunner
{
  public:
    /**
     * Runner for device @p dev. With a null @p part it works on the
     * whole graph @p g; otherwise @p g is @p part's fragment CSR for
     * that device. Ghost vertices keep a best-cost cache: a
     * relaxation that improves a ghost is forwarded to its owner as
     * a boundary message instead of entering the local frontier.
     */
    SsspRunner(harness::System &sys, DeviceId dev,
               const graph::CsrGraph &g,
               const graph::GraphPartition *part);

    /**
     * Reset state and seed the source (if owned). @p opt.ssspDelta
     * must be resolved (non-zero): the driver fixes it once for all
     * devices.
     */
    void beginRun(const AlgOptions &opt);

    bool nearEmpty() const { return nf_n == 0; }
    bool farEmpty() const { return far_n == 0; }

    /**
     * One near-phase expand/contract/compact iteration. Improving
     * relaxations that land on ghost vertices are reported into
     * @p outbox (global id + tentative cost) instead of the local
     * frontier; pass nullptr outside multi-device runs.
     */
    void nearIteration(AlgMetrics &m,
                       std::vector<BoundaryMsg> *outbox);

    /** Raise the near/far threshold by delta. */
    void advanceThreshold() { threshold += delta; }

    /** Revalidate and re-split the far pile at the new threshold. */
    void farPhase(AlgMetrics &m);

    /** Inject remote relaxations against the current threshold. */
    void acceptRemote(std::span<const BoundaryMsg> msgs);

    /** Scatter this runner's owned distances into @p globalDist. */
    void collect(std::vector<std::uint32_t> &globalDist) const;

  private:
    /** GPU preparation: counts/indexes/source-distance gather. */
    void prepare(std::size_t nf_n);

    /** Expansion of the current node frontier; returns ef_n. */
    std::size_t expand(AlgMetrics &m);

    /**
     * GPU contraction over the current edge/weight frontier:
     * atomicMin relaxation, lookup-table deduplication and near/far
     * flag generation. Ghost targets divert into @p outbox.
     */
    void contract(std::size_t ef_n, AlgMetrics &m,
                  std::vector<BoundaryMsg> *outbox);

    /**
     * GPU far-pile revalidation: drop settled entries, split the
     * rest into the new node frontier and the next far pile.
     */
    void splitFarPile(std::size_t far_n, std::uint32_t threshold);

    harness::System &sys;
    DeviceId dev = 0;
    const graph::GraphPartition *part = nullptr;
    const graph::Fragment *frag = nullptr;
    const graph::CsrGraph &g;
    GraphBuffers gb;
    Operators ops;

    Elems dist;
    Elems nodeFrontier;
    Elems edgeFrontier;
    Elems weightFrontier;
    Elems gatherWeights; ///< SCU temp: per-edge weight gather
    Elems replDist;      ///< SCU temp: replicated source distances
    Elems srcDist;       ///< per-frontier-node distance (prepare)
    Elems counts;
    Elems indexes;
    Elems farEdges[2];   ///< ping-pong far pile (node ids)
    Elems farWeights[2]; ///< ping-pong far pile (costs)
    Elems lookupTable;   ///< one entry per node (GPU dedup)
    Flags nearFlags;
    Flags farFlags;
    Elems inbox; ///< staging for remote injections (multi-device only)

    unsigned farCur = 0; ///< which far pile is current

    std::size_t nf_n = 0;
    std::size_t far_n = 0;
    std::uint32_t delta = 0;
    std::uint32_t threshold = 0;
};

} // namespace scusim::alg

#endif // SCUSIM_ALG_SSSP_HH
