/**
 * @file
 * PageRank on the simulated system, following the Geil et al.
 * structure of Section 2.3: expansion, rank update (atomicAdd per
 * edge), dampening, convergence check. The SCU offload (Algorithm 3)
 * covers only the expansion — PR uses no filtering or grouping
 * (Section 4.6).
 *
 * The beginRun()/iterate()/dampen() step API lets the sharded driver
 * run one fragment per device: contributions crossing devices
 * accumulate into ghost rows and are flushed as boundary messages at
 * the iteration barrier, before the dampening pass. run() composes
 * the same steps into the original single-device loop.
 */

#ifndef SCUSIM_ALG_PAGERANK_HH
#define SCUSIM_ALG_PAGERANK_HH

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

/** Result of one simulated PageRank run. */
struct PrResult
{
    std::vector<float> ranks;
    AlgMetrics metrics;
    bool converged = false;
};

class PageRankRunner
{
  public:
    PageRankRunner(harness::System &sys, const graph::CsrGraph &g);

    /** Fragment-aware runner for device @p dev of a sharded run. */
    PageRankRunner(harness::System &sys, DeviceId dev,
                   const graph::CsrGraph &g,
                   const graph::GraphPartition *part);

    PrResult run(const AlgOptions &opt);

    // --- Step API for the sharded driver -----------------------

    /** Reset ranks and accumulators. */
    void beginRun(const AlgOptions &opt);

    /**
     * One prepare/expand/rank-update sweep. Contributions that
     * accumulated on ghost rows are flushed into @p outbox (global
     * id + float bits); pass nullptr outside sharded runs.
     */
    void iterate(AlgMetrics &m, std::vector<BoundaryMsg> *outbox);

    /** Add remote contributions into the local accumulators. */
    void acceptRemote(std::span<const BoundaryMsg> msgs);

    /**
     * Dampening + convergence pass over the owned vertices; returns
     * this fragment's max rank delta (the driver reduces globally).
     */
    float dampen();

    /** Scatter this fragment's inner ranks into @p ranks. */
    void collect(std::vector<float> &ranks) const;

  private:
    harness::System &sys;
    DeviceId dev = 0;
    const graph::GraphPartition *part = nullptr;
    const graph::Fragment *frag = nullptr;
    const graph::CsrGraph &g;
    GraphBuffers gb;
    Operators ops;

    Elems rankBits;    ///< float ranks, bit-cast into u32 elements
    Elems newRankBits; ///< accumulation target of the rank update
    Elems contribBits; ///< rank / out-degree, the replicated value
    Elems counts;
    Elems indexes;
    Elems edgeFrontier;
    Elems weightFrontier;
    Elems inbox; ///< staging for remote injections (sharded only)
};

} // namespace scusim::alg

#endif // SCUSIM_ALG_PAGERANK_HH
