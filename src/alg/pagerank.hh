/**
 * @file
 * PageRank on the simulated system, following the Geil et al.
 * structure of Section 2.3: expansion, rank update (atomicAdd per
 * edge), dampening, convergence check. The SCU offload (Algorithm 3)
 * covers only the expansion — PR uses no filtering or grouping
 * (Section 4.6).
 *
 * The runner owns one device's share and exposes it as steps
 * (beginRun()/iterate()/dampen()). The iteration loop lives once, in
 * runPr() (alg/driver.cc), which advances one runner per device:
 * contributions crossing devices accumulate into ghost rows and are
 * flushed as boundary messages at the iteration barrier, before the
 * dampening pass.
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
    /** Runner for device @p dev, over the whole graph @p g (null
     *  @p part) or over @p part's fragment CSR for that device. */
    PageRankRunner(harness::System &sys, DeviceId dev,
                   const graph::CsrGraph &g,
                   const graph::GraphPartition *part);

    /** Reset ranks and accumulators. */
    void beginRun(const AlgOptions &opt);

    /**
     * One prepare/expand/rank-update sweep. Contributions that
     * accumulated on ghost rows are flushed into @p outbox (global
     * id + float bits); pass nullptr outside multi-device runs.
     */
    void iterate(AlgMetrics &m, std::vector<BoundaryMsg> *outbox);

    /** Add remote contributions into the local accumulators. */
    void acceptRemote(std::span<const BoundaryMsg> msgs);

    /**
     * Dampening + convergence pass over the owned vertices; returns
     * this fragment's max rank delta (the driver reduces globally).
     */
    float dampen();

    /** Scatter this runner's owned ranks into @p ranks. */
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
    Elems inbox; ///< staging for remote injections (multi-device only)
};

} // namespace scusim::alg

#endif // SCUSIM_ALG_PAGERANK_HH
