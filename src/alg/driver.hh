/**
 * @file
 * The drivers of the three graph primitives: each primitive's
 * iteration loop, written once for every device count. A driver
 * builds one runner per device and advances them in lockstep
 * super-steps: every device advances its fragment one step, then,
 * with more than one device, boundary messages are exchanged over
 * the modeled interconnect at the barrier. Without a partition the
 * single runner works on the parent graph itself (no fragment copy,
 * no ghost work, no exchange).
 */

#ifndef SCUSIM_ALG_DRIVER_HH
#define SCUSIM_ALG_DRIVER_HH

#include <vector>

#include "alg/bfs.hh"
#include "alg/options.hh"
#include "alg/pagerank.hh"
#include "alg/sssp.hh"
#include "graph/csr.hh"
#include "graph/partition.hh"
#include "harness/system.hh"

namespace scusim::alg
{

/**
 * BFS over @p g on @p sys. @p part, if non-null, holds one fragment
 * of @p g per device; null runs one device on @p g directly. Results
 * are in global ids. @p perDevice, if non-null, receives each
 * device's work metrics (aggregate metrics land in the result).
 */
BfsResult runBfs(harness::System &sys, const graph::CsrGraph &g,
                 const graph::GraphPartition *part,
                 const AlgOptions &opt,
                 std::vector<AlgMetrics> *perDevice = nullptr);

/**
 * SSSP. The near/far delta is resolved once from @p g and the
 * threshold is stepped globally: the far phase starts only when
 * every device's near frontier is drained and no boundary messages
 * remain in flight.
 */
SsspResult runSssp(harness::System &sys, const graph::CsrGraph &g,
                   const graph::GraphPartition *part,
                   const AlgOptions &opt,
                   std::vector<AlgMetrics> *perDevice = nullptr);

/** PageRank; convergence is decided on the global max rank delta
 *  reduced across devices. */
PrResult runPr(harness::System &sys, const graph::CsrGraph &g,
               const graph::GraphPartition *part,
               const AlgOptions &opt,
               std::vector<AlgMetrics> *perDevice = nullptr);

} // namespace scusim::alg

#endif // SCUSIM_ALG_DRIVER_HH
