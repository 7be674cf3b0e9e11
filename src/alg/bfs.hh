/**
 * @file
 * Breadth-First Search on the simulated system, following the
 * Merrill-style expand/contract structure of Section 2.1 with the
 * SCU offloads of Sections 3.3 (basic) and 4.4 (enhanced).
 *
 * The runner owns one device's share of a BFS and exposes it as
 * steps, beginRun()/runLevel()/acceptRemote()/collect(). The level
 * loop lives once, in runBfs() (alg/driver.cc), which advances one
 * runner per device in lockstep and exchanges boundary discoveries
 * between levels.
 */

#ifndef SCUSIM_ALG_BFS_HH
#define SCUSIM_ALG_BFS_HH

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

/** Result of one simulated BFS run. */
struct BfsResult
{
    std::vector<std::uint32_t> dist; ///< levels, infDist if unreached
    AlgMetrics metrics;
};

/**
 * BFS runner bound to one device of a system. Owns the device
 * frontiers.
 */
class BfsRunner
{
  public:
    /**
     * Runner for device @p dev. With a null @p part it works on the
     * whole graph @p g; otherwise @p g must be @p part's fragment CSR
     * for that device. Ghost vertices act as a local dedup cache;
     * discoveries that land on them are split out of the frontier
     * and returned as boundary messages.
     */
    BfsRunner(harness::System &sys, DeviceId dev,
              const graph::CsrGraph &g,
              const graph::GraphPartition *part);

    /** Reset state and seed the source (if owned locally). */
    void beginRun(const AlgOptions &opt);

    bool frontierEmpty() const { return nf_n == 0; }

    /**
     * One expand/contract level. New frontier entries that are ghost
     * vertices are removed and reported into @p outbox (global ids);
     * pass nullptr outside multi-device runs.
     */
    void runLevel(std::uint32_t level, AlgMetrics &m,
                  std::vector<BoundaryMsg> *outbox);

    /** Inject remotely discovered owned vertices; each message
     *  carries the vertex's level. */
    void acceptRemote(std::span<const BoundaryMsg> msgs);

    /** Scatter this runner's owned distances into @p globalDist. */
    void collect(std::vector<std::uint32_t> &globalDist) const;

  private:
    /** GPU preparation kernel: counts/indexes from the frontier. */
    void prepare(std::size_t nf_n);

    /** GPU contraction status-lookup kernel; fills flags. */
    void contractLookup(std::size_t ef_n, std::uint32_t level);

    /** Strip ghosts out of the new frontier into @p outbox. */
    void splitBoundary(std::vector<BoundaryMsg> &outbox);

    harness::System &sys;
    DeviceId dev = 0;
    const graph::GraphPartition *part = nullptr;
    const graph::Fragment *frag = nullptr;
    const graph::CsrGraph &g;
    GraphBuffers gb;
    Operators ops;

    Elems dist;
    Elems visitedBits;
    Elems nodeFrontier;
    Elems edgeFrontier;
    Elems counts;
    Elems indexes;
    Flags flags;
    Elems inbox; ///< staging for remote injections (multi-device only)

    std::vector<std::uint8_t> visited; ///< functional visited set
    /** Best-effort bitmask race window (threads in flight). */
    std::size_t raceWindow;
    /** Warp/history culling hash (Merrill), per contraction pass. */
    std::vector<NodeId> cullTable;

    std::size_t nf_n = 0;   ///< current frontier population
};

} // namespace scusim::alg

#endif // SCUSIM_ALG_BFS_HH
