/**
 * @file
 * Building a NEW primitive on the SCU API: connected components via
 * label propagation. The paper ships BFS/SSSP/PR; this example shows
 * what adopting the unit looks like for an algorithm the authors
 * never wrote — including the Bitmask Constructor operation, which
 * turns the per-node "label changed?" vector into the compaction
 * mask without any GPU kernel.
 *
 * Iteration:
 *   1. GPU: propagate min labels across the frontier's edges,
 *      recording which nodes changed.
 *   2. SCU: bitmaskConstructor(changed != 0) -> mask.
 *   3. SCU: dataCompaction(allNodes, mask) -> next frontier.
 *
 * Validated against a serial union-find.
 */

#include <cstdio>
#include <functional>
#include <numeric>
#include <set>
#include <vector>

#include "alg/operators.hh"
#include "alg/graph_buffers.hh"
#include "graph/datasets.hh"
#include "harness/system.hh"

using namespace scusim;

namespace
{

/** Serial union-find reference. */
std::vector<NodeId>
serialComponents(const graph::CsrGraph &g)
{
    std::vector<NodeId> parent(g.numNodes());
    std::iota(parent.begin(), parent.end(), 0);
    std::function<NodeId(NodeId)> find = [&](NodeId x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        for (NodeId v : g.neighbors(u)) {
            NodeId ru = find(u), rv = find(v);
            if (ru != rv)
                parent[std::max(ru, rv)] = std::min(ru, rv);
        }
    }
    // Normalize labels to component minima.
    std::vector<NodeId> label(g.numNodes());
    for (NodeId u = 0; u < g.numNodes(); ++u)
        label[u] = find(u);
    return label;
}

} // namespace

int
main()
{
    // A symmetric mesh: every edge exists in both directions, so
    // label propagation converges to per-component minima.
    auto g = graph::makeDataset("delaunay", 0.05, 11);
    std::printf("mesh: %u nodes, %llu edges\n\n", g.numNodes(),
                static_cast<unsigned long long>(g.numEdges()));

    harness::System sys(harness::SystemConfig::tx1(true));
    auto &as = sys.addressSpace();
    auto &scu = sys.scuDevice();
    alg::GraphBuffers gb(as, g);

    const std::size_t n = g.numNodes();
    mem::DeviceArray<std::uint32_t> labels(as, "cc_labels", n);
    mem::DeviceArray<std::uint32_t> changed(as, "cc_changed", n);
    mem::DeviceArray<std::uint32_t> allNodes(as, "cc_all", n);
    mem::DeviceArray<std::uint32_t> frontier(as, "cc_frontier", n);
    mem::DeviceArray<std::uint32_t> counts(as, "cc_counts", n);
    mem::DeviceArray<std::uint32_t> indexes(as, "cc_indexes", n);
    mem::DeviceArray<std::uint8_t> mask(as, "cc_mask", n);

    for (std::size_t u = 0; u < n; ++u) {
        labels[u] = static_cast<std::uint32_t>(u);
        allNodes[u] = static_cast<std::uint32_t>(u);
        frontier[u] = static_cast<std::uint32_t>(u);
    }
    std::size_t frontier_n = n;
    unsigned iters = 0;

    while (frontier_n > 0 && iters < 10000) {
        ++iters;

        // --- 1. GPU: min-label propagation over frontier edges ---
        for (std::size_t t = 0; t < frontier_n; ++t) {
            NodeId u = frontier[t];
            counts[t] = gb.offsets[u + 1] - gb.offsets[u];
            indexes[t] = gb.offsets[u];
        }
        // Jacobi-style functional step: sources read the previous
        // iteration's labels, as the parallel kernel would.
        for (std::size_t u = 0; u < n; ++u)
            changed[u] = 0;
        std::vector<std::uint32_t> prev(labels.host());
        for (std::size_t t = 0; t < frontier_n; ++t) {
            NodeId u = frontier[t];
            for (EdgeId e = gb.offsets[u]; e < gb.offsets[u + 1];
                 ++e) {
                NodeId v = gb.edges[static_cast<std::size_t>(e)];
                if (prev[u] < labels[v]) {
                    labels[v] = prev[u];
                    changed[v] = 1;
                }
            }
        }
        alg::gpuStreamKernel(
            sys, "cc_propagate", gpu::Phase::Processing, frontier_n,
            gpu::perThread([&](std::uint64_t t,
                               gpu::ThreadRecorder &rec) {
                rec.load(frontier.addrOf(t), 4);
                NodeId u = frontier[t];
                rec.load(gb.offsets.addrOf(u), 4);
                rec.load(gb.offsets.addrOf(u + 1), 4);
                rec.load(labels.addrOf(u), 4);
                rec.compute(8);
                for (EdgeId e = gb.offsets[u];
                     e < gb.offsets[u + 1]; ++e) {
                    NodeId v =
                        gb.edges[static_cast<std::size_t>(e)];
                    rec.load(gb.edges.addrOf(
                                 static_cast<std::size_t>(e)),
                             4);
                    rec.compute(4);
                    rec.atomic(labels.addrOf(v), 4); // atomicMin
                    rec.store(changed.addrOf(v), 4);
                }
            }),
            0);

        // --- 2+3. SCU: mask construction + frontier compaction ---
        std::size_t next_n = 0;
        sys.scuSection([&] {
            scu.bitmaskConstructor(changed, n, scu::CompareOp::Ne,
                                   0, mask);
            scu.dataCompaction(allNodes, n, &mask, frontier,
                               next_n);
        });
        frontier_n = next_n;
    }

    // Validate.
    auto want = serialComponents(g);
    std::size_t bad = 0;
    for (std::size_t u = 0; u < n; ++u) {
        if (labels[u] != want[u])
            ++bad;
    }
    std::set<std::uint32_t> comps(labels.host().begin(),
                                  labels.host().end());

    std::printf("converged in %u iterations: %zu components, "
                "%zu label mismatches vs union-find\n",
                iters, comps.size(), bad);
    std::printf("simulated time %.3f ms, energy %s\n",
                sys.elapsedSeconds() * 1e3,
                "(see harness metrics for full runs)");
    std::printf("\nThe whole frontier machinery above is ~40 lines "
                "because the SCU API supplies the compaction.\n");
    return bad == 0 ? 0 : 1;
}
