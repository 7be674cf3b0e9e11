#include "alg/bfs.hh"

#include <deque>

#include "common/logging.hh"

namespace scusim::alg
{

BfsRunner::BfsRunner(harness::System &s, DeviceId d,
                     const graph::CsrGraph &graph,
                     const graph::GraphPartition *p)
    : sys(s), dev(d), part(p),
      frag(p ? &p->fragment(d) : nullptr), g(graph),
      gb(s.addressSpace(d), graph),
      ops(s, d, static_cast<std::size_t>(graph.numEdges()) * 2 + 1024)
{
    auto &as = sys.addressSpace(dev);
    const auto n = static_cast<std::size_t>(g.numNodes());
    const auto ef_cap =
        static_cast<std::size_t>(g.numEdges()) * 2 + 1024;

    dist.allocate(as, "bfs_dist", n);
    visitedBits.allocate(as, "bfs_visited_bits", n / 32 + 1);
    nodeFrontier.allocate(as, "bfs_node_frontier", ef_cap);
    edgeFrontier.allocate(as, "bfs_edge_frontier", ef_cap);
    counts.allocate(as, "bfs_counts", ef_cap);
    indexes.allocate(as, "bfs_indexes", ef_cap);
    flags.allocate(as, "bfs_flags", ef_cap);
    // Remote-injection staging exists only for true multi-fragment
    // runs so single-fragment address spaces stay byte-identical to
    // the historical single-device layout.
    if (part && part->numFragments() > 1)
        inbox.allocate(as, "bfs_inbox", ef_cap);
    visited.assign(n, 0);

    // Best-effort bitmask visibility: marks made by warps racing in
    // flight are not observed. The window covers a few warps per SM
    // (stores commit within hundreds of cycles, and Merrill's warp
    // culling removes same-warp duplicates), so it is far narrower
    // than the full thread complement.
    raceWindow = std::max<std::size_t>(
        64, sys.config().gpu.numSms * 2 *
                sys.config().gpu.warpSize);
    cullTable.assign(4096, invalidNode);
}

void
BfsRunner::prepare(std::size_t nf_n)
{
    for (std::size_t t = 0; t < nf_n; ++t) {
        const NodeId u = nodeFrontier[t];
        counts[t] = gb.offsets[u + 1] - gb.offsets[u];
        indexes[t] = gb.offsets[u];
    }
    gpuStreamKernel(
        sys, "bfs_prepare", gpu::Phase::Processing, nf_n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(nodeFrontier.addrOf(t), 4);
            const NodeId u = nodeFrontier[t];
            rec.load(gb.offsets.addrOf(u), 4);
            rec.load(gb.offsets.addrOf(u + 1), 4);
            rec.compute(14);
            rec.store(counts.addrOf(t), 4);
            rec.store(indexes.addrOf(t), 4);
        },
        dev);
}

void
BfsRunner::contractLookup(std::size_t ef_n, std::uint32_t level)
{
    // Functional pass with the best-effort visibility window: a mark
    // becomes visible raceWindow elements after it was made, so
    // duplicates racing in flight produce false negatives, exactly
    // the trade-off of the bitmask of Section 2.1.2.
    // The warp/history culling hash (Merrill) catches most hub
    // duplicates that race past the bitmask: a small direct-mapped
    // table of recently seen nodes, reset each pass, with collisions
    // evicting (so culling stays incomplete — the headroom the SCU
    // filter exploits).
    std::fill(cullTable.begin(), cullTable.end(), invalidNode);
    std::deque<std::pair<std::size_t, NodeId>> pending;
    for (std::size_t t = 0; t < ef_n; ++t) {
        while (!pending.empty() &&
               pending.front().first + raceWindow <= t) {
            visited[pending.front().second] = 1;
            pending.pop_front();
        }
        const NodeId v = edgeFrontier[t];
        const std::size_t h =
            static_cast<std::size_t>(v) % cullTable.size();
        if (visited[v] || cullTable[h] == v) {
            flags[t] = 0;
        } else {
            cullTable[h] = v;
            flags[t] = 1;
            dist[v] = level;
            pending.emplace_back(t, v);
        }
    }
    for (auto &[pos, v] : pending)
        visited[v] = 1;

    // Timing kernel: the status-lookup contraction of Section 2.1.2.
    gpuStreamKernel(
        sys, "bfs_contract_lookup", gpu::Phase::Processing, ef_n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(edgeFrontier.addrOf(t), 4);
            const NodeId v = edgeFrontier[t];
            rec.load(visitedBits.addrOf(v / 32), 4);
            rec.compute(24);
            rec.store(flags.addrOf(t), 1);
            if (flags[t]) {
                rec.store(dist.addrOf(v), 4);
                rec.store(visitedBits.addrOf(v / 32), 4);
            }
        },
        dev);
}

void
BfsRunner::beginRun(const AlgOptions &opt)
{
    const auto n = static_cast<std::size_t>(g.numNodes());
    if (!frag) {
        fatal_if(opt.source >= g.numNodes(),
                 "BFS source out of range");
    } else {
        fatal_if(opt.source >= part->numNodes(),
                 "BFS source out of range");
    }

    // Initialization kernel: dist <- inf, visited <- 0 (memset-like
    // streaming stores).
    std::fill(dist.host().begin(), dist.host().end(), infDist);
    std::fill(visited.begin(), visited.end(), 0);
    gpuStreamKernel(
        sys, "bfs_init", gpu::Phase::Processing, n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.compute(2);
            rec.store(dist.addrOf(t), 4);
            if (t % 32 == 0)
                rec.store(visitedBits.addrOf(t / 32), 4);
        },
        dev);

    ops.begin(opt.mode);

    nf_n = 0;
    const bool owned =
        !frag || part->ownerOf(opt.source) == frag->device;
    if (owned) {
        const NodeId src =
            frag ? part->localOf(opt.source) : opt.source;
        nodeFrontier[0] = src;
        visited[src] = 1;
        dist[src] = 0;
        nf_n = 1;
    }
}

void
BfsRunner::runLevel(std::uint32_t level, AlgMetrics &m,
                    std::vector<BoundaryMsg> *outbox)
{
    // --- Expansion ---------------------------------------------
    // The enhanced SCU's unique filter removes the intra-frontier
    // duplicates (Algorithm 4); the GPU bitmask handles nodes
    // visited in earlier iterations.
    prepare(nf_n);
    const ExpandOutput out{&edgeFrontier, &gb.edges};
    const std::size_t ef_n = ops.expand("bfs_expand", indexes, counts,
                                        nf_n, {&out, 1},
                                        {.unique = true}, m);

    // --- Contraction -------------------------------------------
    m.gpuEdgeWork += ef_n;
    contractLookup(ef_n, level);

    // Duplicates that slipped through the expansion filter (hash
    // collisions) and bitmask races are removed before they
    // re-enter the frontier.
    nf_n = 0;
    const CompactStream s{&edgeFrontier, &nodeFrontier};
    ops.compact("bfs_contract_compact", {&s, 1}, flags, ef_n, nf_n,
                {.unique = true}, m);

    if (frag && frag->numOuter > 0 && outbox && nf_n > 0)
        splitBoundary(*outbox);
}

void
BfsRunner::splitBoundary(std::vector<BoundaryMsg> &outbox)
{
    const std::size_t old_n = nf_n;
    std::size_t kept = 0;
    for (std::size_t t = 0; t < old_n; ++t) {
        const NodeId v = nodeFrontier[t];
        if (frag->isInner(v)) {
            nodeFrontier[kept++] = v;
        } else {
            outbox.push_back(
                BoundaryMsg{frag->toGlobal[v], dist[v]});
        }
    }
    nf_n = kept;

    // Timing: one pass over the new frontier comparing each entry
    // against the inner-vertex bound, repacking survivors.
    gpuStreamKernel(
        sys, "bfs_boundary_split", gpu::Phase::Processing, old_n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(nodeFrontier.addrOf(t), 4);
            rec.compute(8);
            rec.store(nodeFrontier.addrOf(t), 4);
        },
        dev);
}

void
BfsRunner::acceptRemote(std::span<const BoundaryMsg> msgs)
{
    if (msgs.empty())
        return;
    panic_if(!frag, "acceptRemote on an unpartitioned BFS runner");

    std::size_t t = 0;
    for (const BoundaryMsg &msg : msgs) {
        const NodeId l = part->localOf(msg.node);
        inbox[t % inbox.size()] = msg.node;
        ++t;
        if (visited[l])
            continue;
        visited[l] = 1;
        dist[l] = msg.value;
        panic_if(nf_n >= nodeFrontier.size(),
                 "node frontier overflow on remote inject");
        nodeFrontier[nf_n++] = l;
    }

    // Timing: one thread per message — load it, probe the bitmask,
    // conditionally append to the frontier.
    gpuStreamKernel(
        sys, "bfs_inject_remote", gpu::Phase::Processing, msgs.size(),
        [&](std::uint64_t i, gpu::ThreadRecorder &rec) {
            rec.load(inbox.addrOf(i % inbox.size()), 8);
            const NodeId l = part->localOf(msgs[i].node);
            rec.load(visitedBits.addrOf(l / 32), 4);
            rec.compute(12);
            rec.store(dist.addrOf(l), 4);
            rec.store(visitedBits.addrOf(l / 32), 4);
        },
        dev);
}

void
BfsRunner::collect(std::vector<std::uint32_t> &globalDist) const
{
    const NodeId owned = frag ? frag->numInner : g.numNodes();
    for (NodeId l = 0; l < owned; ++l)
        globalDist[frag ? frag->toGlobal[l] : l] = dist[l];
}

} // namespace scusim::alg
