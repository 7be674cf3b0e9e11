#include "alg/sssp.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace scusim::alg
{

namespace
{

/**
 * Keep, per node, only the last improving entry (the one with the
 * best cost, since successive improvements are strictly decreasing).
 * This is the lookup-table deduplication of Section 2.2.2: complete,
 * unlike BFS's best-effort bitmask.
 */
class WinnerDedup
{
  public:
    explicit WinnerDedup(std::size_t n)
        : epoch(n, 0), winner(n, 0), cur(0) {}

    void
    begin()
    {
        ++cur;
    }

    void
    offer(NodeId v, std::size_t t)
    {
        epoch[v] = cur;
        winner[v] = t;
    }

    bool
    isWinner(NodeId v, std::size_t t) const
    {
        return epoch[v] == cur && winner[v] == t;
    }

  private:
    std::vector<std::uint32_t> epoch;
    std::vector<std::size_t> winner;
    std::uint32_t cur;
};

} // namespace

SsspRunner::SsspRunner(harness::System &s, DeviceId d,
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
    const auto far_cap =
        static_cast<std::size_t>(g.numEdges()) * 3 + 1024;

    dist.allocate(as, "sssp_dist", n);
    nodeFrontier.allocate(as, "sssp_node_frontier", ef_cap);
    edgeFrontier.allocate(as, "sssp_edge_frontier", ef_cap);
    weightFrontier.allocate(as, "sssp_weight_frontier", ef_cap);
    gatherWeights.allocate(as, "sssp_gather_weights", ef_cap);
    replDist.allocate(as, "sssp_repl_dist", ef_cap);
    srcDist.allocate(as, "sssp_src_dist", ef_cap);
    counts.allocate(as, "sssp_counts", ef_cap);
    indexes.allocate(as, "sssp_indexes", ef_cap);
    farEdges[0].allocate(as, "sssp_far_edges_a", far_cap);
    farEdges[1].allocate(as, "sssp_far_edges_b", far_cap);
    farWeights[0].allocate(as, "sssp_far_weights_a", far_cap);
    farWeights[1].allocate(as, "sssp_far_weights_b", far_cap);
    lookupTable.allocate(as, "sssp_lookup_table", n);
    nearFlags.allocate(as, "sssp_near_flags", far_cap);
    farFlags.allocate(as, "sssp_far_flags", far_cap);
    if (part && part->numFragments() > 1)
        inbox.allocate(as, "sssp_inbox", ef_cap);
}

void
SsspRunner::prepare(std::size_t nf_n)
{
    for (std::size_t t = 0; t < nf_n; ++t) {
        const NodeId u = nodeFrontier[t];
        counts[t] = gb.offsets[u + 1] - gb.offsets[u];
        indexes[t] = gb.offsets[u];
        srcDist[t] = dist[u];
    }
    gpuStreamKernel(
        sys, "sssp_prepare", gpu::Phase::Processing, nf_n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(nodeFrontier.addrOf(t), 4);
            const NodeId u = nodeFrontier[t];
            rec.load(gb.offsets.addrOf(u), 4);
            rec.load(gb.offsets.addrOf(u + 1), 4);
            rec.load(dist.addrOf(u), 4);
            rec.compute(16);
            rec.store(counts.addrOf(t), 4);
            rec.store(indexes.addrOf(t), 4);
            rec.store(srcDist.addrOf(t), 4);
        },
        dev);
}

void
SsspRunner::contract(std::size_t ef_n, AlgMetrics &m,
                     std::vector<BoundaryMsg> *outbox)
{
    m.gpuEdgeWork += ef_n;

    // Functional relaxation sweep (deterministic atomicMin order).
    // Ghost targets never enter the local piles: an improving
    // relaxation updates the ghost's best-cost cache and is
    // forwarded to the owner at the next exchange barrier.
    WinnerDedup local(g.numNodes());
    local.begin();
    for (std::size_t t = 0; t < ef_n; ++t) {
        const NodeId v = edgeFrontier[t];
        const std::uint32_t w = weightFrontier[t];
        const bool improved = w < dist[v];
        if (improved)
            dist[v] = w;
        if (frag && !frag->isInner(v)) {
            nearFlags[t] = 0;
            farFlags[t] = 0;
            if (improved && outbox)
                outbox->push_back(
                    BoundaryMsg{frag->toGlobal[v], w});
            continue;
        }
        nearFlags[t] = (improved && w <= threshold) ? 1 : 0;
        farFlags[t] = (improved && w > threshold) ? 1 : 0;
        if (nearFlags[t])
            local.offer(v, t);
    }
    // Complete near deduplication (lookup table): only the winning
    // (best-cost) entry of each node stays in the node frontier.
    for (std::size_t t = 0; t < ef_n; ++t) {
        if (nearFlags[t] &&
            !local.isWinner(edgeFrontier[t], t))
            nearFlags[t] = 0;
    }

    gpuStreamKernel(
        sys, "sssp_contract", gpu::Phase::Processing, ef_n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(edgeFrontier.addrOf(t), 4);
            rec.load(weightFrontier.addrOf(t), 4);
            const NodeId v = edgeFrontier[t];
            rec.load(dist.addrOf(v), 4);
            rec.compute(24);
            // Lookup-table deduplication: write thread id, re-read
            // after the synchronization point.
            rec.store(lookupTable.addrOf(v), 4);
            rec.load(lookupTable.addrOf(v), 4);
            rec.compute(2);
            // atomicMin on the distance of improving entries.
            if (nearFlags[t] || farFlags[t])
                rec.atomic(dist.addrOf(v), 4);
            rec.store(nearFlags.addrOf(t), 1);
            rec.store(farFlags.addrOf(t), 1);
        },
        dev);
}

void
SsspRunner::splitFarPile(std::size_t far_n, std::uint32_t threshold)
{
    Elems &fe = farEdges[farCur];
    Elems &fw = farWeights[farCur];

    WinnerDedup local(g.numNodes());
    local.begin();
    for (std::size_t t = 0; t < far_n; ++t) {
        const NodeId v = fe[t];
        const std::uint32_t w = fw[t];
        // Keep entries that still carry the node's best label
        // (w == dist[v] means this entry set the label and the node
        // still awaits expansion); drop strictly stale ones.
        const bool valid = w <= dist[v];
        nearFlags[t] = (valid && w <= threshold) ? 1 : 0;
        farFlags[t] = (valid && w > threshold) ? 1 : 0;
        if (nearFlags[t])
            local.offer(v, t);
    }
    // With the enhanced SCU the best-cost hash does the
    // deduplication (Section 4.5.2); otherwise the GPU pays for the
    // complete lookup-table pass.
    const bool gpu_dedup = ops.mode() != harness::ScuMode::ScuEnhanced;
    if (gpu_dedup) {
        for (std::size_t t = 0; t < far_n; ++t) {
            if (nearFlags[t] && !local.isWinner(fe[t], t))
                nearFlags[t] = 0;
        }
    }

    gpuStreamKernel(
        sys, "sssp_far_split", gpu::Phase::Processing, far_n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(fe.addrOf(t), 4);
            rec.load(fw.addrOf(t), 4);
            rec.load(dist.addrOf(fe[t]), 4);
            rec.compute(20);
            if (gpu_dedup) {
                rec.store(lookupTable.addrOf(fe[t]), 4);
                rec.load(lookupTable.addrOf(fe[t]), 4);
            }
            rec.store(nearFlags.addrOf(t), 1);
            rec.store(farFlags.addrOf(t), 1);
        },
        dev);
}

void
SsspRunner::beginRun(const AlgOptions &opt)
{
    const auto n = static_cast<std::size_t>(g.numNodes());
    if (!frag) {
        fatal_if(opt.source >= g.numNodes(),
                 "SSSP source out of range");
    } else {
        fatal_if(opt.source >= part->numNodes(),
                 "SSSP source out of range");
    }

    delta = opt.ssspDelta;
    panic_if(delta == 0, "SSSP delta left unresolved");

    std::fill(dist.host().begin(), dist.host().end(), infDist);
    gpuStreamKernel(
        sys, "sssp_init", gpu::Phase::Processing, n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.compute(2);
            rec.store(dist.addrOf(t), 4);
            rec.store(lookupTable.addrOf(t), 4);
        },
        dev);

    ops.begin(opt.mode);

    nf_n = 0;
    far_n = 0;
    farCur = 0;
    threshold = delta;
    const bool owned =
        !frag || part->ownerOf(opt.source) == frag->device;
    if (owned) {
        const NodeId src =
            frag ? part->localOf(opt.source) : opt.source;
        dist[src] = 0;
        nodeFrontier[0] = src;
        nf_n = 1;
    }
}

std::size_t
SsspRunner::expand(AlgMetrics &m)
{
    prepare(nf_n);

    // The enhanced SCU drops the worse-cost duplicates within the
    // frontier before the GPU sees them, and groups the survivors.
    const Refine refine{
        .bestCost =
            [&] {
                std::vector<std::uint32_t> costs;
                for (std::size_t i = 0; i < nf_n; ++i) {
                    for (std::uint32_t j = 0; j < counts[i]; ++j)
                        costs.push_back(srcDist[i] +
                                        gb.weights[indexes[i] + j]);
                }
                return costs;
            },
        .group = true};

    // The GPU sums each edge's weight and its source distance in the
    // gather. The SCU cannot add: it gathers the weights and
    // replicates the source distances (Algorithm 2), and a GPU
    // kernel sums the two streams.
    if (!ops.offloaded()) {
        const std::array<ExpandOutput, 2> outs{
            ExpandOutput{&edgeFrontier, &gb.edges},
            ExpandOutput{&weightFrontier, &gb.weights, &srcDist}};
        return ops.expand("sssp_expand", indexes, counts, nf_n, outs,
                          refine, m);
    }
    const std::array<ExpandOutput, 3> outs{
        ExpandOutput{&edgeFrontier, &gb.edges},
        ExpandOutput{&gatherWeights, &gb.weights},
        ExpandOutput{&replDist, nullptr, &srcDist}};
    const std::size_t ef_n = ops.expand("sssp_expand", indexes, counts,
                                        nf_n, outs, refine, m);
    for (std::size_t t = 0; t < ef_n; ++t)
        weightFrontier[t] = gatherWeights[t] + replDist[t];
    gpuStreamKernel(
        sys, "sssp_wf_add", gpu::Phase::Processing, ef_n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(gatherWeights.addrOf(t), 4);
            rec.load(replDist.addrOf(t), 4);
            rec.compute(6);
            rec.store(weightFrontier.addrOf(t), 4);
        },
        dev);
    return ef_n;
}

void
SsspRunner::nearIteration(AlgMetrics &m,
                          std::vector<BoundaryMsg> *outbox)
{
    const std::size_t ef_n = expand(m);
    contract(ef_n, m, outbox);

    // Near nodes: grouping only, the GPU lookup table already
    // deduplicated them (Section 4.5.2). The far pile's edges and
    // weights land at the same packed positions (Algorithm 2).
    nf_n = 0;
    const CompactStream near{&edgeFrontier, &nodeFrontier};
    ops.compact("sssp_near_compact", {&near, 1}, nearFlags, ef_n, nf_n,
                {.group = true}, m);
    const std::array<CompactStream, 2> far{
        CompactStream{&edgeFrontier, &farEdges[farCur]},
        CompactStream{&weightFrontier, &farWeights[farCur]}};
    ops.compact("sssp_far_compact", far, farFlags, ef_n, far_n, {}, m);
}

void
SsspRunner::farPhase(AlgMetrics &m)
{
    splitFarPile(far_n, threshold);
    m.gpuEdgeWork += far_n;

    // Both filtering and grouping apply to the far elements moving
    // into the node frontier (Section 4.5.2).
    Elems &fe = farEdges[farCur];
    Elems &fw = farWeights[farCur];
    const Refine refine{
        .bestCost =
            [&] {
                std::vector<std::uint32_t> costs;
                for (std::size_t t = 0; t < far_n; ++t) {
                    if (nearFlags[t])
                        costs.push_back(fw[t]);
                }
                return costs;
            },
        .group = true};
    std::size_t new_nf = 0;
    const CompactStream near{&fe, &nodeFrontier};
    ops.compact("sssp_farphase_near", {&near, 1}, nearFlags, far_n,
                new_nf, refine, m);

    const unsigned nxt = 1 - farCur;
    std::size_t new_far = 0;
    const std::array<CompactStream, 2> far{
        CompactStream{&fe, &farEdges[nxt]},
        CompactStream{&fw, &farWeights[nxt]}};
    ops.compact("sssp_farphase_far", far, farFlags, far_n, new_far, {},
                m);
    farCur = nxt;
    far_n = new_far;
    nf_n = new_nf;
}

void
SsspRunner::acceptRemote(std::span<const BoundaryMsg> msgs)
{
    if (msgs.empty())
        return;
    panic_if(!frag, "acceptRemote on an unpartitioned SSSP runner");

    std::size_t t = 0;
    for (const BoundaryMsg &msg : msgs) {
        const NodeId l = part->localOf(msg.node);
        inbox[t % inbox.size()] = msg.node;
        ++t;
        if (msg.value >= dist[l])
            continue;
        dist[l] = msg.value;
        if (msg.value <= threshold) {
            panic_if(nf_n >= nodeFrontier.size(),
                     "node frontier overflow on remote inject");
            nodeFrontier[nf_n++] = l;
        } else {
            panic_if(far_n >= farEdges[farCur].size(),
                     "far pile overflow on remote inject");
            farEdges[farCur][far_n] = l;
            farWeights[farCur][far_n] = msg.value;
            ++far_n;
        }
    }

    // Timing: one thread per message — load it, compare against the
    // label, conditionally relax and append.
    gpuStreamKernel(
        sys, "sssp_inject_remote", gpu::Phase::Processing,
        msgs.size(),
        [&](std::uint64_t i, gpu::ThreadRecorder &rec) {
            rec.load(inbox.addrOf(i % inbox.size()), 8);
            const NodeId l = part->localOf(msgs[i].node);
            rec.load(dist.addrOf(l), 4);
            rec.compute(14);
            rec.atomic(dist.addrOf(l), 4);
        },
        dev);
}

void
SsspRunner::collect(std::vector<std::uint32_t> &globalDist) const
{
    const NodeId owned = frag ? frag->numInner : g.numNodes();
    for (NodeId l = 0; l < owned; ++l)
        globalDist[frag ? frag->toGlobal[l] : l] = dist[l];
}

} // namespace scusim::alg
