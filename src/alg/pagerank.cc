#include "alg/pagerank.hh"

#include <array>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace scusim::alg
{

namespace
{
constexpr float dampening = 0.15f; ///< the paper's alpha

float
asFloat(std::uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

std::uint32_t
asBits(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

} // namespace

PageRankRunner::PageRankRunner(harness::System &s, DeviceId d,
                               const graph::CsrGraph &graph,
                               const graph::GraphPartition *p)
    : sys(s), dev(d), part(p),
      frag(p ? &p->fragment(d) : nullptr), g(graph),
      gb(s.addressSpace(d), graph),
      ops(s, d, static_cast<std::size_t>(graph.numEdges()) + 1024)
{
    auto &as = sys.addressSpace(dev);
    const auto n = static_cast<std::size_t>(g.numNodes());
    const auto m = static_cast<std::size_t>(g.numEdges());

    rankBits.allocate(as, "pr_rank", n);
    newRankBits.allocate(as, "pr_new_rank", n);
    contribBits.allocate(as, "pr_contrib", n);
    counts.allocate(as, "pr_counts", n);
    indexes.allocate(as, "pr_indexes", n);
    edgeFrontier.allocate(as, "pr_edge_frontier", m + 1);
    weightFrontier.allocate(as, "pr_weight_frontier", m + 1);
    if (part && part->numFragments() > 1)
        inbox.allocate(as, "pr_inbox", n + 1);
}

void
PageRankRunner::beginRun(const AlgOptions &opt)
{
    const auto n = static_cast<std::size_t>(g.numNodes());
    ops.begin(opt.mode);

    // Initialization: rank <- 1, accumulators <- 0.
    for (std::size_t u = 0; u < n; ++u) {
        rankBits[u] = asBits(1.0f);
        newRankBits[u] = asBits(0.0f);
    }
    gpuStreamKernel(
        sys, "pr_init", gpu::Phase::Processing, n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.compute(2);
            rec.store(rankBits.addrOf(t), 4);
            rec.store(newRankBits.addrOf(t), 4);
        },
        dev);
}

void
PageRankRunner::iterate(AlgMetrics &m,
                        std::vector<BoundaryMsg> *outbox)
{
    const auto n = static_cast<std::size_t>(g.numNodes());

    // --- Expansion preparation (Section 2.3.1) ------------------
    // Ghost rows are empty in the fragment CSR, so their degree —
    // and contribution — is zero: every edge is expanded by the
    // device owning its source.
    for (std::size_t u = 0; u < n; ++u) {
        const std::uint32_t deg = gb.offsets[u + 1] - gb.offsets[u];
        counts[u] = deg;
        indexes[u] = gb.offsets[u];
        contribBits[u] =
            deg ? asBits(asFloat(rankBits[u]) /
                         static_cast<float>(deg))
                : asBits(0.0f);
    }
    gpuStreamKernel(
        sys, "pr_prepare", gpu::Phase::Processing, n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(rankBits.addrOf(t), 4);
            rec.load(gb.offsets.addrOf(t), 4);
            rec.load(gb.offsets.addrOf(t + 1), 4);
            rec.compute(16);
            rec.store(contribBits.addrOf(t), 4);
            rec.store(counts.addrOf(t), 4);
            rec.store(indexes.addrOf(t), 4);
        },
        dev);

    // --- Expansion (Algorithm 3) --------------------------------
    // Edge frontier plus replicated, pre-divided ranks; PR uses no
    // filtering or grouping (Section 4.6).
    const std::array<ExpandOutput, 2> outs{
        ExpandOutput{&edgeFrontier, &gb.edges},
        ExpandOutput{&weightFrontier, nullptr, &contribBits}};
    const std::size_t ef_n =
        ops.expand("pr_expand", indexes, counts, n, outs, {}, m);
    m.gpuEdgeWork += ef_n;

    // --- Rank update (Section 2.3.2): atomicAdd per edge ---------
    for (std::size_t t = 0; t < ef_n; ++t) {
        const NodeId v = edgeFrontier[t];
        newRankBits[v] = asBits(asFloat(newRankBits[v]) +
                                asFloat(weightFrontier[t]));
    }
    gpuStreamKernel(
        sys, "pr_rank_update", gpu::Phase::Processing, ef_n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(edgeFrontier.addrOf(t), 4);
            rec.load(weightFrontier.addrOf(t), 4);
            rec.compute(12);
            rec.atomic(newRankBits.addrOf(edgeFrontier[t]), 4);
        },
        dev);

    // --- Ghost flush: forward remote contributions ---------------
    if (frag && frag->numOuter > 0 && outbox) {
        for (NodeId l = frag->numInner; l < frag->numLocal(); ++l) {
            const std::uint32_t bits = newRankBits[l];
            if (asFloat(bits) != 0.0f) {
                outbox->push_back(
                    BoundaryMsg{frag->toGlobal[l], bits});
                newRankBits[l] = asBits(0.0f);
            }
        }
        gpuStreamKernel(
            sys, "pr_ghost_flush", gpu::Phase::Processing,
            frag->numOuter,
            [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
                rec.load(newRankBits.addrOf(frag->numInner + t), 4);
                rec.compute(6);
                rec.store(newRankBits.addrOf(frag->numInner + t), 4);
            },
            dev);
    }
}

void
PageRankRunner::acceptRemote(std::span<const BoundaryMsg> msgs)
{
    if (msgs.empty())
        return;
    panic_if(!frag, "acceptRemote on an unpartitioned PR runner");

    std::size_t t = 0;
    for (const BoundaryMsg &msg : msgs) {
        const NodeId l = part->localOf(msg.node);
        inbox[t % inbox.size()] = msg.node;
        ++t;
        newRankBits[l] = asBits(asFloat(newRankBits[l]) +
                                asFloat(msg.value));
    }
    gpuStreamKernel(
        sys, "pr_inject_remote", gpu::Phase::Processing, msgs.size(),
        [&](std::uint64_t i, gpu::ThreadRecorder &rec) {
            rec.load(inbox.addrOf(i % inbox.size()), 8);
            const NodeId l = part->localOf(msgs[i].node);
            rec.compute(8);
            rec.atomic(newRankBits.addrOf(l), 4);
        },
        dev);
}

float
PageRankRunner::dampen()
{
    const auto n = static_cast<std::size_t>(g.numNodes());
    const std::size_t lim =
        frag ? static_cast<std::size_t>(frag->numInner) : n;

    // --- Dampening + convergence check (2.3.3 / 2.3.4) -----------
    float max_delta = 0.0f;
    for (std::size_t u = 0; u < lim; ++u) {
        const float next =
            dampening + (1.0f - dampening) * asFloat(newRankBits[u]);
        max_delta = std::max(
            max_delta, std::fabs(next - asFloat(rankBits[u])));
        rankBits[u] = asBits(next);
        newRankBits[u] = asBits(0.0f);
    }
    gpuStreamKernel(
        sys, "pr_dampen", gpu::Phase::Processing, lim,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(newRankBits.addrOf(t), 4);
            rec.load(rankBits.addrOf(t), 4);
            rec.compute(12);
            rec.store(rankBits.addrOf(t), 4);
            rec.store(newRankBits.addrOf(t), 4);
        },
        dev);
    // The convergence reduction is fused into the dampening
    // pass above (one extra compare per node plus a per-block
    // reduction, charged as compute).
    return max_delta;
}

void
PageRankRunner::collect(std::vector<float> &ranks) const
{
    const NodeId owned = frag ? frag->numInner : g.numNodes();
    for (NodeId l = 0; l < owned; ++l)
        ranks[frag ? frag->toGlobal[l] : l] = asFloat(rankBits[l]);
}

} // namespace scusim::alg
