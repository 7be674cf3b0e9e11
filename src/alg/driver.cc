#include "alg/driver.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "mem/interconnect.hh"

namespace scusim::alg
{

namespace
{

/** Per-message wire size: global node id + one payload word. */
constexpr unsigned msgBytes = 8;

/**
 * The devices of one run: a runner per device (over its fragment, or
 * over the parent graph when there is no partition), each device's
 * work metrics and its boundary mailboxes.
 */
template <class Runner>
struct Devices
{
    Devices(harness::System &s, const graph::CsrGraph &g,
            const graph::GraphPartition *p)
        : sys(s), part(p), count(s.deviceCount()), met(count),
          outbox(count), inbox(count)
    {
        fatal_if(part ? part->numFragments() != count : count != 1,
                 "%u devices need a partition with one fragment each",
                 count);
        for (DeviceId d = 0; d < count; ++d) {
            runners.push_back(std::make_unique<Runner>(
                sys, d, part ? part->fragment(d).csr : g, part));
        }
    }

    Runner &operator[](DeviceId d) { return *runners[d]; }

    /** Where device @p d reports boundary messages; null with one
     *  device, which has no boundary. */
    std::vector<BoundaryMsg> *
    outboxOf(DeviceId d)
    {
        return count > 1 ? &outbox[d] : nullptr;
    }

    /**
     * Barrier exchange: push every outbox message onto the modeled
     * interconnect (stalling on link back-pressure), advance the
     * simulation until everything is delivered, then hand each
     * device its arrivals. No-op (and no simulated time) with one
     * device or when no device has anything to say.
     */
    void
    exchange()
    {
        if (count == 1)
            return;
        std::size_t total = 0;
        for (const auto &out : outbox)
            total += out.size();
        if (total == 0)
            return;

        auto &icn = sys.interconnect();
        auto &sim = sys.simulation();
        for (DeviceId d = 0; d < count; ++d) {
            for (const BoundaryMsg &m : outbox[d]) {
                const DeviceId dst = part->ownerOf(m.node);
                panic_if(dst == d,
                         "boundary message %u addressed to its sender",
                         m.node);
                while (!icn.canSend(d, dst))
                    sim.step(1);
                icn.send(mem::IcnMessage{d, dst, m.node, m.value,
                                         msgBytes},
                         sim.now());
            }
            outbox[d].clear();
        }
        sim.run();
        for (DeviceId d = 0; d < count; ++d) {
            inbox[d].clear();
            for (const mem::IcnMessage &m : icn.drain(d))
                inbox[d].push_back(BoundaryMsg{m.a, m.b});
        }
        for (DeviceId d = 0; d < count; ++d)
            runners[d]->acceptRemote(inbox[d]);
    }

    /** Gather every device's owned results into one global array. */
    template <class T>
    std::vector<T>
    collect(NodeId numNodes, T fill) const
    {
        std::vector<T> out(numNodes, fill);
        for (const auto &r : runners)
            r->collect(out);
        return out;
    }

    /** Sum the devices' work metrics into @p agg and hand out the
     *  per-device slices. */
    void
    finish(AlgMetrics &agg, std::vector<AlgMetrics> *perDevice) const
    {
        for (const AlgMetrics &m : met) {
            agg.gpuEdgeWork += m.gpuEdgeWork;
            agg.rawExpanded += m.rawExpanded;
            agg.scuFiltered += m.scuFiltered;
        }
        if (perDevice)
            *perDevice = met;
    }

    harness::System &sys;
    const graph::GraphPartition *part;
    const unsigned count;
    std::vector<std::unique_ptr<Runner>> runners;
    std::vector<AlgMetrics> met;
    std::vector<std::vector<BoundaryMsg>> outbox;
    std::vector<std::vector<BoundaryMsg>> inbox;
};

} // namespace

BfsResult
runBfs(harness::System &sys, const graph::CsrGraph &g,
       const graph::GraphPartition *part, const AlgOptions &opt,
       std::vector<AlgMetrics> *perDevice)
{
    Devices<BfsRunner> dev(sys, g, part);
    for (DeviceId d = 0; d < dev.count; ++d)
        dev[d].beginRun(opt);

    auto anyFrontier = [&] {
        for (DeviceId d = 0; d < dev.count; ++d) {
            if (!dev[d].frontierEmpty())
                return true;
        }
        return false;
    };

    BfsResult res;
    std::uint32_t level = 0;
    while (anyFrontier() && level < opt.maxIterations) {
        ++level;
        ++res.metrics.iterations;
        for (DeviceId d = 0; d < dev.count; ++d) {
            if (dev[d].frontierEmpty())
                continue;
            ++dev.met[d].iterations;
            dev[d].runLevel(level, dev.met[d], dev.outboxOf(d));
        }
        dev.exchange();
    }

    res.dist = dev.collect(g.numNodes(), infDist);
    dev.finish(res.metrics, perDevice);
    return res;
}

SsspResult
runSssp(harness::System &sys, const graph::CsrGraph &g,
        const graph::GraphPartition *part, const AlgOptions &opt,
        std::vector<AlgMetrics> *perDevice)
{
    // Fragment-local average weights diverge between devices, so the
    // near/far delta is fixed once, from the whole graph.
    AlgOptions o = opt;
    if (o.ssspDelta == 0) {
        double avg = 0;
        for (auto w : g.weightArray())
            avg += w;
        avg = g.numEdges() ? avg / static_cast<double>(g.numEdges())
                           : 1.0;
        o.ssspDelta = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(avg * 4.0));
    }

    Devices<SsspRunner> dev(sys, g, part);
    for (DeviceId d = 0; d < dev.count; ++d)
        dev[d].beginRun(o);

    auto anyNear = [&] {
        for (DeviceId d = 0; d < dev.count; ++d) {
            if (!dev[d].nearEmpty())
                return true;
        }
        return false;
    };
    auto allFarEmpty = [&] {
        for (DeviceId d = 0; d < dev.count; ++d) {
            if (!dev[d].farEmpty())
                return false;
        }
        return true;
    };

    SsspResult res;
    unsigned iters = 0;
    while (iters < o.maxIterations) {
        // ------- Near phase: drain every node frontier -----------
        while (anyNear() && iters < o.maxIterations) {
            ++iters;
            ++res.metrics.iterations;
            for (DeviceId d = 0; d < dev.count; ++d) {
                if (dev[d].nearEmpty())
                    continue;
                ++dev.met[d].iterations;
                dev[d].nearIteration(dev.met[d], dev.outboxOf(d));
            }
            dev.exchange();
        }

        if (!anyNear() && allFarEmpty())
            break;

        // ------- Far phase: raise the threshold and re-split -----
        for (DeviceId d = 0; d < dev.count; ++d)
            dev[d].advanceThreshold();
        if (allFarEmpty())
            continue;
        for (DeviceId d = 0; d < dev.count; ++d) {
            if (!dev[d].farEmpty())
                dev[d].farPhase(dev.met[d]);
        }
    }

    res.dist = dev.collect(g.numNodes(), infDist);
    dev.finish(res.metrics, perDevice);
    return res;
}

PrResult
runPr(harness::System &sys, const graph::CsrGraph &g,
      const graph::GraphPartition *part, const AlgOptions &opt,
      std::vector<AlgMetrics> *perDevice)
{
    Devices<PageRankRunner> dev(sys, g, part);
    for (DeviceId d = 0; d < dev.count; ++d)
        dev[d].beginRun(opt);

    PrResult res;
    for (unsigned it = 0; it < opt.prMaxIterations; ++it) {
        ++res.metrics.iterations;
        for (DeviceId d = 0; d < dev.count; ++d) {
            ++dev.met[d].iterations;
            dev[d].iterate(dev.met[d], dev.outboxOf(d));
        }
        dev.exchange();
        float max_delta = 0.0f;
        for (DeviceId d = 0; d < dev.count; ++d)
            max_delta = std::max(max_delta, dev[d].dampen());
        if (max_delta < static_cast<float>(opt.prEpsilon)) {
            res.converged = true;
            break;
        }
    }

    res.ranks = dev.collect(g.numNodes(), 0.0f);
    dev.finish(res.metrics, perDevice);
    return res;
}

} // namespace scusim::alg
