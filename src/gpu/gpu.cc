#include "gpu/gpu.hh"

#include <algorithm>
#include <array>

#include "common/bits.hh"
#include "common/logging.hh"
#include "trace/trace.hh"

namespace scusim::gpu
{

Gpu::Gpu(const GpuParams &params, mem::MemSystem &mem,
         sim::Simulation &simulation, stats::StatGroup *parent)
    : p(params), sim(simulation), grp("gpu", parent)
{
    panic_if(p.warpSize == 0 || p.warpSize > 64,
             "warpSize %u outside the 64-bit lane mask", p.warpSize);
    for (unsigned i = 0; i < p.numSms; ++i) {
        sms.push_back(std::make_unique<StreamingMultiprocessor>(
            p, i, &mem, &grp, &sim));
        sim.addClocked(sms.back().get(),
                       "sm" + std::to_string(i));
    }
}

void
Gpu::attachTrace(trace::TraceSink &sink, const std::string &prefix)
{
    traceChan = sink.channel(prefix + "gpu");
    for (std::size_t i = 0; i < sms.size(); ++i)
        sms[i]->setTraceChannel(
            sink.channel(prefix + "sm" + std::to_string(i)));
}

void
Gpu::buildWarp(const KernelLaunch &k, std::uint64_t warp_id,
               unsigned warp_size, Warp &out)
{
    const std::uint64_t first = warp_id * warp_size;
    const auto lanes = static_cast<unsigned>(
        std::min<std::uint64_t>(warp_size, k.numThreads - first));
    out.threads = lanes;
    WarpRecorder rec(first, lanes, out);
    k.body(first, lanes, rec);
}

KernelBody
perThread(ThreadBody body)
{
    return [body = std::move(body)](std::uint64_t first, unsigned lanes,
                                    WarpRecorder &rec) {
        // Record every lane back to back into one recorder: lane i's
        // ops are ops[pos[i], end[i]), and bit i of `live` is set
        // while lane i has ops left.
        thread_local ThreadRecorder lane_ops;
        lane_ops.clear();
        std::array<std::uint32_t, 64> pos{};
        std::array<std::uint32_t, 64> end{};
        std::uint64_t live = 0;
        for (unsigned i = 0; i < lanes; ++i) {
            pos[i] = static_cast<std::uint32_t>(lane_ops.size());
            body(first + i, lane_ops);
            end[i] = static_cast<std::uint32_t>(lane_ops.size());
            if (end[i] != pos[i])
                live |= std::uint64_t{1} << i;
        }
        const ThreadOp *ops = lane_ops.recorded().data();

        // Positional SIMT merge, led by the lowest live lane.
        std::array<Addr, 64> addr{};
        const auto addr_of = [&](std::uint64_t t) {
            return addr[t - first];
        };
        while (live) {
            const ThreadOp::Kind kind = ops[pos[ctz64(live)]].kind;
            std::uint32_t count = 0;
            std::uint64_t mask = 0;
            for (std::uint64_t m = live; m; m &= m - 1) {
                const unsigned i = ctz64(m);
                const ThreadOp &op = ops[pos[i]];
                if (op.kind != kind)
                    continue;
                count = std::max(count, op.count);
                addr[i] = op.addr;
                mask |= std::uint64_t{1} << i;
                if (++pos[i] == end[i])
                    live &= ~(std::uint64_t{1} << i);
            }
            switch (kind) {
            case ThreadOp::Kind::Compute:
                rec.compute(count);
                break;
            case ThreadOp::Kind::Load:
                rec.load(addr_of, count, mask);
                break;
            case ThreadOp::Kind::Store:
                rec.store(addr_of, count, mask);
                break;
            case ThreadOp::Kind::Atomic:
                rec.atomic(addr_of, count, mask);
                break;
            }
        }
    };
}

KernelStats
Gpu::launch(const KernelLaunch &k)
{
    KernelStats ks;
    ks.name = k.name;
    ks.phase = k.phase;

    // Host-side launch latency.
    sim.step(launchOverhead());
    ks.startTick = sim.now();

    if (k.numThreads > 0) {
        const std::uint64_t num_warps =
            (k.numThreads + p.warpSize - 1) / p.warpSize;

        // Warp w runs on SM (w % numSms); each SM pulls its next warp
        // lazily when a slot frees up. Each SM's WarpSource owns its
        // copy of the lambda, so the cursor is a by-value capture.
        for (unsigned s = 0; s < p.numSms; ++s) {
            sms[s]->beginKernel(
                [this, &k, next = std::uint64_t{s},
                 num_warps](Warp &out) mutable {
                    if (next >= num_warps)
                        return false;
                    buildWarp(k, next, p.warpSize, out);
                    next += p.numSms;
                    return true;
                },
                &ks);
        }
        sim.run();
        for (auto &sm : sms)
            sm->endKernel(sim.now());
    }

    ks.endTick = sim.now();
    TRACE_EVENT_SPAN(traceChan, trace::Category::Kernel,
                     ks.name.empty() ? std::string("kernel") : ks.name,
                     ks.startTick, ks.endTick, k.numThreads);

    ++agg.launches;
    if (k.phase == Phase::Compaction) {
        agg.compaction.accumulate(ks);
        agg.compactionCycles += ks.cycles();
    } else {
        agg.processing.accumulate(ks);
        agg.processingCycles += ks.cycles();
    }
    return ks;
}

double
Gpu::smActiveCycles() const
{
    double c = 0;
    for (const auto &sm : sms)
        c += sm->activeCycles();
    return c;
}

double
Gpu::l1Accesses() const
{
    double c = 0;
    for (const auto &sm : sms)
        c += sm->l1().numAccesses();
    return c;
}

} // namespace scusim::gpu
