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
    const std::uint64_t last =
        std::min<std::uint64_t>(first + warp_size, k.numThreads);
    const unsigned threads = static_cast<unsigned>(last - first);
    out.threads = threads;

    // Record every lane back to back into one recorder: lane i's ops
    // are ops[pos[i], end[i]), and bit i of `live` is set while lane
    // i has ops left.
    thread_local ThreadRecorder rec;
    rec.clear();
    std::array<std::uint32_t, 64> pos{};
    std::array<std::uint32_t, 64> end{};
    std::uint64_t live = 0;
    for (unsigned i = 0; i < threads; ++i) {
        pos[i] = static_cast<std::uint32_t>(rec.size());
        k.body(first + i, rec);
        end[i] = static_cast<std::uint32_t>(rec.size());
        if (end[i] != pos[i])
            live |= std::uint64_t{1} << i;
    }
    const ThreadOp *ops = rec.recorded().data();

    // Positional SIMT merge, led by the lowest live lane. The lane
    // loop accumulates into locals: written through `wi`, every field
    // update would be reloaded after each address-slot store.
    while (live) {
        const ThreadOp::Kind kind = ops[pos[ctz64(live)]].kind;
        WarpInstr wi;
        wi.kind = kind;
        Addr *slots = nullptr;
        if (kind != ThreadOp::Kind::Compute) {
            // Slot-per-lane handoff: lane i's address lives in slot
            // addrBase + i, the mask says which slots participate.
            wi.addrBase = static_cast<std::uint32_t>(out.addrs.size());
            out.addrs.resize(out.addrs.size() + threads, 0);
            slots = out.addrs.data() + wi.addrBase;
        }
        std::uint32_t count = 0;
        std::uint64_t mask = 0;
        for (std::uint64_t m = live; m; m &= m - 1) {
            const unsigned i = ctz64(m);
            const ThreadOp &op = ops[pos[i]];
            if (op.kind != kind)
                continue;
            count = std::max(count, op.count);
            if (slots)
                slots[i] = op.addr;
            mask |= std::uint64_t{1} << i;
            if (++pos[i] == end[i])
                live &= ~(std::uint64_t{1} << i);
        }
        // A compute step issues at least once; a memory step moves at
        // least the default 4 bytes per lane.
        if (kind == ThreadOp::Kind::Compute) {
            wi.computeCount = std::max(count, 1u);
        } else {
            wi.laneMask = mask;
            wi.bytesPerLane = std::max(wi.bytesPerLane, count);
        }
        out.instrs.push_back(wi);
    }
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
