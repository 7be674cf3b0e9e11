#include "scu/pipeline.hh"

#include <algorithm>

#include "common/bits.hh"
#include "sim/check.hh"

namespace scusim::scu
{

namespace
{
constexpr Addr noLine = static_cast<Addr>(-1);
} // namespace

ScuPipeline::ScuPipeline(const ScuParams &params, mem::MemSystem &m,
                         sim::TickQueue &window, Tick start)
    : p(params), mem(m), lineBytes(m.l2().params().lineBytes),
      startTick(start + params.opSetupCycles), txnIssue(startTick),
      memReady(startTick), lastGatherLine(noLine),
      lastWriteLine(noLine), lastHashLine(noLine), inflight(window),
      // The Data Fetch FIFO (38 KB, Table 1) tracks outstanding read
      // requests at 4 B per descriptor: the unit tolerates full
      // memory latency with thousands of requests in flight. (The
      // coalescing unit's 32-entry figure is its merge CAM, modeled
      // by the line-merge checks.) The L2 MSHRs bound realized
      // parallelism.
      windowSlots(static_cast<std::size_t>(params.fifoRequestBytes / 4))
{
    lastLine.fill(noLine);
    inflight.clear();
}

Tick
ScuPipeline::portTick(std::uint64_t issued) const
{
    // Each port sustains pipelineWidth transactions per cycle, so a
    // width-4 SCU can keep four elements per cycle moving even when
    // every element needs its own hash probe.
    return startTick + issued / std::max(1u, p.pipelineWidth);
}

void
ScuPipeline::issueRead(Addr line_addr, unsigned bytes)
{
    Tick t = std::max(txnIssue, portTick(readsIssued));
    ++readsIssued;
    while (!inflight.empty() && inflight.top() <= t)
        inflight.pop();
    if (inflight.size() >= windowSlots) {
        t = std::max(t, inflight.top());
        inflight.pop();
    }
    // Streaming data has no reuse: bypass L2 allocation so the
    // in-memory hash tables stay cache resident.
    auto r = mem.access(t, line_addr, mem::AccessKind::ReadNoAlloc,
                        bytes);
    inflight.push(r.complete);
    traffic.maxInflight =
        std::max<std::uint64_t>(traffic.maxInflight, inflight.size());
    sim::checkOccupancy("scu inflight window", inflight.size(),
                        windowSlots);
    memReady = std::max(memReady, r.complete);
    txnIssue = t;
    ++traffic.readTxns;
}

void
ScuPipeline::seqRead(Stream s, Addr addr, unsigned bytes)
{
    Addr line = alignDown(addr, lineBytes);
    Addr end_line = alignDown(addr + bytes - 1, lineBytes);
    auto &last = lastLine[static_cast<unsigned>(s)];
    for (Addr l = line; l <= end_line; l += lineBytes) {
        if (l != last) {
            issueRead(l, lineBytes);
            last = l;
        }
    }
}

void
ScuPipeline::gatherRead(Addr addr, unsigned bytes)
{
    // Gathers fetch 32 B sectors: sparse accesses must not pay for
    // (or occupy the bus with) a full line of mostly-unused data.
    constexpr unsigned sector = 32;
    Addr first = alignDown(addr, sector);
    Addr last_sector = alignDown(addr + bytes - 1, sector);
    for (Addr sctr = first; sctr <= last_sector; sctr += sector) {
        if (sctr != lastGatherLine) {
            issueRead(sctr, sector);
            lastGatherLine = sctr;
        }
    }
}

void
ScuPipeline::seqWrite(Addr addr, unsigned bytes)
{
    Addr line = alignDown(addr, lineBytes);
    Addr end_line = alignDown(addr + bytes - 1, lineBytes);
    for (Addr l = line; l <= end_line; l += lineBytes) {
        if (l != lastWriteLine) {
            // Posted write through the Data Store's own port; it
            // reserves memory occupancy but nothing waits on it.
            // Allocating write: the compacted output is consumed by
            // the GPU right after the operation, so it flows through
            // the (shared) L2.
            Tick t = portTick(storesIssued);
            ++storesIssued;
            mem.access(t, l, mem::AccessKind::Write, lineBytes);
            ++traffic.writeTxns;
            lastWriteLine = l;
        }
    }
}

void
ScuPipeline::hashAccess(Addr addr, bool write, unsigned read_bytes)
{
    // One probe event per element: the filtering/grouping unit reads
    // the set and, if needed, updates the entry in the same pipelined
    // probe, so the port advances once regardless. Transfers are
    // sector granular (the probed set, not a whole line).
    Addr line = alignDown(addr, lineBytes);
    Tick t = portTick(hashIssued);
    ++hashIssued;
    if (line != lastHashLine) {
        auto r = mem.access(t, line, mem::AccessKind::Read,
                            read_bytes);
        memReady = std::max(memReady, r.complete);
        ++traffic.hashReadTxns;
        lastHashLine = line;
    }
    if (write) {
        mem.access(t, line, mem::AccessKind::Write, 32);
        ++traffic.hashWriteTxns;
    }
}

Tick
ScuPipeline::finish()
{
    const Tick throughput =
        startTick + divCeil(traffic.elements,
                            std::max(1u, p.pipelineWidth));
    const Tick ports =
        std::max({portTick(readsIssued), portTick(storesIssued),
                  portTick(hashIssued)});
    return std::max({throughput, memReady, txnIssue, ports}) +
           p.opDrainCycles;
}

} // namespace scusim::scu
