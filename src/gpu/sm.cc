#include "gpu/sm.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>

#include "common/logging.hh"
#include "sim/check.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "trace/trace.hh"

namespace scusim::gpu
{

namespace
{

/** Process-wide issue-path override: -1 unset, else SmIssuePath. */
std::atomic<int> pathOverride{-1};

} // namespace

SmIssuePath
StreamingMultiprocessor::defaultIssuePath()
{
    const int o = pathOverride.load(std::memory_order_relaxed);
    if (o >= 0)
        return static_cast<SmIssuePath>(o);
    return SmIssuePath::SoaMasked;
}

void
StreamingMultiprocessor::overrideDefaultIssuePath(SmIssuePath p)
{
    pathOverride.store(static_cast<int>(p),
                       std::memory_order_relaxed);
}

void
StreamingMultiprocessor::clearDefaultIssuePathOverride()
{
    pathOverride.store(-1, std::memory_order_relaxed);
}

StreamingMultiprocessor::StreamingMultiprocessor(
    const GpuParams &params, unsigned id, mem::MemLevel *shared_mem,
    stats::StatGroup *parent, sim::Simulation *sim)
    : p(params), smId(id), sharedMem(shared_mem), simPtr(sim),
      l1Cache(params.l1, shared_mem, parent),
      path(defaultIssuePath()),
      grp(std::string("sm") + std::to_string(id), parent),
      smActiveCycles(&grp, "active_cycles",
                     "cycles with at least one resident warp"),
      issuedInstrs(&grp, "issued_instrs", "warp instructions issued"),
      issueStallCycles(&grp, "issue_stalls",
                       "cycles with residents but nothing issuable")
{
    panic_if(p.maxResidentWarps() > kMaxWarpSlots,
             "maxResidentWarps %u exceeds the %u-slot ready mask",
             p.maxResidentWarps(), kMaxWarpSlots);
    // Every pool body starts spare; index 0 is handed out first.
    bodies.resize(p.maxResidentWarps());
    for (unsigned i = p.maxResidentWarps(); i-- > 0;)
        spare.push_back(static_cast<std::uint8_t>(i));
    wBody.reserve(p.maxResidentWarps());
    wBlocked.reserve(p.maxResidentWarps());
    wPc.reserve(p.maxResidentWarps());
    wComputeLeft.reserve(p.maxResidentWarps());
    wNumInstrs.reserve(p.maxResidentWarps());
    wake.reserve(p.maxResidentWarps());
}

void
StreamingMultiprocessor::beginKernel(WarpSource source,
                                     KernelStats *sink)
{
    panic_if(!wBody.empty(), "beginKernel on a busy SM");
    warpSource = std::move(source);
    kstats = sink;
    sourceDry = false;
    refill();
}

void
StreamingMultiprocessor::endKernel(Tick now)
{
    panic_if(busy(now) || nextWakeTick() != tickNever,
             "endKernel on a busy SM");
    warpSource = nullptr;
    kstats = nullptr;
    // The MSHR high-water trace counter tracks one kernel's FIFO
    // peak, not a monotone across launches.
    mshrHighWater = 0;
    // GPU L1s are not kept coherent across kernel launches.
    l1Cache.invalidateAll(now);
}

void
StreamingMultiprocessor::refill()
{
    while (!sourceDry && wBody.size() < p.maxResidentWarps()) {
        // A free slot means a spare body: hand the source its buffers,
        // cleared, and take them back filled.
        const std::uint8_t idx = spare.back();
        WarpBody &b = bodies[idx];
        Warp w;
        w.instrs = std::move(b.instrs);
        w.addrs = std::move(b.addrs);
        w.instrs.clear();
        w.addrs.clear();
        const bool got = warpSource && warpSource(w);
        b.instrs = std::move(w.instrs);
        b.addrs = std::move(w.addrs);
        if (!got) {
            sourceDry = true;
            break;
        }
        spare.pop_back();
        b.threads = w.threads;
        if (kstats) {
            ++kstats->warps;
            kstats->threads += w.threads;
        }
        const std::size_t s = wBody.size();
        const std::uint64_t bit = std::uint64_t{1} << s;
        wBody.push_back(idx);
        wBlocked.push_back(w.blockedUntil);
        wPc.push_back(static_cast<std::uint32_t>(w.pc));
        wComputeLeft.push_back(w.computeLeft);
        wNumInstrs.push_back(
            static_cast<std::uint32_t>(b.instrs.size()));
        if (wPc[s] >= wNumInstrs[s])
            doneMask |= bit;
        // A slot arriving blocked in the past is promoted by the
        // next advanceReady(); nothing reads the masks in between.
        if (wBlocked[s] == 0)
            readyMask |= bit;
        else
            addWake(s, wBlocked[s]);
    }
    recomputeWake();
}

void
StreamingMultiprocessor::addWake(std::size_t s, Tick at)
{
    // Descending order, so walk up from the earliest wake: most
    // blocks are a dependent-issue stall, which lands a few buckets
    // above the back. (A branch-free binary search measured slower.)
    std::size_t i = wake.size();
    while (i > 0 && wake[i - 1].at < at)
        --i;
    const std::uint64_t bit = std::uint64_t{1} << s;
    if (i > 0 && wake[i - 1].at == at)
        wake[i - 1].slots |= bit;
    else
        wake.insert(wake.begin() + static_cast<std::ptrdiff_t>(i),
                    {at, bit});
}

void
StreamingMultiprocessor::advanceReady(Tick now)
{
    while (!wake.empty() && wake.back().at <= now) {
        readyMask |= wake.back().slots;
        wake.pop_back();
    }
}

void
StreamingMultiprocessor::recomputeWake()
{
    // The back bucket covers the blocked slots exactly; folding in
    // the ready slots' (stale-low) blockedUntil reproduces the full
    // min without touching the non-resident tail.
    Tick t = blockedMin();
    for (std::uint64_t m = readyMask; m; m &= m - 1)
        t = std::min(t, wBlocked[ctz64(m)]);
    wakeCache = t;
    if constexpr (sim::checksEnabled) {
        Tick lin = tickNever;
        for (const Tick b : wBlocked)
            lin = std::min(lin, b);
        sim_check(wakeCache == lin,
                  "mask-folded wake %llu disagrees with linear scan "
                  "%llu (wake-bucket invariant broken)",
                  static_cast<unsigned long long>(wakeCache),
                  static_cast<unsigned long long>(lin));
        std::uint64_t bucketed = 0;
        for (std::size_t i = 0; i < wake.size(); ++i) {
            sim_check(i == 0 || wake[i - 1].at > wake[i].at,
                      "wake bucket %zu (tick %llu) out of order", i,
                      static_cast<unsigned long long>(wake[i].at));
            sim_check((bucketed & wake[i].slots) == 0,
                      "a slot sits in two wake buckets");
            bucketed |= wake[i].slots;
            for (std::uint64_t m = wake[i].slots; m; m &= m - 1) {
                const std::size_t s = ctz64(m);
                sim_check(wBlocked[s] == wake[i].at,
                          "slot %zu blocked until %llu sits in the "
                          "wake bucket for %llu",
                          s,
                          static_cast<unsigned long long>(wBlocked[s]),
                          static_cast<unsigned long long>(wake[i].at));
            }
        }
        const std::uint64_t blocked =
            maskLow(static_cast<unsigned>(wBody.size())) & ~readyMask;
        sim_check(bucketed == blocked,
                  "wake buckets hold %llx but the blocked set is %llx",
                  static_cast<unsigned long long>(bucketed),
                  static_cast<unsigned long long>(blocked));
    }
}

bool
StreamingMultiprocessor::busy(Tick now) const
{
    // Busy if a warp can issue or retire this cycle; warps that are
    // merely blocked on memory make the SM wake-able, not busy, so
    // the simulation fast-forwards over pure stall intervals.
    if (wBody.empty())
        return !sourceDry && warpSource != nullptr;
    return wakeCache <= now;
}

Tick
StreamingMultiprocessor::nextWakeTick() const
{
    return wBody.empty() ? tickNever : wakeCache;
}

Tick
StreamingMultiprocessor::executeMem(const WarpInstr &wi,
                                    std::span<const Addr> lanes,
                                    Tick now)
{
    // Coalesce the active lanes into line transactions. Atomics
    // cannot merge lanes: each distinct address is its own
    // read-modify-write at the L2.
    txnScratch.clear();
    std::size_t txns;
    if (wi.kind == ThreadOp::Kind::Atomic) {
        txns = mem::appendUniqueAddrs(lanes, wi.laneMask, txnScratch);
    } else {
        txns = mem::coalesceLanes(lanes, wi.laneMask, p.l1.lineBytes,
                                  txnScratch);
    }

    if (kstats) {
        ++kstats->warpMemInstrs;
        kstats->memTransactions += txns;
        kstats->memLanes += popcount64(wi.laneMask);
    }

    // The LSU injects transactions at its throughput.
    Tick start = std::max(now, lsuFree);
    lsuFree = start + (txns + p.lsuThroughput - 1) / p.lsuThroughput;

    Tick complete = start;
    Tick inject = start;
    for (Addr line : txnScratch) {
        if (wi.kind == ThreadOp::Kind::Load) {
            // Respect the outstanding-transaction budget.
            while (!outstandingLoads.empty() &&
                   outstandingLoads.top() <= inject) {
                outstandingLoads.pop();
            }
            if (outstandingLoads.size() >= p.maxOutstanding) {
                inject = std::max(inject, outstandingLoads.top());
                outstandingLoads.pop();
            }
            auto r = l1Cache.access(inject, line,
                                    mem::AccessKind::Read,
                                    p.l1.lineBytes);
            outstandingLoads.push(r.complete);
            // MSHR occupancy high-water mark, for the FIFO track.
            if (outstandingLoads.size() > mshrHighWater) {
                mshrHighWater = outstandingLoads.size();
                TRACE_EVENT_COUNTER(traceChan, trace::Category::Fifo,
                                    "outstanding_loads", inject,
                                    mshrHighWater);
            }
            complete = std::max(complete, r.complete);
        } else if (wi.kind == ThreadOp::Kind::Store) {
            auto r = l1Cache.access(inject, line,
                                    mem::AccessKind::Write,
                                    p.l1.lineBytes);
            complete = std::max(complete, inject + 1);
            (void)r;
        } else { // Atomic: performed at the L2, bypassing the L1.
            auto r = sharedMem->access(inject, line,
                                       mem::AccessKind::Atomic,
                                       wi.bytesPerLane);
            // Posted from the warp's perspective (no return value
            // consumed by our kernels), but the L2 bank occupancy
            // and DRAM traffic are fully accounted.
            complete = std::max(complete, inject + 1);
            (void)r;
        }
        ++inject;
    }
    return complete;
}

void
StreamingMultiprocessor::issueSlot(std::size_t s, Tick now)
{
    WarpBody &b = bodies[wBody[s]];
    WarpInstr &wi = b.instrs[wPc[s]];
    ++issuedInstrs;
    if (kstats) {
        ++kstats->warpInstrs;
        kstats->threadInstrs +=
            (wi.kind == ThreadOp::Kind::Compute)
                ? b.threads
                : popcount64(wi.laneMask);
    }

    Tick blocked_until;
    if (wi.kind == ThreadOp::Kind::Compute) {
        if (wComputeLeft[s] == 0)
            wComputeLeft[s] = wi.computeCount;
        if (--wComputeLeft[s] == 0 && ++wPc[s] >= wNumInstrs[s])
            doneMask |= std::uint64_t{1} << s;
        // Dependent issue: the warp waits out the ALU result
        // latency before its next instruction.
        blocked_until = now + p.depIssueLatency;
    } else {
        sim_check(wi.addrBase + b.threads <= b.addrs.size(),
                  "slot %zu: mem instr lanes [%u, %u) overrun the "
                  "%zu-entry address pool",
                  s, wi.addrBase, wi.addrBase + b.threads,
                  b.addrs.size());
        const Tick complete = executeMem(
            wi, std::span<const Addr>(b.addrs).subspan(wi.addrBase,
                                                       b.threads),
            now);
        if (++wPc[s] >= wNumInstrs[s])
            doneMask |= std::uint64_t{1} << s;
        blocked_until = wi.kind == ThreadOp::Kind::Load
                            ? complete
                            : now + p.depIssueLatency;
    }
    wBlocked[s] = blocked_until;
    if (blocked_until > now) {
        readyMask &= ~(std::uint64_t{1} << s);
        addWake(s, blocked_until);
    }
}

void
StreamingMultiprocessor::compactRetired(std::uint64_t retire)
{
    for (std::uint64_t m = retire; m; m &= m - 1)
        spare.push_back(wBody[ctz64(m)]);
    const std::size_t n = wBody.size();
    std::size_t k = 0;
    for (std::size_t j = 0; j < n; ++j) {
        if ((retire >> j) & 1)
            continue;
        if (k != j) {
            wBody[k] = wBody[j];
            wBlocked[k] = wBlocked[j];
            wPc[k] = wPc[j];
            wComputeLeft[k] = wComputeLeft[j];
            wNumInstrs[k] = wNumInstrs[j];
        }
        ++k;
    }
    wBody.resize(k);
    wBlocked.resize(k);
    wPc.resize(k);
    wComputeLeft.resize(k);
    wNumInstrs.resize(k);
    // Squeeze each retired bit out of every mask, highest first so
    // the lower positions stay put: bits above r move down one. No
    // bucket holds a retired (hence ready) slot, so buckets keep
    // their ticks and order.
    for (std::uint64_t m = retire; m;) {
        const unsigned r = 63 - static_cast<unsigned>(
                                    std::countl_zero(m));
        m &= ~(std::uint64_t{1} << r);
        const std::uint64_t low = maskLow(r);
        auto squeeze = [low](std::uint64_t v) {
            return (v & low) | ((v >> 1) & ~low);
        };
        readyMask = squeeze(readyMask);
        doneMask = squeeze(doneMask);
        for (WakeBucket &b : wake)
            b.slots = squeeze(b.slots);
    }
}

void
StreamingMultiprocessor::tickSoa(Tick now)
{
    advanceReady(now);
    smActiveCycles += 1;

    // Round-robin over the residents starting at the cursor, walking
    // only the slots that can actually issue: set bits of
    // ready & ~done, rotated so slots >= start go first. ctz visits
    // each half in ascending slot order, which is exactly the
    // reference scan's visit order restricted to issuable slots. A
    // wholly-blocked mask makes both loops vanish without touching
    // the warp arrays.
    unsigned issued = 0;
    const std::size_t n = wBody.size();
    const std::size_t start = rrCursor % n;
    const std::uint64_t cand = readyMask & ~doneMask;
    for (std::uint64_t m =
             cand & ~maskLow(static_cast<unsigned>(start));
         m && issued < p.issueWidth; m &= m - 1) {
        issueSlot(ctz64(m), now);
        ++issued;
    }
    for (std::uint64_t m =
             cand & maskLow(static_cast<unsigned>(start));
         m && issued < p.issueWidth; m &= m - 1) {
        issueSlot(ctz64(m), now);
        ++issued;
    }
    rrCursor = start + 1 == n ? 0 : start + 1;
    if (issued)
        noteProgress(issued);
    else
        issueStallCycles += 1;

    // Retire finished warps — a warp with its last memory access
    // still in flight stays resident until it completes (its ready
    // bit was cleared when the access issued, so done & ready is
    // precisely "done with nothing in flight").
    const std::uint64_t retire = readyMask & doneMask;
    const std::size_t retired = popcount64(retire);
    if (retire)
        compactRetired(retire);
    const std::size_t low = wBody.size();
    refill();
    const std::size_t added = wBody.size() - low;
    if (retired + added)
        noteProgress(retired + added);
}

void
StreamingMultiprocessor::tickReference(Tick now)
{
    // The oracle still runs advanceReady so the mask invariants stay
    // exact for the shared helpers; its scans below never read the
    // masks.
    advanceReady(now);
    smActiveCycles += 1;

    // Round-robin over the residents starting at the cursor. One
    // modulo normalizes the cursor (retirement may have shrunk the
    // list since last cycle); the walk itself wraps with a compare
    // instead of a per-iteration `(rrCursor + i) % n` divide.
    unsigned issued = 0;
    const std::size_t n = wBody.size();
    const std::size_t start = rrCursor % n;
    std::size_t idx = start;
    for (std::size_t i = 0; i < n && issued < p.issueWidth; ++i) {
        if (wPc[idx] < wNumInstrs[idx] && wBlocked[idx] <= now) {
            issueSlot(idx, now);
            ++issued;
        }
        if (++idx == n)
            idx = 0;
    }
    rrCursor = start + 1 == n ? 0 : start + 1;
    if (issued)
        noteProgress(issued);
    else
        issueStallCycles += 1;

    // Retire finished warps — a warp with its last memory access
    // still in flight stays resident until it completes.
    std::uint64_t retire = 0;
    for (std::size_t j = 0; j < n; ++j) {
        if (wPc[j] >= wNumInstrs[j] && wBlocked[j] <= now)
            retire |= std::uint64_t{1} << j;
    }
    const std::size_t retired = popcount64(retire);
    if (retire)
        compactRetired(retire);
    const std::size_t low = wBody.size();
    refill();
    const std::size_t added = wBody.size() - low;
    if (retired + added)
        noteProgress(retired + added);
}

void
StreamingMultiprocessor::tick(Tick now)
{
    if (simPtr) {
        // An injected FIFO stall: the SM stays busy but cannot
        // drain, so its progress counter freezes and the deadlock
        // watchdog eventually fires.
        if (auto *inj = simPtr->faultInjector();
            inj && inj->smStalled(smId, now))
            return;
    }
    if (wBody.empty()) {
        refill();
        if (wBody.empty())
            return;
        noteProgress(wBody.size());
    }
    if (path == SmIssuePath::Reference)
        tickReference(now);
    else
        tickSoa(now);
}

} // namespace scusim::gpu
