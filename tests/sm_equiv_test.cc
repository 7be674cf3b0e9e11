/**
 * @file
 * SM issue-path equivalence gate: the SoA+mask scheduling fast path
 * must retrace exactly the trajectory of the linear reference scan.
 * Two layers of evidence, same pattern as sched_test:
 *
 *  - tick-level: two standalone SM rigs — one per SmIssuePath — are
 *    driven in lockstep over a synthetic warp program (coalesced and
 *    divergent loads, stores, atomics, divergent-length compute,
 *    more warps than resident slots) and must agree on busy(),
 *    nextWakeTick() and active-cycle count at EVERY serviced tick,
 *    then on the full stats dump at the end. One program parks many
 *    warps on far-apart wake ticks while others retire; another runs
 *    a second kernel on recycled warp buffers against a fresh SM;
 *  - full-run: complete primitive runs under both paths produce
 *    byte-identical stats dumps for every primitive on both systems.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common/bits.hh"
#include "gpu/sm.hh"
#include "harness/runner.hh"
#include "mem/mem_system.hh"
#include "sim/clock.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::harness;
using gpu::SmIssuePath;
using gpu::StreamingMultiprocessor;

namespace
{

/** Force every SM built during the guard's lifetime onto @p path. */
class IssuePathGuard
{
  public:
    explicit IssuePathGuard(SmIssuePath p)
    {
        StreamingMultiprocessor::overrideDefaultIssuePath(p);
    }
    ~IssuePathGuard()
    {
        StreamingMultiprocessor::clearDefaultIssuePathOverride();
    }
};

std::string
statsDumpFor(const RunConfig &base, SmIssuePath path)
{
    IssuePathGuard guard(path);
    RunConfig cfg = base;
    std::ostringstream os;
    cfg.dumpStatsTo = &os;
    RunResult r = runPrimitive(cfg);
    EXPECT_TRUE(r.validated)
        << to_string(cfg.primitive) << " on " << cfg.systemName
        << " failed functional validation";
    EXPECT_FALSE(os.str().empty());
    return os.str();
}

class SmPathEquivalence
    : public ::testing::TestWithParam<
          std::tuple<Primitive, const char *>>
{
};

TEST_P(SmPathEquivalence, SoaAndReferenceDumpIdenticalStats)
{
    const auto [prim, system] = GetParam();

    RunConfig cfg;
    cfg.systemName = system;
    cfg.primitive = prim;
    cfg.mode = ScuMode::ScuEnhanced;
    cfg.dataset = "cond";
    cfg.scale = 0.01;

    const std::string soa =
        statsDumpFor(cfg, SmIssuePath::SoaMasked);
    const std::string ref =
        statsDumpFor(cfg, SmIssuePath::Reference);
    ASSERT_EQ(soa.size(), ref.size());
    EXPECT_EQ(soa, ref)
        << "the SoA+mask issue path changed the simulation";
}

INSTANTIATE_TEST_SUITE_P(
    AllPrimitivesBothSystems, SmPathEquivalence,
    ::testing::Combine(::testing::Values(Primitive::Bfs,
                                         Primitive::Sssp,
                                         Primitive::Pr),
                       ::testing::Values("GTX980", "TX1")),
    [](const auto &info) {
        return to_string(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
    });

TEST(SmIssuePath_, DefaultResolutionOrder)
{
    EXPECT_EQ(StreamingMultiprocessor::defaultIssuePath(),
              SmIssuePath::SoaMasked);
    // The process-wide override out-ranks the default until cleared.
    StreamingMultiprocessor::overrideDefaultIssuePath(
        SmIssuePath::Reference);
    EXPECT_EQ(StreamingMultiprocessor::defaultIssuePath(),
              SmIssuePath::Reference);
    StreamingMultiprocessor::clearDefaultIssuePathOverride();
    EXPECT_EQ(StreamingMultiprocessor::defaultIssuePath(),
              SmIssuePath::SoaMasked);
}

/**
 * A standalone SM on its own memory system, stat tree and
 * Simulation, latched to one issue path at construction.
 */
struct SmRig
{
    explicit SmRig(SmIssuePath path)
        : guard(path), params(gpu::GpuParams::tx1()),
          clk(params.freqHz), root("t"),
          mem(params.memsys, clk, &root),
          sm(params, 0, &mem, &root, &sim)
    {
        sim.addClocked(&sm, "sm0");
    }

    std::string
    dump()
    {
        std::ostringstream os;
        root.dumpAll(os);
        return os.str();
    }

    IssuePathGuard guard; ///< active while `sm` resolves its path
    gpu::GpuParams params;
    sim::ClockDomain clk;
    stats::StatGroup root;
    sim::Simulation sim;
    mem::MemSystem mem;
    StreamingMultiprocessor sm;
};

/**
 * Deterministic synthetic warp @p i: a mix of compute runs,
 * coalesced/divergent loads, stores with partial lane masks and
 * atomics, long enough to overlap memory latencies across warps.
 */
void
buildTestWarp(std::uint64_t i, gpu::Warp &out)
{
    const unsigned threads = (i % 5 == 4) ? 17 : 32;
    out.threads = threads;
    const std::uint64_t full = maskLow(threads);

    auto mem_instr = [&](gpu::ThreadOp::Kind kind, std::uint64_t mask,
                         auto addr_of) {
        gpu::WarpInstr wi;
        wi.kind = kind;
        wi.laneMask = mask & full;
        wi.addrBase = static_cast<std::uint32_t>(out.addrs.size());
        out.addrs.resize(out.addrs.size() + threads, 0);
        for (std::uint64_t m = wi.laneMask; m; m &= m - 1) {
            const unsigned l = ctz64(m);
            out.addrs[wi.addrBase + l] = addr_of(l);
        }
        out.instrs.push_back(wi);
    };

    gpu::WarpInstr c;
    c.kind = gpu::ThreadOp::Kind::Compute;
    c.computeCount = 1 + static_cast<std::uint32_t>(i % 4);
    out.instrs.push_back(c);

    switch (i % 4) {
    case 0: // coalesced load stream
        mem_instr(gpu::ThreadOp::Kind::Load, full, [&](unsigned l) {
            return Addr{0x100000} + i * 0x80 + l * 4;
        });
        break;
    case 1: // divergent load scatter
        mem_instr(gpu::ThreadOp::Kind::Load, full, [&](unsigned l) {
            return (mixBits(i * 64 + l) & 0xFFFFF) * 64;
        });
        break;
    case 2: // partial-mask store (odd lanes only)
        mem_instr(gpu::ThreadOp::Kind::Store, 0xAAAAAAAAAAAAAAAAull,
                  [&](unsigned l) {
                      return Addr{0x400000} + i * 0x200 + l * 8;
                  });
        break;
    default: // atomics with colliding addresses
        mem_instr(gpu::ThreadOp::Kind::Atomic, full, [&](unsigned l) {
            return Addr{0x800000} + (mixBits(l) % 7) * 4;
        });
        break;
    }

    gpu::WarpInstr c2;
    c2.kind = gpu::ThreadOp::Kind::Compute;
    c2.computeCount = 2;
    out.instrs.push_back(c2);
}

gpu::WarpSource
makeSource(std::uint64_t count)
{
    return [next = std::uint64_t{0}, count](gpu::Warp &out) mutable {
        if (next >= count)
            return false;
        buildTestWarp(next++, out);
        return true;
    };
}

/**
 * Drive @p a and @p b in lockstep from tick @p now until both drain,
 * the way the simulation loop would (service busy ticks, fast-forward
 * pure stalls). They must agree on busy(), nextWakeTick() and the
 * active cycles gained since the call at every step. Leaves the
 * drained tick in @p now and counts serviced ticks in @p serviced.
 */
void
driveLockstep(StreamingMultiprocessor &a, StreamingMultiprocessor &b,
              Tick &now, std::uint64_t &serviced)
{
    const double a0 = a.activeCycles();
    const double b0 = b.activeCycles();
    for (std::uint64_t iter = 0; iter < 50'000'000; ++iter) {
        const Tick wa = a.nextWakeTick();
        ASSERT_EQ(wa, b.nextWakeTick()) << "tick " << now;
        const bool ba = a.busy(now);
        ASSERT_EQ(ba, b.busy(now)) << "tick " << now;
        if (ba) {
            a.tick(now);
            b.tick(now);
            ASSERT_EQ(a.activeCycles() - a0, b.activeCycles() - b0)
                << "tick " << now;
            ++serviced;
            ++now;
            continue;
        }
        if (wa == tickNever)
            return;
        now = std::max(now + 1, wa); // fast-forward a pure stall
    }
    FAIL() << "the SMs did not drain";
}

void
expectSameKernelStats(const gpu::KernelStats &a,
                      const gpu::KernelStats &b)
{
    EXPECT_EQ(a.warps, b.warps);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.warpInstrs, b.warpInstrs);
    EXPECT_EQ(a.threadInstrs, b.threadInstrs);
    EXPECT_EQ(a.warpMemInstrs, b.warpMemInstrs);
    EXPECT_EQ(a.memTransactions, b.memTransactions);
    EXPECT_EQ(a.memLanes, b.memLanes);
}

TEST(SmTickEquivalence, LockstepTrajectoryAndFinalStatsMatch)
{
    SmRig ref(SmIssuePath::Reference);
    SmRig soa(SmIssuePath::SoaMasked);
    ASSERT_EQ(ref.sm.issuePath(), SmIssuePath::Reference);
    ASSERT_EQ(soa.sm.issuePath(), SmIssuePath::SoaMasked);

    // 3x the resident-slot count so retirement compaction and refill
    // churn continuously.
    const std::uint64_t warps = 3 * ref.params.maxResidentWarps();
    gpu::KernelStats ksRef, ksSoa;
    ref.sm.beginKernel(makeSource(warps), &ksRef);
    soa.sm.beginKernel(makeSource(warps), &ksSoa);

    Tick now = 0;
    std::uint64_t serviced = 0;
    driveLockstep(ref.sm, soa.sm, now, serviced);
    if (HasFatalFailure())
        return;
    EXPECT_GT(serviced, warps); // the drive actually ran work

    ref.sm.endKernel(now);
    soa.sm.endKernel(now);

    expectSameKernelStats(ksRef, ksSoa);

    const std::string dr = ref.dump();
    const std::string ds = soa.dump();
    ASSERT_FALSE(dr.empty());
    EXPECT_EQ(dr, ds)
        << "issue paths diverged somewhere the per-tick probes "
           "don't reach";
}

/**
 * Warp @p i of the wake-bucket drive. Even warps arrive ready, run a
 * short compute program and retire early. Odd warps arrive blocked
 * until distinct ticks thousands of cycles apart, in an order
 * unrelated to their arrival, then load and compute. Each short
 * warp's retirement therefore squeezes slots out from under a
 * populated set of far-future wake buckets.
 */
void
buildFarWakeWarp(std::uint64_t i, gpu::Warp &out)
{
    out.threads = 32;
    gpu::WarpInstr c;
    c.kind = gpu::ThreadOp::Kind::Compute;
    c.computeCount = 1 + static_cast<std::uint32_t>(i % 3);
    out.instrs.push_back(c);
    if (i % 2 == 0)
        return;
    // 37 is coprime to 97, so the 96 odd warps get distinct ticks.
    out.blockedUntil = 100 + 4099 * ((i / 2 * 37) % 97);
    gpu::WarpInstr ld;
    ld.kind = gpu::ThreadOp::Kind::Load;
    ld.laneMask = maskLow(32);
    ld.addrBase = static_cast<std::uint32_t>(out.addrs.size());
    for (unsigned l = 0; l < 32; ++l)
        out.addrs.push_back((mixBits(i * 32 + l) & 0xFFFFF) * 64);
    out.instrs.push_back(ld);
    out.instrs.push_back(c);
}

TEST(SmTickEquivalence, FarApartWakesSurviveRetirementInLockstep)
{
    SmRig ref(SmIssuePath::Reference);
    SmRig soa(SmIssuePath::SoaMasked);
    const std::uint64_t warps = 3 * ref.params.maxResidentWarps();
    auto source = [warps] {
        return [next = std::uint64_t{0}, warps](gpu::Warp &out) mutable {
            if (next >= warps)
                return false;
            buildFarWakeWarp(next++, out);
            return true;
        };
    };
    gpu::KernelStats ksRef, ksSoa;
    ref.sm.beginKernel(source(), &ksRef);
    soa.sm.beginKernel(source(), &ksSoa);

    Tick now = 0;
    std::uint64_t serviced = 0;
    driveLockstep(ref.sm, soa.sm, now, serviced);
    if (HasFatalFailure())
        return;
    // The latest arrival tick is ~390k cycles out.
    EXPECT_GT(now, Tick{300'000});

    ref.sm.endKernel(now);
    soa.sm.endKernel(now);
    expectSameKernelStats(ksRef, ksSoa);
    EXPECT_EQ(ksSoa.warps, warps);
    EXPECT_EQ(ref.dump(), soa.dump());
}

TEST(SmTickEquivalence, BackToBackKernelsMatchAFreshSm)
{
    // Two SMs on one memory system. In `reused`, sm runs kernel 1 and
    // then kernel 2, so kernel 2's warps are built into buffers kernel
    // 1's warps retired. In `fresh`, sm runs kernel 1 and a second,
    // never-used SM runs kernel 2. The memory system sees the same
    // traffic up to kernel 2 in both, so kernel 2 must run the same.
    struct TwoSmRig : SmRig
    {
        TwoSmRig()
            : SmRig(SmIssuePath::SoaMasked),
              other(params, 1, &mem, &root, &sim)
        {
        }
        StreamingMultiprocessor other;
    };
    TwoSmRig reused, fresh;

    // Kernel 1 warps are long, so their recycled buffers are larger
    // than anything kernel 2 builds.
    auto kernel1 = [](std::uint64_t count) {
        return [next = std::uint64_t{0}, count](gpu::Warp &out) mutable {
            if (next >= count)
                return false;
            for (int rep = 0; rep < 3; ++rep)
                buildTestWarp(next, out);
            ++next;
            return true;
        };
    };
    const std::uint64_t warps = 2 * reused.params.maxResidentWarps();
    gpu::KernelStats k1Reused, k1Fresh;
    reused.sm.beginKernel(kernel1(warps), &k1Reused);
    fresh.sm.beginKernel(kernel1(warps), &k1Fresh);
    Tick now = 0;
    std::uint64_t serviced = 0;
    driveLockstep(reused.sm, fresh.sm, now, serviced);
    if (HasFatalFailure())
        return;
    reused.sm.endKernel(now);
    fresh.sm.endKernel(now);
    expectSameKernelStats(k1Reused, k1Fresh);

    gpu::KernelStats k2Reused, k2Fresh;
    reused.sm.beginKernel(makeSource(warps + 7), &k2Reused);
    fresh.other.beginKernel(makeSource(warps + 7), &k2Fresh);
    const Tick start = now;
    driveLockstep(reused.sm, fresh.other, now, serviced);
    if (HasFatalFailure())
        return;
    EXPECT_GT(now, start);
    reused.sm.endKernel(now);
    fresh.other.endKernel(now);
    expectSameKernelStats(k2Reused, k2Fresh);
    EXPECT_EQ(k2Fresh.warps, warps + 7);
    EXPECT_EQ(reused.sm.activeCycles() - fresh.sm.activeCycles(),
              fresh.other.activeCycles());
}

TEST(SmTickEquivalence, WarpArrivingBlockedIsPromotedIdentically)
{
    // A warp whose handoff state starts blocked in the future
    // exercises the blocked-at-refill branch of the mask
    // bookkeeping.
    for (SmIssuePath path :
         {SmIssuePath::Reference, SmIssuePath::SoaMasked}) {
        SmRig rig(path);
        auto next = std::make_shared<int>(0);
        rig.sm.beginKernel(
            [next](gpu::Warp &out) {
                if ((*next)++ > 0)
                    return false;
                gpu::WarpInstr c;
                c.kind = gpu::ThreadOp::Kind::Compute;
                c.computeCount = 1;
                out.instrs.push_back(c);
                out.threads = 32;
                out.blockedUntil = 25;
                return true;
            },
            nullptr);
        EXPECT_FALSE(rig.sm.busy(0));
        EXPECT_EQ(rig.sm.nextWakeTick(), 25u);
        EXPECT_TRUE(rig.sm.busy(25));
        rig.sm.tick(25); // issues the single compute op
        // One dependent-latency stall later the warp retires.
        const Tick done = 25 + rig.params.depIssueLatency;
        EXPECT_EQ(rig.sm.nextWakeTick(), done);
        rig.sm.tick(done);
        EXPECT_EQ(rig.sm.nextWakeTick(), tickNever);
        rig.sm.endKernel(done);
        EXPECT_EQ(rig.sm.activeCycles(), 2.0);
    }
}

} // namespace
