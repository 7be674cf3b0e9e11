/**
 * @file
 * Unit tests for the GPU timing model: SIMT warp merging (checked
 * against a reference positional merge), coalescing accounting,
 * phase attribution, launch mechanics and the effect of divergence
 * on execution time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bits.hh"
#include "gpu/gpu.hh"
#include "gpu/gpu_config.hh"
#include "mem/mem_system.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::gpu;

namespace
{

struct Rig
{
    Rig()
        : params(GpuParams::tx1()), clk(params.freqHz),
          root("t"),
          mem(params.memsys, clk, &root),
          gpu(params, mem, sim, &root)
    {
    }

    GpuParams params;
    sim::ClockDomain clk;
    stats::StatGroup root;
    sim::Simulation sim;
    mem::MemSystem mem;
    Gpu gpu;
};

KernelLaunch
makeKernel(const char *name, std::uint64_t threads,
           std::function<void(std::uint64_t, ThreadRecorder &)> body,
           Phase phase = Phase::Processing)
{
    KernelLaunch k;
    k.name = name;
    k.phase = phase;
    k.numThreads = threads;
    k.body = std::move(body);
    return k;
}

} // namespace

TEST(GpuModel, EmptyLaunchOnlyCostsOverhead)
{
    Rig r;
    auto ks = r.gpu.launch(makeKernel(
        "empty", 0, [](std::uint64_t, ThreadRecorder &) {}));
    EXPECT_EQ(ks.cycles(), 0u);
    EXPECT_EQ(r.sim.now(), r.gpu.launchOverhead());
}

TEST(GpuModel, ThreadAndWarpCounts)
{
    Rig r;
    auto ks = r.gpu.launch(makeKernel(
        "count", 100, [](std::uint64_t, ThreadRecorder &rec) {
            rec.compute(1);
        }));
    EXPECT_EQ(ks.threads, 100u);
    EXPECT_EQ(ks.warps, 4u); // ceil(100/32)
    EXPECT_GE(ks.warpInstrs, 4u);
    EXPECT_EQ(ks.threadInstrs, 100u);
}

TEST(GpuModel, CoalescedVsDivergentLoads)
{
    Rig r;
    constexpr std::uint64_t n = 32 * 64;

    auto coalesced = r.gpu.launch(makeKernel(
        "coalesced", n, [](std::uint64_t tid, ThreadRecorder &rec) {
            rec.load(0x100000 + tid * 4, 4);
        }));
    auto divergent = r.gpu.launch(makeKernel(
        "divergent", n, [](std::uint64_t tid, ThreadRecorder &rec) {
            rec.load(0x100000 + tid * 4096, 4);
        }));

    // 1 transaction per warp vs 32.
    EXPECT_EQ(coalesced.memTransactions, n / 32);
    EXPECT_EQ(divergent.memTransactions, n);
    EXPECT_DOUBLE_EQ(coalesced.coalescingEfficiency(), 1.0);
    EXPECT_NEAR(divergent.coalescingEfficiency(), 1.0 / 32, 1e-9);
    EXPECT_GT(divergent.cycles(), coalesced.cycles());
}

TEST(GpuModel, PhaseAttribution)
{
    Rig r;
    r.gpu.launch(makeKernel(
        "proc", 64,
        [](std::uint64_t, ThreadRecorder &rec) { rec.compute(4); },
        Phase::Processing));
    r.gpu.launch(makeKernel(
        "comp", 64,
        [](std::uint64_t, ThreadRecorder &rec) { rec.compute(4); },
        Phase::Compaction));
    const auto &t = r.gpu.totals();
    EXPECT_EQ(t.processing.threads, 64u);
    EXPECT_EQ(t.compaction.threads, 64u);
    EXPECT_GT(t.processingCycles, 0u);
    EXPECT_GT(t.compactionCycles, 0u);
    EXPECT_EQ(t.launches, 2u);
}

TEST(GpuModel, DivergentOpKindsSerialize)
{
    Rig r;
    // Half the lanes load, half store at their first op: the merge
    // must produce two warp instructions per warp.
    auto ks = r.gpu.launch(makeKernel(
        "mixed", 32, [](std::uint64_t tid, ThreadRecorder &rec) {
            if (tid % 2 == 0)
                rec.load(0x1000 + tid * 4, 4);
            else
                rec.store(0x8000 + tid * 4, 4);
        }));
    EXPECT_EQ(ks.warpMemInstrs, 2u);
    EXPECT_EQ(ks.memLanes, 32u);
}

TEST(GpuModel, ImbalancedThreadsExtendWarp)
{
    Rig r;
    // One thread does 100 compute steps; a balanced kernel of the
    // same total work is faster because the long thread serializes
    // its whole warp.
    auto imbalanced = r.gpu.launch(makeKernel(
        "imbalanced", 32, [](std::uint64_t tid, ThreadRecorder &rec) {
            rec.compute(tid == 0 ? 3200 : 1);
        }));
    auto balanced = r.gpu.launch(makeKernel(
        "balanced", 32, [](std::uint64_t, ThreadRecorder &rec) {
            rec.compute(100);
        }));
    EXPECT_GT(imbalanced.cycles(), 2 * balanced.cycles());
}

TEST(GpuModel, AtomicsSerializePerAddress)
{
    Rig r;
    // All lanes atomically update the same address vs distinct
    // addresses in one line: same-address traffic is one txn, but
    // distinct addresses cannot merge.
    auto same = r.gpu.launch(makeKernel(
        "atomic_same", 32, [](std::uint64_t, ThreadRecorder &rec) {
            rec.atomic(0x4000, 4);
        }));
    auto distinct = r.gpu.launch(makeKernel(
        "atomic_distinct", 32,
        [](std::uint64_t tid, ThreadRecorder &rec) {
            rec.atomic(0x4000 + tid * 4, 4);
        }));
    EXPECT_EQ(same.memTransactions, 1u);
    EXPECT_EQ(distinct.memTransactions, 32u);
}

TEST(GpuModel, MoreParallelismMoreThroughput)
{
    // The same memory-bound kernel on GTX980 (16 SMs) must be much
    // faster than on TX1 (2 SMs).
    auto run = [](const GpuParams &p) {
        sim::ClockDomain clk(p.freqHz);
        stats::StatGroup root("t");
        sim::Simulation sim;
        mem::MemSystem mem(p.memsys, clk, &root);
        Gpu gpu(p, mem, sim, &root);
        KernelLaunch k;
        k.name = "stream";
        k.numThreads = 32 * 2048;
        k.body = [](std::uint64_t tid, ThreadRecorder &rec) {
            rec.load(0x1000000 + tid * 4, 4);
            rec.compute(8);
            rec.store(0x4000000 + tid * 4, 4);
        };
        auto ks = gpu.launch(k);
        return ks.cycles();
    };
    Tick big = run(GpuParams::gtx980());
    Tick small = run(GpuParams::tx1());
    EXPECT_GT(small, 3 * big);
}

TEST(GpuModel, LaunchOverheadMatchesConfig)
{
    Rig r;
    Tick before = r.sim.now();
    r.gpu.launch(makeKernel("tiny", 1,
                            [](std::uint64_t, ThreadRecorder &rec) {
                                rec.compute(1);
                            }));
    EXPECT_GE(r.sim.now() - before, r.params.launchLatency);
}

namespace
{

/**
 * Thread @p tid's random op list: zero to six ops of mixed kinds, so
 * lanes diverge in kind and length; some threads record nothing and
 * some compute(0) calls record nothing either.
 */
void
recordRandomThread(std::uint64_t seed, std::uint64_t tid,
                   ThreadRecorder &rec)
{
    std::uint64_t h = mixBits(seed * 0x9E3779B97F4A7C15ull + tid + 1);
    auto draw = [&h](std::uint64_t n) {
        h = mixBits(h + 0x632BE59BD9B4E019ull);
        return h % n;
    };
    const std::uint64_t n_ops = draw(4) == 0 ? 0 : draw(7);
    static constexpr std::uint32_t kBytes[] = {1, 2, 4, 8};
    for (std::uint64_t i = 0; i < n_ops; ++i) {
        const Addr a = Addr{0x10000} + draw(1 << 16) * 4;
        const std::uint32_t bytes = kBytes[draw(4)];
        switch (draw(4)) {
        case 0:
            rec.compute(static_cast<std::uint32_t>(draw(4)));
            break;
        case 1:
            rec.load(a, bytes);
            break;
        case 2:
            rec.store(a, bytes);
            break;
        default:
            rec.atomic(a, bytes);
            break;
        }
    }
}

/** A warp instruction as the reference merge builds it. */
struct RefInstr
{
    ThreadOp::Kind kind = ThreadOp::Kind::Compute;
    std::uint32_t computeCount = 0;
    std::uint32_t bytesPerLane = 4;
    std::uint64_t laneMask = 0;
    std::vector<Addr> laneAddrs; ///< one slot per lane (mem ops)
};

/**
 * The positional SIMT merge over one vector per lane: at each step
 * the kind of the first unfinished lane's current op executes, and
 * every lane whose current op has that kind takes part and advances.
 */
std::vector<RefInstr>
referenceMerge(const KernelLaunch &k, std::uint64_t warp_id,
               unsigned warp_size)
{
    const std::uint64_t first = warp_id * warp_size;
    const std::uint64_t last =
        std::min<std::uint64_t>(first + warp_size, k.numThreads);
    std::vector<std::vector<ThreadOp>> lanes;
    for (std::uint64_t tid = first; tid < last; ++tid) {
        ThreadRecorder rec;
        k.body(tid, rec);
        lanes.push_back(rec.recorded());
    }
    std::vector<std::size_t> pos(lanes.size(), 0);
    std::vector<RefInstr> out;
    while (true) {
        std::size_t leader = lanes.size();
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            if (pos[i] < lanes[i].size()) {
                leader = i;
                break;
            }
        }
        if (leader == lanes.size())
            break;
        RefInstr ri;
        ri.kind = lanes[leader][pos[leader]].kind;
        if (ri.kind != ThreadOp::Kind::Compute)
            ri.laneAddrs.assign(lanes.size(), 0);
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            if (pos[i] >= lanes[i].size() ||
                lanes[i][pos[i]].kind != ri.kind)
                continue;
            const ThreadOp &op = lanes[i][pos[i]];
            if (ri.kind == ThreadOp::Kind::Compute) {
                ri.computeCount = std::max(ri.computeCount, op.count);
            } else {
                ri.laneAddrs[i] = op.addr;
                ri.laneMask |= std::uint64_t{1} << i;
                ri.bytesPerLane = std::max(ri.bytesPerLane, op.count);
            }
            ++pos[i];
        }
        if (ri.kind == ThreadOp::Kind::Compute && ri.computeCount == 0)
            ri.computeCount = 1;
        out.push_back(std::move(ri));
    }
    return out;
}

} // namespace

TEST(WarpMerge, MatchesReferencePositionalMerge)
{
    for (const unsigned warp_size : {7u, 32u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            KernelLaunch k;
            // Five full warps plus a partial last one.
            k.numThreads = 5 * warp_size + warp_size / 2 + 1;
            k.body = [seed](std::uint64_t tid, ThreadRecorder &rec) {
                recordRandomThread(seed, tid, rec);
            };
            const std::uint64_t warps =
                (k.numThreads + warp_size - 1) / warp_size;
            // One Warp reused across builds, cleared the way the SM
            // recycles a retired warp's buffers.
            Warp w;
            for (std::uint64_t id = 0; id < warps; ++id) {
                SCOPED_TRACE(testing::Message()
                             << "warp_size " << warp_size << " seed "
                             << seed << " warp " << id);
                w.instrs.clear();
                w.addrs.clear();
                Gpu::buildWarp(k, id, warp_size, w);
                const std::vector<RefInstr> ref =
                    referenceMerge(k, id, warp_size);
                const unsigned threads = static_cast<unsigned>(
                    std::min<std::uint64_t>(
                        warp_size, k.numThreads - id * warp_size));
                ASSERT_EQ(w.threads, threads);
                ASSERT_EQ(w.instrs.size(), ref.size());
                for (std::size_t j = 0; j < ref.size(); ++j) {
                    const WarpInstr &wi = w.instrs[j];
                    const RefInstr &ri = ref[j];
                    ASSERT_EQ(wi.kind, ri.kind) << "instr " << j;
                    if (ri.kind == ThreadOp::Kind::Compute) {
                        EXPECT_EQ(wi.computeCount, ri.computeCount)
                            << "instr " << j;
                        continue;
                    }
                    EXPECT_EQ(wi.laneMask, ri.laneMask) << "instr " << j;
                    EXPECT_EQ(wi.bytesPerLane, ri.bytesPerLane)
                        << "instr " << j;
                    ASSERT_LE(wi.addrBase + threads, w.addrs.size())
                        << "instr " << j;
                    for (std::uint64_t m = ri.laneMask; m; m &= m - 1) {
                        const unsigned l = ctz64(m);
                        EXPECT_EQ(w.addrs[wi.addrBase + l],
                                  ri.laneAddrs[l])
                            << "instr " << j << " lane " << l;
                    }
                }
            }
        }
    }
}
