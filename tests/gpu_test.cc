/**
 * @file
 * Unit tests for the GPU timing model: SIMT warp merging (checked
 * against a reference positional merge), warp bodies (checked
 * against the per-thread merge), coalescing accounting, phase
 * attribution, launch mechanics and the effect of divergence on
 * execution time.
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
makeKernel(const char *name, std::uint64_t threads, KernelBody body,
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
        "empty", 0, [](std::uint64_t, unsigned, WarpRecorder &) {}));
    EXPECT_EQ(ks.cycles(), 0u);
    EXPECT_EQ(r.sim.now(), r.gpu.launchOverhead());
}

TEST(GpuModel, ThreadAndWarpCounts)
{
    Rig r;
    auto ks = r.gpu.launch(makeKernel(
        "count", 100, [](std::uint64_t, unsigned, WarpRecorder &rec) {
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
        "coalesced", n, [](std::uint64_t, unsigned, WarpRecorder &rec) {
            rec.load([](std::uint64_t tid) { return 0x100000 + tid * 4; });
        }));
    auto divergent = r.gpu.launch(makeKernel(
        "divergent", n, [](std::uint64_t, unsigned, WarpRecorder &rec) {
            rec.load(
                [](std::uint64_t tid) { return 0x100000 + tid * 4096; });
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
        [](std::uint64_t, unsigned, WarpRecorder &rec) { rec.compute(4); },
        Phase::Processing));
    r.gpu.launch(makeKernel(
        "comp", 64,
        [](std::uint64_t, unsigned, WarpRecorder &rec) { rec.compute(4); },
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
        "mixed", 32,
        perThread([](std::uint64_t tid, ThreadRecorder &rec) {
            if (tid % 2 == 0)
                rec.load(0x1000 + tid * 4, 4);
            else
                rec.store(0x8000 + tid * 4, 4);
        })));
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
        "imbalanced", 32,
        perThread([](std::uint64_t tid, ThreadRecorder &rec) {
            rec.compute(tid == 0 ? 3200 : 1);
        })));
    auto balanced = r.gpu.launch(makeKernel(
        "balanced", 32, [](std::uint64_t, unsigned, WarpRecorder &rec) {
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
        "atomic_same", 32, [](std::uint64_t, unsigned, WarpRecorder &rec) {
            rec.atomic([](std::uint64_t) { return Addr{0x4000}; });
        }));
    auto distinct = r.gpu.launch(makeKernel(
        "atomic_distinct", 32,
        [](std::uint64_t, unsigned, WarpRecorder &rec) {
            rec.atomic([](std::uint64_t tid) { return 0x4000 + tid * 4; });
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
        k.body = [](std::uint64_t, unsigned, WarpRecorder &rec) {
            rec.load([](std::uint64_t tid) { return 0x1000000 + tid * 4; });
            rec.compute(8);
            rec.store([](std::uint64_t tid) { return 0x4000000 + tid * 4; });
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
                            [](std::uint64_t, unsigned, WarpRecorder &rec) {
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
referenceMerge(const ThreadBody &body, std::uint64_t num_threads,
               std::uint64_t warp_id, unsigned warp_size)
{
    const std::uint64_t first = warp_id * warp_size;
    const std::uint64_t last =
        std::min<std::uint64_t>(first + warp_size, num_threads);
    std::vector<std::vector<ThreadOp>> lanes;
    for (std::uint64_t tid = first; tid < last; ++tid) {
        ThreadRecorder rec;
        body(tid, rec);
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
            const ThreadBody body = [seed](std::uint64_t tid,
                                           ThreadRecorder &rec) {
                recordRandomThread(seed, tid, rec);
            };
            k.body = perThread(body);
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
                    referenceMerge(body, k.numThreads, id, warp_size);
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

namespace
{

/** One op of a random warp program. */
struct ProgOp
{
    ThreadOp::Kind kind = ThreadOp::Kind::Compute;
    std::uint32_t count = 0; ///< instructions (Compute) or bytes
    std::uint64_t salt = 0;  ///< a mem op's per-thread address stream
};

Addr
progAddr(const ProgOp &op, std::uint64_t tid)
{
    return Addr{0x10000} + mixBits(op.salt + tid) % (1 << 16) * 4;
}

/**
 * A uniform prefix every lane runs, then a tail only the lanes
 * inTail() selects run: the shape every warp body has.
 */
struct WarpProgram
{
    std::vector<ProgOp> prefix;
    std::vector<ProgOp> tail;
    unsigned tailKind = 0; ///< 0 no lane, 1 every lane, 2 half, 3 1/8
    std::uint64_t tailSalt = 0;

    bool
    inTail(std::uint64_t tid) const
    {
        const std::uint64_t h = mixBits(tailSalt + tid);
        switch (tailKind) {
        case 0:
            return false;
        case 1:
            return true;
        case 2:
            return h % 2 == 0;
        default:
            return h % 8 == 0;
        }
    }
};

WarpProgram
randomProgram(std::uint64_t seed)
{
    std::uint64_t h = mixBits(seed * 0x9E3779B97F4A7C15ull);
    auto draw = [&h](std::uint64_t n) {
        h = mixBits(h + 0x632BE59BD9B4E019ull);
        return h % n;
    };
    static constexpr std::uint32_t kBytes[] = {1, 2, 4, 8};
    auto random_ops = [&](std::uint64_t n) {
        std::vector<ProgOp> ops(n);
        for (ProgOp &op : ops) {
            op.kind = static_cast<ThreadOp::Kind>(draw(4));
            op.count = op.kind == ThreadOp::Kind::Compute
                           ? static_cast<std::uint32_t>(draw(4))
                           : kBytes[draw(4)];
            op.salt = h;
        }
        return ops;
    };
    WarpProgram p;
    p.prefix = random_ops(draw(7));
    p.tail = random_ops(draw(4));
    p.tailKind = static_cast<unsigned>(seed % 4);
    p.tailSalt = h;
    return p;
}

/** Record @p op over the lanes of @p mask. The recorder's compute
 *  has no mask, so a tail's compute records only when some lane
 *  runs it. @p mask holds no lane past the warp's last. */
void
recordOp(const ProgOp &op, std::uint64_t mask, WarpRecorder &rec)
{
    const auto addr_of = [&op](std::uint64_t t) {
        return progAddr(op, t);
    };
    switch (op.kind) {
    case ThreadOp::Kind::Compute:
        if (mask)
            rec.compute(op.count);
        break;
    case ThreadOp::Kind::Load:
        rec.load(addr_of, op.count, mask);
        break;
    case ThreadOp::Kind::Store:
        rec.store(addr_of, op.count, mask);
        break;
    case ThreadOp::Kind::Atomic:
        rec.atomic(addr_of, op.count, mask);
        break;
    }
}

void
recordOp(const ProgOp &op, std::uint64_t tid, ThreadRecorder &rec)
{
    switch (op.kind) {
    case ThreadOp::Kind::Compute:
        rec.compute(op.count);
        break;
    case ThreadOp::Kind::Load:
        rec.load(progAddr(op, tid), op.count);
        break;
    case ThreadOp::Kind::Store:
        rec.store(progAddr(op, tid), op.count);
        break;
    case ThreadOp::Kind::Atomic:
        rec.atomic(progAddr(op, tid), op.count);
        break;
    }
}

KernelBody
asWarpBody(const WarpProgram &p)
{
    return [&p](std::uint64_t, unsigned, WarpRecorder &rec) {
        for (const ProgOp &op : p.prefix)
            recordOp(op, WarpRecorder::allLanes, rec);
        const std::uint64_t tail = rec.lanesWhere(
            [&p](std::uint64_t t) { return p.inTail(t); });
        for (const ProgOp &op : p.tail)
            recordOp(op, tail, rec);
    };
}

ThreadBody
asThreadBody(const WarpProgram &p)
{
    return [&p](std::uint64_t tid, ThreadRecorder &rec) {
        for (const ProgOp &op : p.prefix)
            recordOp(op, tid, rec);
        if (!p.inTail(tid))
            return;
        for (const ProgOp &op : p.tail)
            recordOp(op, tid, rec);
    };
}

/** Build warp @p id of @p k into @p w, cleared first as the SM
 *  recycles a retired warp's buffers. */
void
rebuild(const KernelLaunch &k, std::uint64_t id, unsigned warp_size,
        Warp &w)
{
    w.instrs.clear();
    w.addrs.clear();
    Gpu::buildWarp(k, id, warp_size, w);
}

/** Every field of every instruction, and the whole address pool. */
void
expectSameWarp(const Warp &a, const Warp &b)
{
    EXPECT_EQ(a.threads, b.threads);
    ASSERT_EQ(a.instrs.size(), b.instrs.size());
    for (std::size_t j = 0; j < a.instrs.size(); ++j) {
        const WarpInstr &x = a.instrs[j];
        const WarpInstr &y = b.instrs[j];
        EXPECT_EQ(x.kind, y.kind) << "instr " << j;
        EXPECT_EQ(x.computeCount, y.computeCount) << "instr " << j;
        EXPECT_EQ(x.bytesPerLane, y.bytesPerLane) << "instr " << j;
        EXPECT_EQ(x.addrBase, y.addrBase) << "instr " << j;
        EXPECT_EQ(x.laneMask, y.laneMask) << "instr " << j;
    }
    EXPECT_EQ(a.addrs, b.addrs);
}

} // namespace

TEST(WarpRecorderOracle, PrefixPlusMaskedTailMatchesPerThreadMerge)
{
    unsigned zero_computes = 0, narrow_ops = 0, empty_tails = 0;
    for (const unsigned warp_size : {7u, 32u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 24; ++seed) {
            const WarpProgram prog = randomProgram(seed);
            for (const auto *ops : {&prog.prefix, &prog.tail}) {
                for (const ProgOp &op : *ops) {
                    zero_computes +=
                        op.kind == ThreadOp::Kind::Compute && !op.count;
                    narrow_ops +=
                        op.kind != ThreadOp::Kind::Compute && op.count < 4;
                }
            }
            empty_tails += prog.tailKind == 0 && !prog.tail.empty();

            KernelLaunch warp_k;
            // Five full warps plus a partial last one.
            warp_k.numThreads = 5 * warp_size + warp_size / 2 + 1;
            warp_k.body = asWarpBody(prog);
            KernelLaunch thread_k = warp_k;
            thread_k.body = perThread(asThreadBody(prog));
            const std::uint64_t warps =
                (warp_k.numThreads + warp_size - 1) / warp_size;
            Warp a, b;
            for (std::uint64_t id = 0; id < warps; ++id) {
                SCOPED_TRACE(testing::Message()
                             << "warp_size " << warp_size << " seed "
                             << seed << " warp " << id);
                rebuild(warp_k, id, warp_size, a);
                rebuild(thread_k, id, warp_size, b);
                expectSameWarp(a, b);
            }
        }
    }
    // The corpus holds the corner cases it is meant to cover.
    EXPECT_GT(zero_computes, 0u);
    EXPECT_GT(narrow_ops, 0u);
    EXPECT_GT(empty_tails, 0u);
}

TEST(WarpRecorderOracle, MidStreamMaskDependsOnTheLeadingLane)
{
    // The sssp_contract shape: an atomic only some lanes run, with
    // stores every lane runs after it. Lanes that skip the atomic
    // reach the stores first, so the positional merge's order
    // depends on whether the lowest lane takes the atomic, and no
    // single masked instruction stream reproduces both cases.
    const auto run = [](std::uint64_t t) { return 0x1000 + t * 4; };
    for (const std::uint64_t leader_atomic : {1u, 0u}) {
        const auto in_atomic = [leader_atomic](std::uint64_t t) {
            return t % 3 == (leader_atomic ? 0 : 1);
        };
        KernelLaunch warp_k;
        warp_k.numThreads = 32;
        warp_k.body = [&](std::uint64_t, unsigned, WarpRecorder &rec) {
            rec.load(run);
            rec.compute(24);
            rec.atomic(run, 4, rec.lanesWhere(in_atomic));
            rec.store(run, 1);
            rec.store(run, 1);
        };
        KernelLaunch thread_k = warp_k;
        thread_k.body =
            perThread([&](std::uint64_t t, ThreadRecorder &rec) {
                rec.load(run(t));
                rec.compute(24);
                if (in_atomic(t))
                    rec.atomic(run(t));
                rec.store(run(t), 1);
                rec.store(run(t), 1);
            });
        Warp a, b;
        rebuild(warp_k, 0, 32, a);
        rebuild(thread_k, 0, 32, b);
        ASSERT_EQ(a.instrs.size(), 5u);
        if (leader_atomic) {
            expectSameWarp(a, b);
        } else {
            // load, compute, the skipping lanes' two stores, then the
            // atomic and the two stores of the lanes that took it.
            EXPECT_EQ(b.instrs.size(), 7u);
            EXPECT_EQ(b.instrs[2].kind, ThreadOp::Kind::Store);
            EXPECT_EQ(b.instrs[4].kind, ThreadOp::Kind::Atomic);
        }
    }
}
