/**
 * @file
 * Unit tests for the memory hierarchy: address space, coalescer,
 * cache behaviour (hits, LRU, writebacks, MSHRs, way-locking,
 * streaming bypass) and the DRAM timing model (bandwidth cap, row
 * buffer locality).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "mem/dram.hh"
#include "mem/mem_system.hh"
#include "sim/clock.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::mem;

TEST(AddressSpace, LineAlignedAllocations)
{
    AddressSpace as(1 << 20, 128);
    Addr a = as.alloc("a", 5);
    Addr b = as.alloc("b", 300);
    EXPECT_EQ(a % 128, 0u);
    EXPECT_EQ(b % 128, 0u);
    EXPECT_GE(b, a + 128); // no line sharing
    EXPECT_EQ(as.find(a)->name, "a");
    EXPECT_EQ(as.find(b + 200)->name, "b");
    EXPECT_EQ(as.find(b + 512), nullptr);
}

TEST(AddressSpace, ExhaustionIsFatal)
{
    AddressSpace as(4096, 128);
    EXPECT_DEATH(as.alloc("big", 1 << 20), "exhausted");
}

TEST(DeviceArray, AddressMath)
{
    AddressSpace as(1 << 20, 128);
    DeviceArray<std::uint32_t> arr(as, "arr", 100);
    EXPECT_EQ(arr.size(), 100u);
    EXPECT_EQ(arr.addrOf(0), arr.base());
    EXPECT_EQ(arr.addrOf(7), arr.base() + 28);
    arr[3] = 99;
    EXPECT_EQ(arr[3], 99u);
}

TEST(Coalescer, FullyCoalescedWarp)
{
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back(0x1000 + i * 4);
    std::vector<Addr> out;
    EXPECT_EQ(coalesceLanes(lanes, 128, out), 1u);
    EXPECT_EQ(out[0], Addr{0x1000});
}

TEST(Coalescer, FullyDivergentWarp)
{
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back(i * 4096);
    std::vector<Addr> out;
    EXPECT_EQ(coalesceLanes(lanes, 128, out), 32u);
}

TEST(Coalescer, MaskSelectsActiveLanes)
{
    // Slot-per-lane span: only the masked slots participate, the
    // rest are don't-care (and deliberately colliding here).
    std::vector<Addr> lanes(8, 0);
    lanes[1] = 0x1000;
    lanes[3] = 0x1040;
    lanes[6] = 0x1080;
    std::vector<Addr> out;
    const std::uint64_t active = (1u << 1) | (1u << 3) | (1u << 6);
    EXPECT_EQ(coalesceLanes(lanes, active, 128, out), 2u);
    EXPECT_EQ(out, (std::vector<Addr>{0x1000, 0x1080}));
}

TEST(Coalescer, MaskBitsPastSpanAreIgnored)
{
    std::vector<Addr> lanes{0x0, 0x1000, 0x2000};
    std::vector<Addr> out;
    EXPECT_EQ(appendUniqueAddrs(lanes, ~std::uint64_t{0}, out), 3u);
    EXPECT_EQ(out.size(), 3u);
}

TEST(Coalescer, FirstTouchOrderUnderMask)
{
    // Lane order — not value order — decides output order, and a
    // value reappearing after unrelated lanes is still a duplicate
    // (the membership table, not just the prev-value run check).
    std::vector<Addr> lanes{0x300, 0x100, 0x100, 0x200,
                            0x100, 0x300, 0x050};
    std::vector<Addr> out;
    const std::uint64_t all = maskLow(7);
    EXPECT_EQ(appendUniqueAddrs(lanes, all, out), 4u);
    EXPECT_EQ(out, (std::vector<Addr>{0x300, 0x100, 0x200, 0x050}));
}

TEST(Coalescer, FullTableOf32DistinctValues)
{
    // 32 distinct values is the membership table's capacity limit
    // (64 slots, load factor 1/2): all insert, order preserved.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back((31 - i) * 4096);
    std::vector<Addr> out;
    EXPECT_EQ(appendUniqueAddrs(lanes, maskLow(32), out), 32u);
    for (Addr i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], (31 - i) * 4096);
}

TEST(Coalescer, WideMaskFallsBackToLinearRescan)
{
    // >32 active lanes exceed the table's load-factor budget and run
    // the linear-rescan path; dedup and order must be unchanged.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 48; ++i)
        lanes.push_back((i % 20) * 4096);
    std::vector<Addr> out;
    EXPECT_EQ(appendUniqueAddrs(lanes, maskLow(48), out), 20u);
    for (Addr i = 0; i < 20; ++i)
        EXPECT_EQ(out[i], i * 4096);
}

TEST(Coalescer, DenseSpanWiderThan64Lanes)
{
    // No 64-bit mask can address a 70-lane span: the dense overload
    // must still dedup it (legacy linear loop).
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 70; ++i)
        lanes.push_back((i % 7) * 128);
    std::vector<Addr> out;
    EXPECT_EQ(coalesceLanes(lanes, 128, out), 7u);
    for (Addr i = 0; i < 7; ++i)
        EXPECT_EQ(out[i], i * 128);
}

TEST(Coalescer, DenseAndMaskedPathsAgree)
{
    // The dense overload forwards to the masked one for spans <= 64;
    // a scattered-duplicate pattern must produce identical output
    // through both entry points.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 32; ++i)
        lanes.push_back(mixBits(i) % 5 * 4096);
    std::vector<Addr> dense, masked;
    const std::size_t a = appendUniqueAddrs(lanes, dense);
    const std::size_t b =
        appendUniqueAddrs(lanes, maskLow(32), masked);
    EXPECT_EQ(a, b);
    EXPECT_EQ(dense, masked);
}

TEST(Coalescer, StatsEfficiency)
{
    CoalesceStats cs;
    cs.record(32, 1);
    EXPECT_DOUBLE_EQ(cs.efficiency(), 1.0);
    cs.record(32, 32);
    EXPECT_DOUBLE_EQ(cs.txnsPerInstr(), 16.5);
    EXPECT_NEAR(cs.efficiency(), 64.0 / (32.0 * 33.0), 1e-12);
}

namespace
{

/** Fixed-latency backing store standing in for DRAM. */
class FakeMem : public MemLevel
{
  public:
    Tick readLatency = 200;

    MemResult
    access(Tick issue, Addr, AccessKind kind, unsigned) override
    {
        ++accesses;
        if (kind == AccessKind::Write ||
            kind == AccessKind::WriteNoAlloc) {
            ++writes;
            return {issue + 1, false};
        }
        ++reads;
        return {issue + readLatency, false};
    }

    int accesses = 0, reads = 0, writes = 0;
};

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "c";
    p.sizeBytes = 4 << 10; // 4 KB: 2 sets x 16 ways x 128 B
    p.lineBytes = 128;
    p.ways = 16;
    p.banks = 1;
    p.hitLatency = 10;
    p.mshrs = 8;
    return p;
}

} // namespace

TEST(Cache, MissThenHit)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    auto r1 = c.access(0, 0x1000, AccessKind::Read, 128);
    EXPECT_FALSE(r1.hit);
    EXPECT_GE(r1.complete, 200u);

    auto r2 = c.access(r1.complete, 0x1000, AccessKind::Read, 128);
    EXPECT_TRUE(r2.hit);
    EXPECT_LE(r2.complete, r1.complete + 12);
    EXPECT_EQ(dram.reads, 1);
}

TEST(Cache, LruEviction)
{
    FakeMem dram;
    stats::StatGroup g("t");
    CacheParams p = smallCache();
    Cache c(p, &dram, &g);

    // Fill far more distinct lines than the cache holds, then
    // re-touch the first: it must miss again.
    Tick t = 0;
    for (Addr a = 0; a < 64; ++a)
        t = c.access(t, a * 128, AccessKind::Read, 128).complete;
    int reads_before = dram.reads;
    auto r = c.access(t, 0, AccessKind::Read, 128);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(dram.reads, reads_before + 1);
}

TEST(Cache, DirtyEvictionWritesBack)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    c.access(0, 0x0, AccessKind::Write, 128);
    // Evict everything by streaming reads.
    Tick t = 1000;
    for (Addr a = 1; a < 80; ++a)
        t = c.access(t, a * 128, AccessKind::Read, 128).complete;
    EXPECT_GE(c.numWritebacks(), 1.0);
    EXPECT_GE(dram.writes, 1);
}

TEST(Cache, WriteValidateSkipsFetch)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    // A full-line store on a miss must not read from downstream.
    auto r = c.access(0, 0x2000, AccessKind::Write, 128);
    EXPECT_EQ(dram.reads, 0);
    EXPECT_LE(r.complete, 5u);
    // And the line is now present.
    auto r2 = c.access(10, 0x2000, AccessKind::Read, 128);
    EXPECT_TRUE(r2.hit);
}

TEST(Cache, ReadNoAllocBypasses)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    auto r1 = c.access(0, 0x3000, AccessKind::ReadNoAlloc, 128);
    EXPECT_FALSE(r1.hit);
    // Second streaming read of the same line misses again: nothing
    // was allocated.
    auto r2 = c.access(r1.complete, 0x3000, AccessKind::ReadNoAlloc,
                       128);
    EXPECT_FALSE(r2.hit);
    EXPECT_EQ(dram.reads, 2);
}

TEST(Cache, ReadNoAllocStillHits)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    c.access(0, 0x3000, AccessKind::Read, 128);       // allocate
    auto r = c.access(500, 0x3000, AccessKind::ReadNoAlloc, 128);
    EXPECT_TRUE(r.hit);
}

TEST(Cache, ProtectedRegionSurvivesStreaming)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    // Pin [0, 2KB); bring one pinned line in.
    c.setProtectedRegion(0, 2048);
    Tick t = c.access(0, 0x0, AccessKind::Read, 128).complete;

    // Stream a large number of unpinned lines over it.
    for (Addr a = 1 << 16; a < (1 << 16) + 200 * 128; a += 128)
        t = c.access(t, a, AccessKind::Read, 128).complete;

    auto r = c.access(t, 0x0, AccessKind::Read, 128);
    EXPECT_TRUE(r.hit) << "pinned line was evicted by streaming";
}

TEST(Cache, MshrLimitDelaysBursts)
{
    FakeMem dram;
    stats::StatGroup g("t");
    CacheParams p = smallCache();
    p.mshrs = 2;
    Cache c(p, &dram, &g);

    // Issue 6 distinct misses at tick 0: with 2 MSHRs and a 200
    // cycle downstream, later ones must wait for slots.
    Tick last = 0;
    for (Addr a = 0; a < 6; ++a) {
        auto r = c.access(0, a * 128, AccessKind::Read, 128);
        last = std::max(last, r.complete);
    }
    EXPECT_GT(last, 400u);
}

TEST(Cache, HitOnLineInFlightWaitsForTheFill)
{
    FakeMem dram;
    stats::StatGroup g("t");
    Cache c(smallCache(), &dram, &g);

    // The miss's fill lands at tick 200 (FakeMem latency).
    auto miss = c.access(0, 0x1000, AccessKind::Read, 128);
    EXPECT_EQ(miss.complete, 210u);
    // A hit issued while the fill is in flight waits for it.
    auto early = c.access(5, 0x1000, AccessKind::Read, 128);
    EXPECT_TRUE(early.hit);
    EXPECT_EQ(early.complete, 200u);
    // A hit after the fill sees plain hit latency.
    auto late = c.access(300, 0x1000, AccessKind::Read, 128);
    EXPECT_TRUE(late.hit);
    EXPECT_EQ(late.complete, 310u);
    EXPECT_EQ(dram.reads, 1);
}

TEST(Cache, WriteValidateReallocationInheritsPendingFill)
{
    FakeMem dram;
    stats::StatGroup g("t");
    CacheParams p = smallCache();
    p.sizeBytes = 16 * 128; // one set: any 16 other lines evict
    p.mshrs = 64;
    Cache c(p, &dram, &g);

    const Addr a = 0x10000;
    const Tick fill_done =
        c.access(0, a, AccessKind::Read, 128).complete - p.hitLatency;
    ASSERT_EQ(fill_done, 200u);
    // Evict a while its fill is still in flight.
    for (Addr k = 1; k <= 16; ++k)
        c.access(k, a + k * 128, AccessKind::Read, 128);
    // A line-granular store re-allocates a without fetching it; the
    // copy inherits the evicted copy's pending fill, so a read
    // before tick 200 still waits for it.
    auto wr = c.access(20, a, AccessKind::Write, 128);
    EXPECT_FALSE(wr.hit);
    auto r = c.access(30, a, AccessKind::Read, 128);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.complete, fill_done);
    EXPECT_EQ(dram.reads, 17);
}

TEST(Cache, InvalidateAllDropsPendingFills)
{
    FakeMem dram;
    stats::StatGroup g("t");
    CacheParams p = smallCache();
    p.sizeBytes = 16 * 128; // one set
    p.mshrs = 64;
    Cache c(p, &dram, &g);

    const Addr b = 0x20000, a = 0x10000;
    c.access(0, b, AccessKind::Read, 128); // fill lands at 200
    c.access(1, a, AccessKind::Read, 128); // fill lands at 201
    // Fifteen more lines fill the set and evict b mid-fill.
    for (Addr k = 1; k <= 15; ++k)
        c.access(1 + k, a + k * 128, AccessKind::Read, 128);
    c.invalidateAll(20);
    // Re-allocated by write-validate after the invalidation, neither
    // the resident a nor the evicted b keeps its old fill: reads hit
    // at hit latency.
    c.access(21, a, AccessKind::Write, 128);
    c.access(22, b, AccessKind::Write, 128);
    auto ra = c.access(23, a, AccessKind::Read, 128);
    auto rb = c.access(24, b, AccessKind::Read, 128);
    EXPECT_TRUE(ra.hit);
    EXPECT_TRUE(rb.hit);
    EXPECT_EQ(ra.complete, 23 + p.hitLatency);
    EXPECT_EQ(rb.complete, 24 + p.hitLatency);
}

TEST(Cache, FillSupersedesAStashedFillTick)
{
    FakeMem dram;
    stats::StatGroup g("t");
    CacheParams p = smallCache();
    p.sizeBytes = 16 * 128; // one set
    p.mshrs = 64;
    Cache c(p, &dram, &g);

    const Addr a = 0x10000;
    dram.readLatency = 1000;
    c.access(0, a, AccessKind::Read, 128); // slow fill: lands at 1000
    dram.readLatency = 10;
    for (Addr k = 1; k <= 16; ++k) // evict a mid-fill
        c.access(k, a + k * 128, AccessKind::Read, 128);
    // Refetched by a fast fill that lands at 30, which a hit at 40
    // retires; then evicted again.
    c.access(20, a, AccessKind::Read, 128);
    EXPECT_TRUE(c.access(40, a, AccessKind::Read, 128).hit);
    for (Addr k = 17; k <= 32; ++k)
        c.access(24 + k, a + k * 128, AccessKind::Read, 128);
    // A write-validate allocation now inherits nothing: the slow
    // fill's tick died with the refetch.
    c.access(60, a, AccessKind::Write, 128);
    auto r = c.access(70, a, AccessKind::Read, 128);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.complete, 70 + p.hitLatency);
}

TEST(Cache, PurgeRetiresFillsCompletedByTheIssueTick)
{
    FakeMem dram;
    stats::StatGroup g("t");
    CacheParams p = smallCache();
    p.sizeBytes = 16 * 128; // one set
    p.banks = 2;            // even tags on bank 0, odd on bank 1
    p.mshrs = 64;
    Cache c(p, &dram, &g);

    const Addr b = 0x20000, a = 0x10000; // both on bank 0
    c.access(0, b, AccessKind::Read, 128); // fill lands at 200
    c.access(1, a, AccessKind::Read, 128); // fill lands at 201
    // Fifteen bank-1 lines fill the set and evict b, the LRU line,
    // while its fill is in flight.
    const Addr odd = 0x30080;
    int n = 2;
    for (Addr k = 0; k < 15; ++k, ++n)
        c.access(2 + k, odd + 2 * k * 128, AccessKind::Read, 128);
    // Bank-1 hits issued at 300 until the 8192nd access purges every
    // tracked fill tick <= 300.
    for (; n < 8192; ++n)
        c.access(300, odd, AccessKind::Read, 128);
    // Bank 0 is still free at tick 2, so these start before either
    // fill landed, yet neither waits: the purge retired both ticks.
    auto ra = c.access(100, a, AccessKind::Read, 128);
    EXPECT_TRUE(ra.hit);
    EXPECT_EQ(ra.complete, 100 + p.hitLatency);
    c.access(110, b, AccessKind::Write, 128); // write-validate
    auto rb = c.access(120, b, AccessKind::Read, 128);
    EXPECT_TRUE(rb.hit);
    EXPECT_EQ(rb.complete, 120 + p.hitLatency);
}

TEST(Dram, RowBufferLocality)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    DramParams p = DramParams::lpddr4();
    Dram d(p, clk, &g);

    // Sequential stream: high row hit rate.
    Tick t = 0;
    for (Addr a = 0; a < 512 * 128; a += 128)
        t = d.access(t, a, AccessKind::Read, 128).complete;
    EXPECT_GT(d.rowHitRate(), 0.8);
}

TEST(Dram, RandomAccessMissesRows)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    Dram d(DramParams::lpddr4(), clk, &g);

    Rng rng(3);
    Tick t = 0;
    for (int i = 0; i < 2000; ++i) {
        Addr a = (rng.next() % (1ULL << 30)) & ~Addr{127};
        t = d.access(t, a, AccessKind::Read, 128).complete;
    }
    EXPECT_LT(d.rowHitRate(), 0.3);
}

TEST(Dram, BandwidthCapHolds)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    DramParams p = DramParams::lpddr4(); // 25.6 GB/s at 1 GHz
    Dram d(p, clk, &g);

    // Saturate with sequential reads issued every cycle.
    const int n = 20000;
    Tick last = 0;
    for (int i = 0; i < n; ++i) {
        auto r = d.access(static_cast<Tick>(i), Addr(i) * 128,
                          AccessKind::Read, 128);
        last = std::max(last, r.complete);
    }
    double bytes = static_cast<double>(n) * 128;
    double achieved = bytes / clk.toSeconds(last);
    EXPECT_LE(achieved, p.peakBytesPerSec * 1.02);
    EXPECT_GE(achieved, p.peakBytesPerSec * 0.5);
}

TEST(Dram, SectoredTransfersMoveFewerBytes)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    Dram d(DramParams::gddr5(), clk, &g);
    d.access(0, 0, AccessKind::Read, 32);
    d.access(100, 4096, AccessKind::Read, 128);
    EXPECT_DOUBLE_EQ(d.bytesMoved(), 160.0);
}

TEST(MemSystem, InterconnectLatencyAdds)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    MemSystemParams mp;
    mp.l2 = smallCache();
    mp.dram = DramParams::lpddr4();
    mp.icnLatency = 50;
    MemSystem ms(mp, clk, &g);

    auto miss = ms.access(0, 0x1000, AccessKind::Read, 128);
    auto hit = ms.access(miss.complete, 0x1000, AccessKind::Read,
                         128);
    EXPECT_TRUE(hit.hit);
    // Hit path: icn there (50) + hit latency (10) + icn back (50).
    EXPECT_GE(hit.complete - miss.complete, 110u);
}

TEST(MemSystem, BandwidthUtilizationMetric)
{
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    MemSystemParams mp;
    mp.l2 = smallCache();
    mp.dram = DramParams::lpddr4();
    MemSystem ms(mp, clk, &g);

    for (int i = 0; i < 100; ++i)
        ms.access(static_cast<Tick>(i), Addr(i) * 4096,
                  AccessKind::Read, 128);
    double util = ms.bandwidthUtilization(100000);
    EXPECT_GT(util, 0.0);
    EXPECT_LT(util, 1.0);
}
