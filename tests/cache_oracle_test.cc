/**
 * @file
 * Lockstep oracle for mem::Cache: the flat-array cache and the
 * map-based reference it replaced (reference_cache.hh) run the same
 * seeded random trace, each over its own Dram, and must agree on
 * every MemResult and on every stat of the cache and the DRAM.
 *
 * The traces mix all five access kinds, issue ticks that step back
 * as well as forward (the L2 sees interleaved requesters), pinned
 * regions set and cleared, invalidateAll, and run long enough for the
 * 8192-access purge of tracked fill ticks to fire several times.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.hh"
#include "gpu/gpu_config.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "reference_cache.hh"
#include "sim/clock.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::mem;

namespace
{

CacheParams
geometry(const std::string &name)
{
    if (name == "L1")
        return gpu::GpuParams::gtx980().l1;
    if (name == "TX1_L2")
        return gpu::GpuParams::tx1().memsys.l2;
    return gpu::GpuParams::gtx980().memsys.l2;
}

/** One side of the lockstep pair: a cache over its own DRAM. */
template <class CacheT>
struct Side
{
    Side(const CacheParams &cp, const DramParams &dp,
         const sim::ClockDomain &clk)
        : root("t"), dram(dp, clk, &root), cache(cp, &dram, &root)
    {}

    std::string
    stats() const
    {
        std::ostringstream os;
        root.dumpAll(os);
        return os.str();
    }

    stats::StatGroup root;
    Dram dram;
    CacheT cache;
};

AccessKind
randomKind(Rng &rng)
{
    const std::uint64_t r = rng.below(20);
    if (r < 8)
        return AccessKind::Read;
    if (r < 12)
        return AccessKind::Write;
    if (r < 14)
        return AccessKind::Atomic;
    if (r < 17)
        return AccessKind::ReadNoAlloc;
    return AccessKind::WriteNoAlloc;
}

class CacheOracle
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, int>>
{
};

TEST_P(CacheOracle, MatchesReferenceInLockstep)
{
    const auto &[geom_name, dram_name, seed] = GetParam();
    const CacheParams cp = geometry(geom_name);
    // The slow LPDDR4 keeps fills in flight long enough for lines to
    // be evicted, re-allocated and hit before their fill lands.
    const DramParams dp = dram_name == "GDDR5" ? DramParams::gddr5()
                                               : DramParams::lpddr4();
    const sim::ClockDomain clk(1e9);
    Side<Cache> flat(cp, dp, clk);
    Side<reference::Cache> ref(cp, dp, clk);

    const unsigned line = cp.lineBytes;
    const std::uint64_t lines = cp.sizeBytes / line;
    // 1.5x the capacity, drawn with a skew toward low indices: a hot
    // head that hits and a tail that keeps evicting it.
    const std::uint64_t pool = 3 * lines / 2;
    // A pinned region of a quarter of the capacity at the pool's
    // start, so protected and unprotected fills compete for sets.
    const Addr prot_base = 0;
    const std::uint64_t prot_bytes = lines / 4 * line;

    Rng rng(static_cast<std::uint64_t>(seed));
    Tick now = 0;
    const std::uint64_t accesses = 60000 + 4 * lines;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        if (i % 5000 == 2500) {
            const bool pin = rng.chance(0.7);
            flat.cache.setProtectedRegion(prot_base,
                                          pin ? prot_bytes : 0);
            ref.cache.setProtectedRegion(prot_base,
                                         pin ? prot_bytes : 0);
        }
        if (rng.chance(1.0 / 9000)) {
            flat.cache.invalidateAll(now);
            ref.cache.invalidateAll(now);
        }

        // Ticks creep forward; a third of the accesses issue up to 400
        // cycles in the past, inside typical fill windows.
        now += rng.below(2);
        Tick issue = now;
        if (rng.chance(0.33))
            issue -= std::min<Tick>(now, rng.below(400));

        const Addr addr = rng.below(rng.below(pool) + 1) * line +
                          rng.below(line);
        const AccessKind kind = randomKind(rng);
        const unsigned bytes = 32u << rng.below(3);

        const MemResult a = flat.cache.access(issue, addr, kind, bytes);
        const MemResult b = ref.cache.access(issue, addr, kind, bytes);
        ASSERT_EQ(a.complete, b.complete)
            << "access " << i << " kind " << static_cast<int>(kind)
            << " addr " << addr << " issue " << issue;
        ASSERT_EQ(a.hit, b.hit) << "access " << i;
        if (i % 1000 == 999) {
            ASSERT_EQ(flat.stats(), ref.stats()) << "access " << i;
        }
    }
    EXPECT_EQ(flat.stats(), ref.stats());
    // The trace must have exercised hits, misses and writebacks.
    EXPECT_GT(flat.cache.numHits(), 0.0);
    EXPECT_GT(flat.cache.numMisses(), 0.0);
    EXPECT_GT(flat.cache.numWritebacks(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracle,
    ::testing::Combine(::testing::Values("L1", "TX1_L2", "GTX980_L2"),
                       ::testing::Values("GDDR5", "LPDDR4"),
                       ::testing::Values(1, 2, 3)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        name += '_';
        name += std::get<1>(info.param);
        name += "_seed";
        name += std::to_string(std::get<2>(info.param));
        return name;
    });

} // namespace
