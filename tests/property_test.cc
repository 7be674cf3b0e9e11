/**
 * @file
 * Randomized property tests: every SCU operation is compared against
 * a trivially-correct oracle over many random inputs and parameter
 * combinations; cache and DRAM invariants are checked under random
 * access streams; generator properties hold across scales and seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "common/rng.hh"
#include "graph/datasets.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "scu/scu.hh"
#include "sim/clock.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

using namespace scusim;
using namespace scusim::scu;

namespace
{

/** Everything an SCU property test needs, rebuilt per test. */
struct Rig
{
    Rig() : clk(1e9), root("t"), as(1ULL << 32)
    {
        mem::MemSystemParams mp;
        mp.dram = mem::DramParams::lpddr4();
        memsys = std::make_unique<mem::MemSystem>(mp, clk, &root);
        scu = std::make_unique<Scu>(ScuParams::forTx1(), *memsys,
                                    sim, as, &root);
    }

    sim::ClockDomain clk;
    stats::StatGroup root;
    sim::Simulation sim;
    mem::AddressSpace as;
    std::unique_ptr<mem::MemSystem> memsys;
    std::unique_ptr<Scu> scu;
};

std::vector<std::uint32_t>
randomVec(Rng &rng, std::size_t n, std::uint32_t bound)
{
    std::vector<std::uint32_t> v(n);
    for (auto &x : v)
        x = static_cast<std::uint32_t>(rng.below(bound));
    return v;
}

std::vector<std::uint8_t>
randomMask(Rng &rng, std::size_t n, double p)
{
    std::vector<std::uint8_t> m(n);
    for (auto &x : m)
        x = rng.chance(p) ? 1 : 0;
    return m;
}

/** Written into output slots before an op; no input value equals it. */
constexpr std::uint32_t kSentinel = 0xDEADBEEF;
constexpr std::uint8_t kFlagSentinel = 0xA5;
/** Output slots allocated past the expected length. */
constexpr std::size_t kSlack = 16;

/** Input length of the Data Fetch request FIFO (38 KB of 4 B). */
std::size_t
fifoElems()
{
    return ScuParams::forTx1().fifoRequestBytes / 4;
}

enum class MaskKind { Null, Zeros, Ones, Random };

/** One input shape of the sentinel-checked oracle tests. */
struct OpCase
{
    std::size_t n;
    MaskKind mask;
};

/**
 * The shapes each compaction oracle test covers: empty input with
 * and without a mask, all-zero, all-one, null and random masks, and
 * one input longer than the request FIFO, so the read window fills.
 */
std::vector<OpCase>
oracleCases(Rng &rng)
{
    const std::size_t n = 200 + rng.below(800);
    const std::size_t big = fifoElems() + 1 + rng.below(2048);
    return {{0, MaskKind::Null},  {0, MaskKind::Random},
            {n, MaskKind::Zeros}, {n, MaskKind::Ones},
            {n, MaskKind::Null},  {n, MaskKind::Random},
            {big, MaskKind::Random}};
}

/** Host flags of @p c's mask; a null mask keeps every element. */
std::vector<std::uint8_t>
maskFor(Rng &rng, const OpCase &c)
{
    switch (c.mask) {
      case MaskKind::Zeros:
        return std::vector<std::uint8_t>(c.n, 0);
      case MaskKind::Random:
        return randomMask(rng, c.n, 0.5);
      case MaskKind::Null:
      case MaskKind::Ones:
        break;
    }
    return std::vector<std::uint8_t>(c.n, 1);
}

/**
 * Exclusive prefix sum of @p counts, one entry longer than it: where
 * each element's run starts in the compacted output, and the total
 * at the back (the cumulative-sum step of a scan → scatter
 * compaction).
 */
std::vector<std::size_t>
exclusiveScan(const std::vector<std::uint32_t> &counts)
{
    std::vector<std::size_t> off(counts.size() + 1, 0);
    for (std::size_t i = 0; i < counts.size(); ++i)
        off[i + 1] = off[i] + counts[i];
    return off;
}

/** An output array of @p n slots, every one holding the sentinel. */
Scu::Elems
sentinelOut(mem::AddressSpace &as, std::size_t n)
{
    Scu::Elems out(as, "out", n);
    std::fill(out.host().begin(), out.host().end(), kSentinel);
    return out;
}

/**
 * out[0, out_n) must equal @p want, and every slot at or past out_n
 * must still hold the sentinel.
 */
void
expectCompacted(const Scu::Elems &out, std::size_t out_n,
                const std::vector<std::uint32_t> &want)
{
    ASSERT_EQ(out_n, want.size());
    for (std::size_t i = 0; i < out_n; ++i)
        ASSERT_EQ(out[i], want[i]) << "slot " << i;
    for (std::size_t i = out_n; i < out.size(); ++i)
        ASSERT_EQ(out[i], kSentinel) << "slot " << i << " past out_n";
}

} // namespace

class ScuOpProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ScuOpProperty, DataCompactionMatchesOracle)
{
    Rng rng(GetParam());
    Rig r;
    for (const OpCase &c : oracleCases(rng)) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << c.n
                     << " mask=" << static_cast<int>(c.mask));
        auto vals = randomVec(rng, c.n, 1 << 20);
        auto keep = maskFor(rng, c);
        Scu::Elems in(r.as, "in", c.n);
        Scu::Flags m(r.as, "m", c.n);
        for (std::size_t i = 0; i < c.n; ++i) {
            in[i] = vals[i];
            m[i] = keep[i];
        }

        // Oracle: scan the keep flags, then scatter every kept value
        // to its scanned slot.
        const auto off = exclusiveScan(
            std::vector<std::uint32_t>(keep.begin(), keep.end()));
        std::vector<std::uint32_t> want(off.back());
        for (std::size_t i = 0; i < c.n; ++i) {
            if (keep[i])
                want[off[i]] = vals[i];
        }

        Scu::Elems out = sentinelOut(r.as, want.size() + kSlack);
        std::size_t got_n = 0;
        r.scu->dataCompaction(
            in, c.n, c.mask == MaskKind::Null ? nullptr : &m, out,
            got_n);
        expectCompacted(out, got_n, want);
    }
}

TEST_P(ScuOpProperty, AccessExpansionMatchesOracle)
{
    Rng rng(GetParam() * 3 + 1);
    Rig r;
    const std::size_t data_n = 500 + rng.below(500);
    auto data = randomVec(rng, data_n, 1 << 30);
    Scu::Elems d(r.as, "d", data_n);
    for (std::size_t i = 0; i < data_n; ++i)
        d[i] = data[i];

    for (const OpCase &c : oracleCases(rng)) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << c.n
                     << " mask=" << static_cast<int>(c.mask));
        // One run of 0..8 consecutive data elements per input.
        std::vector<std::uint32_t> idx(c.n), cnt(c.n);
        for (std::size_t i = 0; i < c.n; ++i) {
            cnt[i] = static_cast<std::uint32_t>(rng.below(9));
            idx[i] = static_cast<std::uint32_t>(
                rng.below(data_n - cnt[i] + 1));
        }
        auto keep = maskFor(rng, c);
        Scu::Elems ix(r.as, "ix", c.n), count(r.as, "count", c.n);
        Scu::Flags m(r.as, "m", c.n);
        for (std::size_t i = 0; i < c.n; ++i) {
            ix[i] = idx[i];
            count[i] = cnt[i];
            m[i] = keep[i];
        }

        // Oracle: scan the kept run lengths, then scatter each kept
        // run data[idx[i], idx[i] + cnt[i]) from its scanned slot.
        std::vector<std::uint32_t> kept(c.n);
        for (std::size_t i = 0; i < c.n; ++i)
            kept[i] = keep[i] ? cnt[i] : 0;
        const auto off = exclusiveScan(kept);
        std::vector<std::uint32_t> want(off.back());
        for (std::size_t i = 0; i < c.n; ++i) {
            for (std::uint32_t j = 0; j < kept[i]; ++j)
                want[off[i] + j] = data[idx[i] + j];
        }

        Scu::Elems out = sentinelOut(r.as, want.size() + kSlack);
        std::size_t got_n = 0;
        r.scu->accessExpansionCompaction(
            d, ix, count, c.n,
            c.mask == MaskKind::Null ? nullptr : &m, out, got_n);
        expectCompacted(out, got_n, want);
    }
}

TEST_P(ScuOpProperty, FilterNeverDropsFirstSighting)
{
    Rng rng(GetParam() * 7 + 5);
    Rig r;
    const std::size_t n = 2000;
    auto vals = randomVec(rng, n, 400); // heavy duplication

    Scu::Elems in(r.as, "in", n), out(r.as, "out", n);
    for (std::size_t i = 0; i < n; ++i)
        in[i] = vals[i];

    r.scu->uniqueFilter().reset();
    std::vector<std::uint8_t> keep;
    OpOptions o1;
    o1.writeOutput = false;
    o1.filterMode = FilterMode::Unique;
    o1.keepOut = &keep;
    std::size_t ig = 0;
    r.scu->dataCompaction(in, n, nullptr, out, ig, o1);

    // Soundness: the set of kept values covers every distinct value
    // (first occurrences pass; only duplicates may be kept extra).
    std::set<std::uint32_t> kept, all(vals.begin(), vals.end());
    std::map<std::uint32_t, std::size_t> first;
    for (std::size_t i = 0; i < n; ++i) {
        if (!first.count(vals[i]))
            first[vals[i]] = i;
        if (keep[i])
            kept.insert(vals[i]);
    }
    EXPECT_EQ(kept, all);
    for (auto [v, i] : first)
        EXPECT_TRUE(keep[i]) << "first sighting of " << v
                             << " dropped";
}

TEST_P(ScuOpProperty, TwoStepEqualsDirectFilteredCompaction)
{
    Rng rng(GetParam() * 11 + 3);
    Rig r;
    const std::size_t n = 1000;
    auto vals = randomVec(rng, n, 300);

    Scu::Elems in(r.as, "in", n), out(r.as, "out", n);
    for (std::size_t i = 0; i < n; ++i)
        in[i] = vals[i];

    r.scu->uniqueFilter().reset();
    std::vector<std::uint8_t> keep;
    OpOptions o1;
    o1.writeOutput = false;
    o1.filterMode = FilterMode::Unique;
    o1.keepOut = &keep;
    std::size_t ig = 0;
    r.scu->dataCompaction(in, n, nullptr, out, ig, o1);

    OpOptions o2;
    o2.keep = &keep;
    std::size_t got_n = 0;
    r.scu->dataCompaction(in, n, nullptr, out, got_n, o2);

    // Oracle: apply the keep flags directly.
    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < n; ++i) {
        if (keep[i])
            want.push_back(vals[i]);
    }
    ASSERT_EQ(got_n, want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(out[i], want[i]);
}

TEST_P(ScuOpProperty, GroupedOutputIsPermutationOfKept)
{
    Rng rng(GetParam() * 13 + 7);
    Rig r;
    const std::size_t n = 1500;
    auto vals = randomVec(rng, n, 5000);
    auto mask = randomMask(rng, n, 0.6);

    Scu::Elems in(r.as, "in", n), out(r.as, "out", n);
    Scu::Flags m(r.as, "m", n);
    for (std::size_t i = 0; i < n; ++i) {
        in[i] = vals[i];
        m[i] = mask[i];
    }

    r.scu->groupingTable().reset();
    std::vector<std::uint32_t> order;
    OpOptions g1;
    g1.writeOutput = false;
    g1.makeGroups = true;
    g1.orderOut = &order;
    std::size_t ig = 0;
    r.scu->dataCompaction(in, n, &m, out, ig, g1);

    OpOptions s2;
    s2.order = &order;
    std::size_t got_n = 0;
    r.scu->dataCompaction(in, n, &m, out, got_n, s2);

    std::multiset<std::uint32_t> want, got;
    for (std::size_t i = 0; i < n; ++i) {
        if (mask[i])
            want.insert(vals[i]);
    }
    for (std::size_t i = 0; i < got_n; ++i)
        got.insert(out[i]);
    EXPECT_EQ(got, want);
}

TEST_P(ScuOpProperty, BitmaskConstructorMatchesOracle)
{
    Rng rng(GetParam() * 17 + 9);
    Rig r;
    using Cmp = std::function<bool(std::uint32_t, std::uint32_t)>;
    const std::pair<CompareOp, Cmp> ops[] = {
        {CompareOp::Eq, std::equal_to<std::uint32_t>()},
        {CompareOp::Ne, std::not_equal_to<std::uint32_t>()},
        {CompareOp::Lt, std::less<std::uint32_t>()},
        {CompareOp::Le, std::less_equal<std::uint32_t>()},
        {CompareOp::Gt, std::greater<std::uint32_t>()},
        {CompareOp::Ge, std::greater_equal<std::uint32_t>()},
    };
    const std::size_t sizes[] = {0, 200 + rng.below(800),
                                 fifoElems() + 1 + rng.below(2048)};
    // Refs 0 and the maximum give all-zero and all-one outputs (Lt 0,
    // Ge 0, Gt max, Le max); an input value gives ties for Eq/Le/Ge.
    bool sawAllZero = false, sawAllOne = false;
    for (std::size_t n : sizes) {
        auto vals = randomVec(rng, n, 64);
        Scu::Elems in(r.as, "in", n);
        for (std::size_t i = 0; i < n; ++i)
            in[i] = vals[i];
        const std::uint32_t refs[] = {
            0, n ? vals[n / 2] : 7u,
            std::numeric_limits<std::uint32_t>::max()};
        for (const auto &[op, cmp] : ops) {
            for (std::uint32_t ref : refs) {
                SCOPED_TRACE(::testing::Message()
                             << "n=" << n << " op="
                             << static_cast<int>(op) << " ref=" << ref);
                Scu::Flags out(r.as, "out", n + kSlack);
                std::fill(out.host().begin(), out.host().end(),
                          kFlagSentinel);
                r.scu->bitmaskConstructor(in, n, op, ref, out);

                std::size_t ones = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(out[i], cmp(vals[i], ref) ? 1 : 0)
                        << "slot " << i;
                    ones += out[i];
                }
                for (std::size_t i = n; i < out.size(); ++i)
                    ASSERT_EQ(out[i], kFlagSentinel) << "slot " << i;
                sawAllZero |= n && ones == 0;
                sawAllOne |= n && ones == n;
            }
        }
    }
    EXPECT_TRUE(sawAllZero);
    EXPECT_TRUE(sawAllOne);
}

TEST_P(ScuOpProperty, AccessCompactionMatchesOracle)
{
    Rng rng(GetParam() * 19 + 11);
    Rig r;
    const std::size_t data_n = 500 + rng.below(500);
    auto data = randomVec(rng, data_n, 1 << 30);
    Scu::Elems d(r.as, "d", data_n);
    for (std::size_t i = 0; i < data_n; ++i)
        d[i] = data[i];

    for (const OpCase &c : oracleCases(rng)) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << c.n
                     << " mask=" << static_cast<int>(c.mask));
        auto idx = randomVec(rng, c.n,
                             static_cast<std::uint32_t>(data_n));
        auto keep = maskFor(rng, c);
        Scu::Elems ix(r.as, "ix", c.n);
        Scu::Flags m(r.as, "m", c.n);
        for (std::size_t i = 0; i < c.n; ++i) {
            ix[i] = idx[i];
            m[i] = keep[i];
        }

        // Oracle: scan the keep flags, then scatter the gathered
        // value of every kept element to its scanned slot.
        const auto off = exclusiveScan(
            std::vector<std::uint32_t>(keep.begin(), keep.end()));
        std::vector<std::uint32_t> want(off.back());
        for (std::size_t i = 0; i < c.n; ++i) {
            if (keep[i])
                want[off[i]] = data[idx[i]];
        }

        Scu::Elems out = sentinelOut(r.as, want.size() + kSlack);
        std::size_t got_n = 0;
        r.scu->accessCompaction(
            d, ix, c.n, c.mask == MaskKind::Null ? nullptr : &m, out,
            got_n);
        expectCompacted(out, got_n, want);
    }
}

TEST_P(ScuOpProperty, ReplicationCompactionMatchesOracle)
{
    Rng rng(GetParam() * 23 + 13);
    Rig r;
    for (const OpCase &c : oracleCases(rng)) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << c.n
                     << " mask=" << static_cast<int>(c.mask));
        auto vals = randomVec(rng, c.n, 1 << 30);
        auto cnt = randomVec(rng, c.n, 9); // 0..8 copies
        auto keep = maskFor(rng, c);
        Scu::Elems in(r.as, "in", c.n), count(r.as, "count", c.n);
        Scu::Flags m(r.as, "m", c.n);
        for (std::size_t i = 0; i < c.n; ++i) {
            in[i] = vals[i];
            count[i] = cnt[i];
            m[i] = keep[i];
        }

        // Oracle: scan the kept counts, then scatter count[i] copies
        // of in[i] from its scanned slot.
        std::vector<std::uint32_t> kept(c.n);
        for (std::size_t i = 0; i < c.n; ++i)
            kept[i] = keep[i] ? cnt[i] : 0;
        const auto off = exclusiveScan(kept);
        std::vector<std::uint32_t> want(off.back());
        for (std::size_t i = 0; i < c.n; ++i) {
            for (std::uint32_t j = 0; j < kept[i]; ++j)
                want[off[i] + j] = vals[i];
        }

        Scu::Elems out = sentinelOut(r.as, want.size() + kSlack);
        std::size_t got_n = 0;
        r.scu->replicationCompaction(
            in, count, c.n, c.mask == MaskKind::Null ? nullptr : &m,
            out, got_n);
        expectCompacted(out, got_n, want);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScuOpProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21,
                                           34));

// ----------------------------------------------------------------
// Memory-system invariants under random streams.
// ----------------------------------------------------------------

class CacheProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheProperty, CompletionNeverBeforeIssue)
{
    auto [ways, banks] = GetParam();
    struct Backing : mem::MemLevel
    {
        mem::MemResult
        access(Tick issue, Addr, mem::AccessKind,
               unsigned) override
        {
            return {issue + 150, false};
        }
    } backing;

    mem::CacheParams p;
    p.sizeBytes = 16 << 10;
    p.ways = ways;
    p.banks = banks;
    p.hitLatency = 12;
    p.mshrs = 16;
    stats::StatGroup g("t");
    mem::Cache c(p, &backing, &g);

    Rng rng(99);
    Tick monotonic_issue = 0;
    for (int i = 0; i < 5000; ++i) {
        Addr a = rng.below(1 << 22) & ~Addr{127};
        auto kind = rng.chance(0.3) ? mem::AccessKind::Write
                                    : mem::AccessKind::Read;
        auto r = c.access(monotonic_issue, a, kind, 128);
        ASSERT_GT(r.complete, monotonic_issue);
        if (rng.chance(0.5))
            ++monotonic_issue;
    }
    EXPECT_GT(c.numHits() + c.numMisses(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Combine(::testing::Values(1u, 4u, 16u),
                       ::testing::Values(1u, 4u, 16u)));

class DramProperty : public ::testing::TestWithParam<bool>
{
};

TEST_P(DramProperty, CompletionMonotonicPerStream)
{
    const bool sequential = GetParam();
    sim::ClockDomain clk(1e9);
    stats::StatGroup g("t");
    mem::Dram d(mem::DramParams::gddr5(), clk, &g);

    Rng rng(5);
    Tick issue = 0;
    for (int i = 0; i < 4000; ++i) {
        Addr a = sequential
                     ? Addr(i) * 128
                     : (rng.below(1 << 26) & ~Addr{127});
        auto r = d.access(issue, a, mem::AccessKind::Read, 128);
        ASSERT_GT(r.complete, issue);
        issue += 1 + rng.below(3);
    }
    if (sequential) {
        EXPECT_GT(d.rowHitRate(), 0.8);
    }
}

INSTANTIATE_TEST_SUITE_P(Streams, DramProperty,
                         ::testing::Bool());

// ----------------------------------------------------------------
// Generator properties across scales.
// ----------------------------------------------------------------

// The dataset name is a std::string, not a const char *: gtest prints
// a pointer parameter with its address, which would put an
// ASLR-dependent value into the discovered test names.
class GeneratorScaleProperty
    : public ::testing::TestWithParam<std::tuple<std::string, double>>
{
};

TEST_P(GeneratorScaleProperty, DegreePreservedUnderScaling)
{
    auto [name, scale] = GetParam();
    auto g = graph::makeDataset(name, scale, 1);
    g.validate();
    const auto &spec = graph::datasetSpec(name);
    double want_deg = 2.0 * static_cast<double>(spec.edges) /
                      static_cast<double>(spec.nodes);
    // Average degree is scale-invariant within a generous band
    // (generators trim/pad and round node counts).
    EXPECT_NEAR(g.averageDegree(), want_deg, want_deg * 0.35);
}

INSTANTIATE_TEST_SUITE_P(
    ScaleSweep, GeneratorScaleProperty,
    ::testing::Combine(::testing::Values("ca", "cond", "kron"),
                       ::testing::Values(0.01, 0.03, 0.06)));
