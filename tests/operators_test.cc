/**
 * @file
 * Operator-layer tests: Operators::expand() and compact() driven
 * directly on a hand-built frontier with repeated and hash-colliding
 * nodes, in all three ScuModes. The GPU baseline and the basic SCU
 * must land the same sequence; the enhanced SCU's filters keep a
 * sub-multiset and account for every drop; grouping only permutes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "alg/operators.hh"
#include "common/sim_error.hh"
#include "harness/system.hh"

using namespace scusim;
using namespace scusim::alg;
using harness::ScuMode;

namespace
{

enum class TestFilter { None, Unique, BestCost };

/**
 * Edge runs of a six-node frontier: nodes repeat within a run and
 * across runs, two runs are empty, and the keys after node 7 share
 * its set in the unique-filter table, two more of them than the set
 * has ways.
 */
std::vector<std::vector<std::uint32_t>>
frontierRuns(scu::Scu &scu)
{
    const auto &table = scu.uniqueFilter();
    std::vector<std::uint32_t> collide;
    for (std::uint32_t v = 8; collide.size() < table.numWays() + 2;
         ++v) {
        if (table.setOf(v) == table.setOf(7))
            collide.push_back(v);
    }
    std::vector<std::vector<std::uint32_t>> runs{
        {1, 2, 3, 2}, {3, 4, 1}, {}, {7}, {5, 5, 6, 7}, {}};
    runs[3].insert(runs[3].end(), collide.begin(), collide.end());
    runs[5].assign(collide.rbegin(), collide.rend());
    return runs;
}

/** What one operator call landed. */
struct OpOutput
{
    std::vector<std::uint32_t> elems;
    std::uint64_t filtered = 0;
};

/**
 * Run expand() (gathering every run) or compact() (packing the
 * concatenated runs, every third element unflagged) once, on a fresh
 * TX1 in @p mode. Best-cost filtering gets a cost per element the
 * filter pass sees that repeats with period 5.
 */
OpOutput
runOperator(bool expand, ScuMode mode, TestFilter filter, bool group)
{
    harness::System sys(harness::SystemConfig::tx1(true));
    auto &as = sys.addressSpace(0);
    const auto runs = frontierRuns(sys.scuDevice(0));
    std::vector<std::uint32_t> flat;
    Elems indexes(as, "op_indexes", runs.size());
    Elems counts(as, "op_counts", runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        indexes[i] = static_cast<std::uint32_t>(flat.size());
        counts[i] = static_cast<std::uint32_t>(runs[i].size());
        flat.insert(flat.end(), runs[i].begin(), runs[i].end());
    }
    Elems edges(as, "op_edges", flat.size());
    Elems out(as, "op_out", flat.size());
    Flags flags(as, "op_flags", flat.size());
    std::size_t seen = 0;
    for (std::size_t t = 0; t < flat.size(); ++t) {
        edges[t] = flat[t];
        flags[t] = t % 3 != 2;
        seen += expand || flags[t];
    }

    Refine refine{.unique = filter == TestFilter::Unique,
                  .group = group};
    if (filter == TestFilter::BestCost) {
        refine.bestCost = [seen] {
            std::vector<std::uint32_t> costs(seen);
            for (std::size_t k = 0; k < seen; ++k)
                costs[k] = static_cast<std::uint32_t>(k * 3 % 5);
            return costs;
        };
    }

    Operators ops(sys, 0, flat.size());
    ops.begin(mode);
    AlgMetrics m;
    std::size_t n = 0;
    if (expand) {
        const ExpandOutput o{&out, &edges};
        n = ops.expand("op_expand", indexes, counts, runs.size(),
                       {&o, 1}, refine, m);
        EXPECT_EQ(m.rawExpanded, flat.size());
    } else {
        const CompactStream s{&edges, &out};
        ops.compact("op_compact", {&s, 1}, flags, flat.size(), n, refine,
                    m);
    }
    const auto first = out.host().begin();
    return {{first, first + static_cast<std::ptrdiff_t>(n)},
            m.scuFiltered};
}

std::vector<std::uint32_t>
sorted(std::vector<std::uint32_t> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

} // namespace

TEST(OperatorLayer, GpuAndBasicScuLandTheSameSequence)
{
    for (bool expand : {true, false}) {
        for (auto filter : {TestFilter::None, TestFilter::Unique,
                            TestFilter::BestCost}) {
            const auto gpu =
                runOperator(expand, ScuMode::GpuOnly, filter, true);
            const auto scu =
                runOperator(expand, ScuMode::ScuBasic, filter, true);
            EXPECT_FALSE(gpu.elems.empty());
            EXPECT_EQ(gpu.elems, scu.elems) << "expand=" << expand;
            EXPECT_EQ(gpu.filtered, 0u);
            EXPECT_EQ(scu.filtered, 0u);
        }
    }
}

TEST(OperatorLayer, EnhancedFilteringKeepsASubMultiset)
{
    for (bool expand : {true, false}) {
        const auto basic =
            runOperator(expand, ScuMode::ScuBasic, TestFilter::None,
                        false);
        for (auto filter : {TestFilter::Unique, TestFilter::BestCost}) {
            const auto enh =
                runOperator(expand, ScuMode::ScuEnhanced, filter, false);
            EXPECT_GT(enh.filtered, 0u) << "expand=" << expand;
            EXPECT_EQ(enh.elems.size() + enh.filtered,
                      basic.elems.size());
            const auto all = sorted(basic.elems);
            const auto kept = sorted(enh.elems);
            EXPECT_TRUE(std::includes(all.begin(), all.end(),
                                      kept.begin(), kept.end()));
        }
    }
}

TEST(OperatorLayer, GroupingPermutesTheKeptSet)
{
    for (bool expand : {true, false}) {
        for (auto filter : {TestFilter::None, TestFilter::Unique,
                            TestFilter::BestCost}) {
            const auto kept =
                runOperator(expand, ScuMode::ScuEnhanced, filter, false);
            const auto grouped =
                runOperator(expand, ScuMode::ScuEnhanced, filter, true);
            EXPECT_EQ(grouped.filtered, kept.filtered);
            // The frontier spans several L2 lines, so grouping moves
            // elements.
            EXPECT_NE(grouped.elems, kept.elems);
            EXPECT_TRUE(std::is_permutation(grouped.elems.begin(),
                                            grouped.elems.end(),
                                            kept.elems.begin(),
                                            kept.elems.end()))
                << "expand=" << expand;
        }
    }
}

TEST(OperatorLayer, StreamsLandingDifferentCountsPanic)
{
    // Every stream of a call shares its counts, flags, keep flags and
    // emit order, so a correct SCU always lands equal counts. Here
    // the first output overwrites the counts the second one reads.
    for (ScuMode mode : {ScuMode::ScuBasic, ScuMode::ScuEnhanced}) {
        harness::System sys(harness::SystemConfig::tx1(true));
        auto &as = sys.addressSpace(0);
        Elems ones(as, "op_ones", 3);
        Elems indexes(as, "op_indexes", 3);
        Elems counts(as, "op_counts", 8);
        Elems out(as, "op_out", 8);
        for (std::size_t i = 0; i < 3; ++i) {
            ones[i] = 1;
            indexes[i] = 0;
        }
        counts[0] = 2;
        counts[2] = 3;
        Operators ops(sys, 0, 8);
        ops.begin(mode);
        AlgMetrics m;
        const std::array<ExpandOutput, 2> outs{
            ExpandOutput{&counts, nullptr, &ones},
            ExpandOutput{&out, nullptr, &ones}};
        ErrorTrapGuard trap;
        try {
            ops.expand("op_expand", indexes, counts, 3, outs, {}, m);
            ADD_FAILURE() << "diverging streams did not panic";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("landed"),
                      std::string::npos)
                << e.what();
        }
    }
}
