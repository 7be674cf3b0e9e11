/**
 * @file
 * Algorithm tests: serial references against hand-checked values
 * (Figure 2c), and the simulated BFS / SSSP / PageRank validated
 * against the references across every execution mode, dataset class
 * and GPU system (parameterized sweeps).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "alg/driver.hh"
#include "alg/serial.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "harness/runner.hh"
#include "harness/system.hh"

using namespace scusim;
using namespace scusim::alg;
using harness::ScuMode;

// ----------------------------------------------------------------
// Serial references (Figure 2c ground truth).
// ----------------------------------------------------------------

TEST(Serial, BfsOnReferenceGraph)
{
    auto g = graph::referenceGraph();
    auto d = serialBfs(g, 0);
    // Figure 2c: BFS distances 0 1 1 1 2 2 2 from node A.
    EXPECT_EQ(d, (std::vector<std::uint32_t>{0, 1, 1, 1, 2, 2, 2}));
}

TEST(Serial, DijkstraOnReferenceGraph)
{
    auto g = graph::referenceGraph();
    auto d = serialDijkstra(g, 0);
    // Figure 2c: SSSP distances 0 2 3 1 3 3 3 from node A.
    // (A->C direct costs 3; A->D->C costs 2, so C is 2.)
    EXPECT_EQ(d[0], 0u);
    EXPECT_EQ(d[1], 2u);
    EXPECT_EQ(d[2], 2u);
    EXPECT_EQ(d[3], 1u);
    EXPECT_EQ(d[4], 3u);
    EXPECT_EQ(d[5], 3u);
    EXPECT_EQ(d[6], 3u);
}

TEST(Serial, BfsUnreachableIsInf)
{
    auto g = graph::CsrGraph::fromEdgeList(graph::path(3));
    auto d = serialBfs(g, 1);
    EXPECT_EQ(d[0], infDist);
    EXPECT_EQ(d[1], 0u);
    EXPECT_EQ(d[2], 1u);
}

TEST(Serial, PageRankSumsAndConverges)
{
    Rng rng(3);
    auto g = graph::CsrGraph::fromEdgeList(
        graph::erdosRenyi(200, 2000, rng));
    auto pr = serialPageRank(g, 0.15, 1e-8, 500);
    // Power iteration on a graph without dangling-mass correction:
    // ranks are positive and bounded.
    for (double v : pr) {
        EXPECT_GT(v, 0.0);
        EXPECT_LT(v, 200.0);
    }
}

// ----------------------------------------------------------------
// Simulated primitives vs references: full mode/system sweep.
// ----------------------------------------------------------------

namespace
{

struct SweepParam
{
    const char *dataset;
    const char *system;
    ScuMode mode;
};

std::string
sweepName(const ::testing::TestParamInfo<SweepParam> &info)
{
    std::string m = harness::to_string(info.param.mode);
    std::replace(m.begin(), m.end(), '-', '_');
    return std::string(info.param.dataset) + "_" +
           info.param.system + "_" + m;
}

} // namespace

class PrimitiveSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    harness::RunConfig
    config(harness::Primitive p) const
    {
        harness::RunConfig cfg;
        cfg.dataset = GetParam().dataset;
        cfg.systemName = GetParam().system;
        cfg.mode = GetParam().mode;
        cfg.primitive = p;
        cfg.scale = 0.01;
        return cfg;
    }
};

TEST_P(PrimitiveSweep, BfsMatchesSerial)
{
    auto r = harness::runPrimitive(config(harness::Primitive::Bfs));
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_GT(r.algMetrics.iterations, 0u);
}

TEST_P(PrimitiveSweep, SsspMatchesDijkstra)
{
    auto r = harness::runPrimitive(config(harness::Primitive::Sssp));
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.algMetrics.iterations, 0u);
}

TEST_P(PrimitiveSweep, PageRankMatchesSerial)
{
    auto r = harness::runPrimitive(config(harness::Primitive::Pr));
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.algMetrics.gpuEdgeWork, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSystems, PrimitiveSweep,
    ::testing::Values(
        SweepParam{"cond", "GTX980", ScuMode::GpuOnly},
        SweepParam{"cond", "GTX980", ScuMode::ScuBasic},
        SweepParam{"cond", "GTX980", ScuMode::ScuEnhanced},
        SweepParam{"cond", "TX1", ScuMode::GpuOnly},
        SweepParam{"cond", "TX1", ScuMode::ScuBasic},
        SweepParam{"cond", "TX1", ScuMode::ScuEnhanced},
        SweepParam{"ca", "TX1", ScuMode::ScuEnhanced},
        SweepParam{"delaunay", "TX1", ScuMode::ScuEnhanced},
        SweepParam{"human", "TX1", ScuMode::ScuEnhanced},
        SweepParam{"kron", "GTX980", ScuMode::ScuEnhanced},
        SweepParam{"msdoor", "TX1", ScuMode::ScuBasic}),
    sweepName);

// ----------------------------------------------------------------
// Behavioural properties of the modes.
// ----------------------------------------------------------------

TEST(AlgBehaviour, EnhancedFiltersDuplicates)
{
    harness::RunConfig cfg;
    cfg.dataset = "human"; // duplicate-heavy class
    cfg.systemName = "TX1";
    cfg.primitive = harness::Primitive::Bfs;
    cfg.scale = 0.01;

    cfg.mode = ScuMode::ScuBasic;
    auto basic = harness::runPrimitive(cfg);
    cfg.mode = ScuMode::ScuEnhanced;
    auto enh = harness::runPrimitive(cfg);

    EXPECT_EQ(basic.algMetrics.scuFiltered, 0u);
    EXPECT_GT(enh.algMetrics.scuFiltered, 0u);
    EXPECT_LT(enh.algMetrics.gpuEdgeWork,
              basic.algMetrics.gpuEdgeWork);
}

TEST(AlgBehaviour, GpuOnlySpendsTimeInCompaction)
{
    harness::RunConfig cfg;
    cfg.dataset = "cond";
    cfg.systemName = "TX1";
    cfg.primitive = harness::Primitive::Bfs;
    cfg.scale = 0.02;
    cfg.mode = ScuMode::GpuOnly;
    auto r = harness::runPrimitive(cfg);
    // Figure 1's claim: a substantial share of GPU time is stream
    // compaction.
    EXPECT_GT(r.compactionShare(), 0.2);
    EXPECT_LT(r.compactionShare(), 0.95);
}

TEST(AlgBehaviour, ScuModesRunNoGpuCompaction)
{
    harness::RunConfig cfg;
    cfg.dataset = "cond";
    cfg.systemName = "TX1";
    cfg.primitive = harness::Primitive::Bfs;
    cfg.scale = 0.02;
    cfg.mode = ScuMode::ScuBasic;
    auto r = harness::runPrimitive(cfg);
    EXPECT_EQ(r.gpuCompactionCycles, 0u);
    EXPECT_GT(r.scuBusyCycles, 0u);
}

TEST(AlgBehaviour, PrUsesNoFilteringOrGrouping)
{
    harness::RunConfig cfg;
    cfg.dataset = "cond";
    cfg.systemName = "TX1";
    cfg.primitive = harness::Primitive::Pr;
    cfg.scale = 0.02;
    cfg.mode = ScuMode::ScuEnhanced;
    auto r = harness::runPrimitive(cfg);
    // Section 4.6: the enhanced capabilities are not used for PR.
    EXPECT_EQ(r.algMetrics.scuFiltered, 0u);
}

TEST(AlgBehaviour, SsspGroupingImprovesCoalescing)
{
    harness::RunConfig cfg;
    cfg.dataset = "cond";
    cfg.systemName = "TX1";
    cfg.primitive = harness::Primitive::Sssp;
    cfg.scale = 0.05;

    cfg.mode = ScuMode::ScuBasic;
    auto basic = harness::runPrimitive(cfg);
    cfg.mode = ScuMode::ScuEnhanced;
    auto enh = harness::runPrimitive(cfg);
    // Figure 12: grouping raises the coalescing of the remaining
    // GPU kernels.
    EXPECT_GT(enh.coalescingEfficiency,
              basic.coalescingEfficiency * 1.02);
}

TEST(AlgBehaviour, SourceSelectionRespected)
{
    const auto &g = harness::cachedDataset("cond", 0.01, 1);
    harness::SystemConfig sc = harness::SystemConfig::tx1(false);
    harness::System sys(sc);
    AlgOptions opt;
    opt.mode = ScuMode::GpuOnly;
    opt.source = 5;
    auto out = runBfs(sys, g, nullptr, opt);
    EXPECT_EQ(out.dist[5], 0u);
    EXPECT_EQ(out.dist, serialBfs(g, 5));
}

TEST(AlgBehaviour, BfsOnDisconnectedGraph)
{
    // Two components: traversal must terminate and label only one.
    graph::EdgeList el;
    el.numNodes = 6;
    el.edges = {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}, {4, 5, 1}};
    auto g = graph::CsrGraph::fromEdgeList(std::move(el));

    harness::SystemConfig sc = harness::SystemConfig::tx1(true);
    harness::System sys(sc);
    AlgOptions opt;
    opt.mode = ScuMode::ScuEnhanced;
    opt.source = 0;
    auto out = runBfs(sys, g, nullptr, opt);
    EXPECT_EQ(out.dist[2], 2u);
    EXPECT_EQ(out.dist[3], infDist);
}

TEST(AlgBehaviour, SsspDeltaSweepStaysCorrect)
{
    const auto &g = harness::cachedDataset("cond", 0.01, 1);
    auto want = serialDijkstra(g, 1);
    for (std::uint32_t delta : {1u, 8u, 64u, 100000u}) {
        harness::SystemConfig sc = harness::SystemConfig::tx1(true);
        harness::System sys(sc);
        AlgOptions opt;
        opt.mode = ScuMode::ScuEnhanced;
        opt.source = 1;
        opt.ssspDelta = delta;
        auto out = runSssp(sys, g, nullptr, opt);
        EXPECT_EQ(out.dist, want) << "delta=" << delta;
    }
}

TEST(AlgBehaviour, PrStopsOnConvergence)
{
    // A tiny strongly-regular graph converges quickly.
    auto g = graph::CsrGraph::fromEdgeList(graph::grid2d(8, 8));
    harness::SystemConfig sc = harness::SystemConfig::tx1(false);
    harness::System sys(sc);
    AlgOptions opt;
    opt.mode = ScuMode::GpuOnly;
    opt.prMaxIterations = 100;
    opt.prEpsilon = 1e-3;
    auto out = runPr(sys, g, nullptr, opt);
    EXPECT_TRUE(out.converged);
    EXPECT_LT(out.metrics.iterations, 100u);
}
