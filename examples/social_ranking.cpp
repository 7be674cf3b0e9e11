/**
 * @file
 * Domain scenario: influence ranking on a social-network-class
 * power-law graph (Graph500 Kronecker). Runs PageRank on the
 * high-performance GTX980 system — the data-center analytics use
 * case of the paper's introduction — and prints the top influencers
 * plus the system-level costs with and without the SCU. The cost
 * comparison is declared as an ExperimentPlan and both cells run in
 * parallel.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "alg/driver.hh"
#include "graph/datasets.hh"
#include "harness/executor.hh"
#include "harness/plan.hh"
#include "harness/system.hh"

using namespace scusim;

int
main()
{
    auto g = graph::makeDataset("kron", 0.05, 7);
    std::printf("social graph: %u accounts, %llu follows\n\n",
                g.numNodes(),
                static_cast<unsigned long long>(g.numEdges()));

    // Functional result once, on a system with the SCU.
    harness::SystemConfig sc = harness::SystemConfig::gtx980(true);
    harness::System sys(sc);
    alg::AlgOptions opt;
    opt.mode = harness::ScuMode::ScuBasic;
    opt.prMaxIterations = 10;
    auto out = alg::runPr(sys, g, nullptr, opt);

    std::vector<NodeId> order(g.numNodes());
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](NodeId a, NodeId b) {
                          return out.ranks[a] > out.ranks[b];
                      });
    std::printf("top influencers (account: score):\n");
    for (int i = 0; i < 5; ++i)
        std::printf("  #%d  node %-8u %8.2f\n", i + 1, order[i],
                    out.ranks[order[i]]);

    // Cost comparison via the declarative harness.
    alg::AlgOptions costOpt;
    costOpt.prMaxIterations = 10;
    auto res = harness::runPlan(
        harness::ExperimentPlan()
            .graph(&g, "kron-social")
            .systems({"GTX980"})
            .primitives({harness::Primitive::Pr})
            .modes({harness::ScuMode::GpuOnly,
                    harness::ScuMode::ScuBasic})
            .algOptions(costOpt));
    const auto &base = res.get("GTX980", harness::Primitive::Pr,
                               "kron-social",
                               harness::ScuMode::GpuOnly);
    const auto &scu = res.get("GTX980", harness::Primitive::Pr,
                              "kron-social",
                              harness::ScuMode::ScuBasic);

    std::printf("\n%-12s %12s %12s %8s\n", "config", "time (ms)",
                "energy (J)", "bw util");
    std::printf("%-12s %12.2f %12.4f %7.1f%%\n", "GPU only",
                base.seconds * 1e3, base.energy.totalJ(),
                100.0 * base.bwUtilization);
    std::printf("%-12s %12.2f %12.4f %7.1f%%\n", "GPU + SCU",
                scu.seconds * 1e3, scu.energy.totalJ(),
                100.0 * scu.bwUtilization);
    std::printf("\nPR is the paper's least SCU-friendly primitive "
                "(all nodes active every iteration): expect ~1x "
                "time but a solid energy win.\n");
    return base.validated && scu.validated ? 0 : 1;
}
