/**
 * @file
 * Determinism gate: the same RunConfig must produce byte-identical
 * full statistics dumps when run twice. The stats tree flattens every
 * counter in every component (caches, DRAM, SMs, SCU pipeline, hash
 * tables), so byte equality here means the whole simulation — not
 * just the headline metrics — retraced the same trajectory. This is
 * the property the parallel experiment executor and the simlint
 * nondeterminism rules exist to protect.
 *
 * Each case also compares a 64-bit FNV-1a digest of its dump against
 * a golden table, so a change that moves any modelled number across
 * commits fails here too. A deliberate model change updates the
 * table from the digests the failing cases print.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "harness/runner.hh"

using namespace scusim;
using namespace scusim::harness;

namespace
{

std::string
statsDumpFor(const RunConfig &base)
{
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

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

// The system name is a std::string, not a const char *: gtest prints a
// pointer parameter with its address, which would put an ASLR-random
// suffix on every discovered test name.
using GateParam = std::tuple<Primitive, std::string, unsigned, ScuMode>;

std::string
caseName(const GateParam &p)
{
    const ScuMode mode = std::get<3>(p);
    const char *suffix = mode == ScuMode::GpuOnly    ? "_gpu"
                         : mode == ScuMode::ScuBasic ? "_scu"
                                                     : "";
    return to_string(std::get<0>(p)) + "_" + std::get<1>(p) + "_dev" +
           std::to_string(std::get<2>(p)) + suffix;
}

/** Digest of each case's stats dump, keyed by caseName(). */
const std::map<std::string, std::uint64_t> goldenDigests = {
    {"BFS_GTX980_dev1", 0x954a181086bbf4f7ULL},
    {"BFS_GTX980_dev1_gpu", 0x2e059bfd86654750ULL},
    {"BFS_GTX980_dev1_scu", 0x2a1a1317395f3539ULL},
    {"BFS_GTX980_dev2", 0x9a54a6e26e987001ULL},
    {"BFS_GTX980_dev2_gpu", 0x29180ab76593742aULL},
    {"BFS_GTX980_dev2_scu", 0x3d8d9fdf72a68236ULL},
    {"BFS_TX1_dev1", 0x66fd82ceddc602e0ULL},
    {"BFS_TX1_dev1_gpu", 0x05c14bbbcc6ce9dbULL},
    {"BFS_TX1_dev1_scu", 0x3393f8027a9037eaULL},
    {"BFS_TX1_dev2", 0xdf03e06a51d62fbbULL},
    {"BFS_TX1_dev2_gpu", 0xb3ceb86cf6643d24ULL},
    {"BFS_TX1_dev2_scu", 0x95fd839cb7459723ULL},
    {"PR_GTX980_dev1", 0x508e7cc2de025d4aULL},
    {"PR_GTX980_dev1_gpu", 0xc2e9927df30a420dULL},
    {"PR_GTX980_dev1_scu", 0x508e7cc2de025d4aULL},
    {"PR_GTX980_dev2", 0xf560b94754a29413ULL},
    {"PR_GTX980_dev2_gpu", 0x8a6fb6b216d10c66ULL},
    {"PR_GTX980_dev2_scu", 0xf560b94754a29413ULL},
    {"PR_TX1_dev1", 0xe1926b131697a3eeULL},
    {"PR_TX1_dev1_gpu", 0x88acc808a9ce295fULL},
    {"PR_TX1_dev1_scu", 0xe1926b131697a3eeULL},
    {"PR_TX1_dev2", 0x1c55ef7602416371ULL},
    {"PR_TX1_dev2_gpu", 0x3c3bee337bdac4d2ULL},
    {"PR_TX1_dev2_scu", 0x1c55ef7602416371ULL},
    {"SSSP_GTX980_dev1", 0x4a970a326656af52ULL},
    {"SSSP_GTX980_dev1_gpu", 0x9df148c539ca26d2ULL},
    {"SSSP_GTX980_dev1_scu", 0x0c70ce603ba0cfb6ULL},
    {"SSSP_GTX980_dev2", 0x6e5bb5e610f994ffULL},
    {"SSSP_GTX980_dev2_gpu", 0x2db48cb5ab012846ULL},
    {"SSSP_GTX980_dev2_scu", 0xcec26910fe84ef97ULL},
    {"SSSP_TX1_dev1", 0x471f1d52aa25a521ULL},
    {"SSSP_TX1_dev1_gpu", 0xe73a18abad64e833ULL},
    {"SSSP_TX1_dev1_scu", 0x73425a73996b5e1aULL},
    {"SSSP_TX1_dev2", 0x9b1331824a3e7d27ULL},
    {"SSSP_TX1_dev2_gpu", 0x604779c67021cd68ULL},
    {"SSSP_TX1_dev2_scu", 0x8e5c320b1327f320ULL},
};

class DeterminismGate : public ::testing::TestWithParam<GateParam>
{
};

TEST_P(DeterminismGate, RepeatedRunsDumpIdenticalStats)
{
    const auto [prim, system, devices, mode] = GetParam();

    RunConfig cfg;
    cfg.systemName = system;
    cfg.primitive = prim;
    cfg.mode = mode;
    cfg.dataset = "cond";
    cfg.scale = 0.01;
    cfg.deviceCount = devices;

    const std::string first = statsDumpFor(cfg);
    const std::string second = statsDumpFor(cfg);
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(first, second)
        << "stats dumps diverged between identical runs";

    const std::string name = caseName(GetParam());
    char digest[19];
    std::snprintf(digest, sizeof digest, "0x%016llx",
                  static_cast<unsigned long long>(fnv1a(first)));
    const auto golden = goldenDigests.find(name);
    ASSERT_NE(golden, goldenDigests.end())
        << "no golden digest for " << name << ", dump digest is "
        << digest;
    EXPECT_EQ(golden->second, fnv1a(first))
        << "modelled output of " << name
        << " moved: dump digest is now " << digest;
}

// deviceCount 2 folds the sharded path — partitioner, per-device
// components, interconnect exchange — into the same byte-identity
// gate the single-device stack has always had to pass.
INSTANTIATE_TEST_SUITE_P(
    AllPrimitivesBothSystems, DeterminismGate,
    ::testing::Combine(::testing::Values(Primitive::Bfs,
                                         Primitive::Sssp,
                                         Primitive::Pr),
                       ::testing::Values(std::string("GTX980"),
                                         std::string("TX1")),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(ScuMode::ScuEnhanced)),
    [](const auto &info) { return caseName(info.param); });

// The same matrix for the GPU baseline and the basic SCU, so every
// compaction path of every primitive is held to its golden digest.
INSTANTIATE_TEST_SUITE_P(
    GpuAndBasicScu, DeterminismGate,
    ::testing::Combine(::testing::Values(Primitive::Bfs,
                                         Primitive::Sssp,
                                         Primitive::Pr),
                       ::testing::Values(std::string("GTX980"),
                                         std::string("TX1")),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(ScuMode::GpuOnly,
                                         ScuMode::ScuBasic)),
    [](const auto &info) { return caseName(info.param); });

} // namespace
