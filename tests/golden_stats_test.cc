/**
 * @file
 * Determinism regression: golden cycle/misprediction statistics pinned
 * exactly — one tiny workload across every predictor, plus four
 * workloads under the paper's two headline configurations. Any future
 * perf PR that changes these numbers changed functional behavior, not
 * just speed — update the goldens only with an explanation of the
 * semantic change.
 *
 * Also pins the experiment-engine contract that a cache-hit replay of a
 * run is bit-identical to the cold run.
 *
 * Regenerate with:
 *   PBS_PRINT_GOLDEN=1 ./build/golden_stats_test
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include <gtest/gtest.h>

#include "exp/engine.hh"

namespace {

using namespace pbs;

/** One pinned configuration: pi at scale 2000, seed 12345. */
struct Golden
{
    const char *predictor;
    bool pbs;
    uint64_t instructions;
    uint64_t cycles;
    uint64_t mispredicts;
    uint64_t steered;
};

// Pinned on the seed implementation (timing model, 4-wide core).
// clang-format off
const Golden kGolden[] = {
    // predictor       pbs    instructions  cycles  mispred  steered
    {"bimodal",          false, 35586ull, 40446ull,  494ull,    0ull},
    {"gshare",           false, 35586ull, 41932ull,  575ull,    0ull},
    {"local",            false, 35586ull, 40627ull,  505ull,    0ull},
    {"loop",             false, 35586ull, 71778ull, 1574ull,    0ull},
    {"tournament",       false, 35586ull, 40881ull,  509ull,    0ull},
    {"tage",             false, 35586ull, 39750ull,  470ull,    0ull},
    {"tage-sc-l",        false, 35586ull, 38561ull,  429ull,    0ull},
    {"always-taken",     false, 35586ull, 71778ull, 1574ull,    0ull},
    {"always-not-taken", false, 35586ull, 68940ull, 2426ull,    0ull},
    {"random",           false, 35586ull, 71097ull, 2010ull,    0ull},
    {"perfect",          false, 35586ull, 26156ull,    0ull,    0ull},
    {"tournament",       true,  35587ull, 33171ull,    2ull, 1998ull},
    {"tage-sc-l",        true,  35587ull, 33171ull,    2ull, 1998ull},
};
// clang-format on

/** A detailed 4-wide point at seed 12345 (the ExpPoint defaults). */
exp::Measurement
runPoint(const char *workload, uint64_t scale, const char *predictor,
         bool pbs)
{
    exp::ExpPoint pt;
    pt.workload = workload;
    pt.predictor = predictor;
    pt.pbs = pbs;
    pt.scale = scale;
    return exp::Engine::computePoint(pt);
}

exp::Measurement
runPinned(const char *predictor, bool pbs)
{
    return runPoint("pi", 2000, predictor, pbs);
}

TEST(GoldenStats, PinnedStatsPerPredictor)
{
    const bool print = std::getenv("PBS_PRINT_GOLDEN") != nullptr;
    for (const auto &g : kGolden) {
        auto r = runPinned(g.predictor, g.pbs);
        if (print) {
            std::printf("    {\"%s\", %s, %lluull, %lluull, %lluull, "
                        "%lluull},\n",
                        g.predictor, g.pbs ? "true " : "false",
                        (unsigned long long)r.stats.instructions,
                        (unsigned long long)r.stats.cycles,
                        (unsigned long long)r.stats.mispredicts,
                        (unsigned long long)r.stats.steeredBranches);
            continue;
        }
        SCOPED_TRACE(std::string(g.predictor) +
                     (g.pbs ? "+pbs" : ""));
        EXPECT_EQ(r.stats.instructions, g.instructions);
        EXPECT_EQ(r.stats.cycles, g.cycles);
        EXPECT_EQ(r.stats.mispredicts, g.mispredicts);
        EXPECT_EQ(r.stats.steeredBranches, g.steered);
    }
}

/** One pinned workload configuration (timing model, 4-wide core). */
struct WorkloadGolden
{
    const char *workload;
    uint64_t scale;
    const char *predictor;
    bool pbs;
    uint64_t instructions;
    uint64_t cycles;
    uint64_t mispredicts;
    uint64_t steered;
};

// clang-format off
const WorkloadGolden kWorkloadGolden[] = {
    // workload    scale predictor    pbs   instructions  cycles  mispred steered
    {"pi", 2000, "tage-sc-l", false, 35586ull, 38561ull, 429ull, 0ull},
    {"pi", 2000, "tage-sc-l", true, 35587ull, 33171ull, 2ull, 1998ull},
    {"dop", 2000, "tage-sc-l", false, 203047ull, 599043ull, 2869ull, 0ull},
    {"dop", 2000, "tage-sc-l", true, 203046ull, 537505ull, 1085ull, 3996ull},
    {"mc-integ", 2000, "tage-sc-l", false, 32688ull, 42539ull, 682ull, 0ull},
    {"mc-integ", 2000, "tage-sc-l", true, 32688ull, 30200ull, 3ull, 1998ull},
    {"bandit", 2000, "tage-sc-l", false, 206564ull, 174950ull, 274ull, 0ull},
    {"bandit", 2000, "tage-sc-l", true, 208758ull, 169117ull, 151ull, 1998ull},
};
// clang-format on

exp::Measurement
runWorkloadPinned(const WorkloadGolden &g)
{
    return runPoint(g.workload, g.scale, g.predictor, g.pbs);
}

TEST(GoldenStats, PinnedStatsPerWorkload)
{
    const bool print = std::getenv("PBS_PRINT_GOLDEN") != nullptr;
    for (const auto &g : kWorkloadGolden) {
        auto r = runWorkloadPinned(g);
        if (print) {
            std::printf("    {\"%s\", %llu, \"%s\", %s, %lluull, "
                        "%lluull, %lluull, %lluull},\n",
                        g.workload, (unsigned long long)g.scale,
                        g.predictor, g.pbs ? "true " : "false",
                        (unsigned long long)r.stats.instructions,
                        (unsigned long long)r.stats.cycles,
                        (unsigned long long)r.stats.mispredicts,
                        (unsigned long long)r.stats.steeredBranches);
            continue;
        }
        SCOPED_TRACE(std::string(g.workload) +
                     (g.pbs ? "+pbs" : ""));
        EXPECT_EQ(r.stats.instructions, g.instructions);
        EXPECT_EQ(r.stats.cycles, g.cycles);
        EXPECT_EQ(r.stats.mispredicts, g.mispredicts);
        EXPECT_EQ(r.stats.steeredBranches, g.steered);
    }
}

TEST(GoldenStats, CacheHitReplaysAreBitIdenticalToColdRuns)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "pbs-golden-cache";
    fs::remove_all(dir);

    for (const auto &g : kWorkloadGolden) {
        SCOPED_TRACE(std::string(g.workload) + (g.pbs ? "+pbs" : ""));
        pbs::exp::ExpPoint pt;
        pt.workload = g.workload;
        pt.predictor = g.predictor;
        pt.pbs = g.pbs;
        pt.scale = g.scale;

        pbs::exp::EngineConfig cfg;
        cfg.cacheDir = dir.string();
        pbs::exp::Engine cold(cfg);
        const auto coldRun = cold.measure(pt);
        ASSERT_EQ(cold.counters().computed, 1u);

        pbs::exp::Engine warm(cfg);
        const auto &hit = warm.measure(pt);
        ASSERT_EQ(warm.counters().computed, 0u);
        ASSERT_EQ(warm.counters().diskHits, 1u);

        // Bit-identical, counter for counter and output for output.
        EXPECT_EQ(hit, coldRun);
        EXPECT_EQ(hit.stats.cycles, coldRun.stats.cycles);
        ASSERT_EQ(hit.outputs.size(), coldRun.outputs.size());
        for (size_t i = 0; i < coldRun.outputs.size(); i++)
            EXPECT_EQ(hit.outputs[i], coldRun.outputs[i]);

        // And identical to an uncached direct computation.
        EXPECT_EQ(hit, runWorkloadPinned(g));
    }
    fs::remove_all(dir);
}

TEST(GoldenStats, RepeatRunsAreDeterministic)
{
    auto a = runPinned("tage-sc-l", true);
    auto b = runPinned("tage-sc-l", true);
    EXPECT_EQ(a.stats.instructions, b.stats.instructions);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.mispredicts, b.stats.mispredicts);
    EXPECT_EQ(a.outputs, b.outputs);
}

}  // namespace
