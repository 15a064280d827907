/**
 * @file
 * Determinism regression: golden cycle/misprediction statistics pinned
 * exactly — one tiny workload across every predictor, plus every
 * workload with PBS off and on in the timing model and in the mpki
 * fidelity, an 8-wide pair (Fig. 8) and a predictor-filter row
 * (Fig. 9). Any future perf PR that changes these numbers changed
 * functional behavior, not just speed — update the goldens only with
 * an explanation of the semantic change.
 *
 * Also pins the experiment-engine contract that a cache-hit replay of a
 * run is bit-identical to the cold run, and that the mpki and filter
 * rows come out the same when an engine serves the later rows of a
 * workload by replaying a recorded direction stream.
 *
 * Regenerate with:
 *   PBS_PRINT_GOLDEN=1 ./build/golden_stats_test
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

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

/** Core shape and fidelity of a pinned workload row. */
enum class Shape
{
    Timing4,   ///< timing model, 4-wide core
    Timing8,   ///< timing model, 8-wide core (Fig. 8)
    Mpki,      ///< mpki fidelity: predictors + PBS engine, no timing
    Filter,    ///< Fig. 9: mpki fidelity, tournament, prob branches filtered
};

/** One pinned workload configuration at seed 12345. */
struct WorkloadGolden
{
    const char *workload;
    uint64_t scale;
    Shape shape;
    bool pbs;
    uint64_t instructions;
    uint64_t cycles;
    uint64_t mispredicts;
    uint64_t steered;
};

// clang-format off
const WorkloadGolden kWorkloadGolden[] = {
    // workload   scale  shape           pbs    instructions  cycles  mispred steered
    {"pi", 2000, Shape::Timing4, false, 35586ull, 38561ull, 429ull, 0ull},
    {"pi", 2000, Shape::Timing4, true, 35587ull, 33171ull, 2ull, 1998ull},
    {"dop", 2000, Shape::Timing4, false, 203047ull, 599043ull, 2869ull, 0ull},
    {"dop", 2000, Shape::Timing4, true, 203046ull, 537505ull, 1085ull, 3996ull},
    {"mc-integ", 2000, Shape::Timing4, false, 32688ull, 42539ull, 682ull, 0ull},
    {"mc-integ", 2000, Shape::Timing4, true, 32688ull, 30200ull, 3ull, 1998ull},
    {"bandit", 2000, Shape::Timing4, false, 206564ull, 174950ull, 274ull, 0ull},
    {"bandit", 2000, Shape::Timing4, true, 208758ull, 169117ull, 151ull, 1998ull},
    {"photon", 2000, Shape::Timing4, false, 150431ull, 425583ull, 2281ull, 0ull},
    {"photon", 2000, Shape::Timing4, true, 143563ull, 368410ull, 342ull, 7888ull},
    {"swaptions", 2000, Shape::Timing4, false, 1046699ull, 1622977ull, 33416ull, 0ull},
    {"swaptions", 2000, Shape::Timing4, true, 1046737ull, 938110ull, 3458ull, 59996ull},
    {"greeks", 2000, Shape::Timing4, false, 121889ull, 332206ull, 1598ull, 0ull},
    {"greeks", 2000, Shape::Timing4, true, 121883ull, 311847ull, 561ull, 5994ull},
    {"genetic", 2000, Shape::Timing4, false, 75111ull, 61938ull, 874ull, 0ull},
    {"genetic", 2000, Shape::Timing4, true, 29867ull, 27866ull, 380ull, 808ull},
    {"pi", 2000, Shape::Mpki, false, 35586ull, 35586ull, 429ull, 0ull},
    {"pi", 2000, Shape::Mpki, true, 35587ull, 35587ull, 2ull, 1998ull},
    {"dop", 2000, Shape::Mpki, false, 203047ull, 203047ull, 2869ull, 0ull},
    {"dop", 2000, Shape::Mpki, true, 203046ull, 203046ull, 1085ull, 3996ull},
    {"greeks", 2000, Shape::Mpki, false, 121889ull, 121889ull, 1598ull, 0ull},
    {"greeks", 2000, Shape::Mpki, true, 121883ull, 121883ull, 561ull, 5994ull},
    {"swaptions", 2000, Shape::Mpki, false, 1046699ull, 1046699ull, 33416ull, 0ull},
    {"swaptions", 2000, Shape::Mpki, true, 1046737ull, 1046737ull, 3458ull, 59996ull},
    {"genetic", 2000, Shape::Mpki, false, 75111ull, 75111ull, 874ull, 0ull},
    {"genetic", 2000, Shape::Mpki, true, 29867ull, 29867ull, 380ull, 808ull},
    {"photon", 2000, Shape::Mpki, false, 150431ull, 150431ull, 2281ull, 0ull},
    {"photon", 2000, Shape::Mpki, true, 143563ull, 143563ull, 342ull, 7888ull},
    {"mc-integ", 2000, Shape::Mpki, false, 32688ull, 32688ull, 682ull, 0ull},
    {"mc-integ", 2000, Shape::Mpki, true, 32688ull, 32688ull, 3ull, 1998ull},
    {"bandit", 2000, Shape::Mpki, false, 206564ull, 206564ull, 274ull, 0ull},
    {"bandit", 2000, Shape::Mpki, true, 208758ull, 208758ull, 151ull, 1998ull},
    {"dop", 2000, Shape::Timing8, false, 203047ull, 504437ull, 2869ull, 0ull},
    {"dop", 2000, Shape::Timing8, true, 203046ull, 391163ull, 1085ull, 3996ull},
    {"dop", 2000, Shape::Filter, false, 203047ull, 203047ull, 3317ull, 0ull},
    {"greeks", 2000, Shape::Filter, false, 121889ull, 121889ull, 3228ull, 0ull},
};
// clang-format on

const char *
shapeName(Shape s)
{
    switch (s) {
      case Shape::Timing4: return "Timing4";
      case Shape::Timing8: return "Timing8";
      case Shape::Mpki: return "Mpki";
      case Shape::Filter: return "Filter";
    }
    return "?";
}

exp::ExpPoint
workloadPoint(const WorkloadGolden &g)
{
    exp::ExpPoint pt;
    pt.workload = g.workload;
    pt.pbs = g.pbs;
    pt.scale = g.scale;
    pt.wide = g.shape == Shape::Timing8;
    pt.functional = g.shape == Shape::Mpki || g.shape == Shape::Filter;
    pt.filterProb = g.shape == Shape::Filter;
    if (g.shape == Shape::Filter)
        pt.predictor = "tournament";
    return pt;
}

exp::Measurement
runWorkloadPinned(const WorkloadGolden &g)
{
    return exp::Engine::computePoint(workloadPoint(g));
}

TEST(GoldenStats, PinnedStatsPerWorkload)
{
    const bool print = std::getenv("PBS_PRINT_GOLDEN") != nullptr;
    for (const auto &g : kWorkloadGolden) {
        auto r = runWorkloadPinned(g);
        if (print) {
            std::printf("    {\"%s\", %llu, Shape::%s, %s, %lluull, "
                        "%lluull, %lluull, %lluull},\n",
                        g.workload, (unsigned long long)g.scale,
                        shapeName(g.shape), g.pbs ? "true" : "false",
                        (unsigned long long)r.stats.instructions,
                        (unsigned long long)r.stats.cycles,
                        (unsigned long long)r.stats.mispredicts,
                        (unsigned long long)r.stats.steeredBranches);
            continue;
        }
        SCOPED_TRACE(std::string(g.workload) + "/" + shapeName(g.shape) +
                     (g.pbs ? "+pbs" : ""));
        EXPECT_EQ(r.stats.instructions, g.instructions);
        EXPECT_EQ(r.stats.cycles, g.cycles);
        EXPECT_EQ(r.stats.mispredicts, g.mispredicts);
        EXPECT_EQ(r.stats.steeredBranches, g.steered);
    }
}

// Each workload's mpki and filter rows through one engine: the filter
// row shares the PBS-off mpki row's path, so it is served by replaying
// that row's direction stream, and must still read the pinned numbers.
TEST(GoldenStats, StreamReplaysReadThePinnedStats)
{
    uint64_t replays = 0;
    for (const auto &b : workloads::allBenchmarks()) {
        std::vector<const WorkloadGolden *> rows;
        std::vector<exp::ExpPoint> pts;
        uint64_t filterRows = 0;
        for (const auto &g : kWorkloadGolden) {
            if (g.workload != b.name ||
                (g.shape != Shape::Mpki && g.shape != Shape::Filter))
                continue;
            rows.push_back(&g);
            pts.push_back(workloadPoint(g));
            filterRows += g.shape == Shape::Filter;
        }
        exp::Engine eng;
        eng.runAll(pts);
        EXPECT_EQ(eng.counters().streamReplays, filterRows) << b.name;
        replays += eng.counters().streamReplays;
        for (size_t i = 0; i < rows.size(); i++) {
            const WorkloadGolden &g = *rows[i];
            SCOPED_TRACE(std::string(g.workload) + "/" +
                         shapeName(g.shape) + (g.pbs ? "+pbs" : ""));
            const exp::Measurement &r = eng.measure(pts[i]);
            EXPECT_EQ(r.stats.instructions, g.instructions);
            EXPECT_EQ(r.stats.cycles, g.cycles);
            EXPECT_EQ(r.stats.mispredicts, g.mispredicts);
            EXPECT_EQ(r.stats.steeredBranches, g.steered);
            EXPECT_EQ(r, runWorkloadPinned(g));
        }
    }
    EXPECT_EQ(replays, 2u);  // the dop and greeks filter rows
}

TEST(GoldenStats, CacheHitReplaysAreBitIdenticalToColdRuns)
{
    namespace fs = std::filesystem;
    // Per process: concurrent runs of this test (two builds side by
    // side) must not see each other's entries.
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("pbs-golden-cache-" + std::to_string(getpid()));
    fs::remove_all(dir);

    for (const auto &g : kWorkloadGolden) {
        SCOPED_TRACE(std::string(g.workload) + "/" + shapeName(g.shape) +
                     (g.pbs ? "+pbs" : ""));
        const exp::ExpPoint pt = workloadPoint(g);

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
