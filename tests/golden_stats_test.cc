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
 * PBS behaviour has pins of its own: every PbsStats counter and a
 * digest of the prob trace (Table III's consumption order) for every
 * workload under each `--pbs` setting at both fidelities, and for the
 * ablation's Prob-BTB and in-flight capacities.
 *
 * Also pins the experiment-engine contract that a cache-hit replay of a
 * run is bit-identical to the cold run, and that the mpki and filter
 * rows come out the same when an engine serves the later rows of a
 * workload by replaying a recorded direction stream.
 *
 * Regenerate with:
 *   PBS_PRINT_GOLDEN=1 ./build/golden_stats_test
 */

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "exp/engine.hh"
#include "util/hash.hh"

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

/** One pinned PBS configuration: tage-sc-l at scale 2000, seed 12345. */
struct PbsGolden
{
    const char *workload;
    bool detailed;        ///< timing model (else the mpki fidelity)
    const char *setting;  ///< a --pbs setting, or btbN / inflightN
    uint64_t cycles;
    uint64_t mispredicts;
    uint64_t steered;
    /** Every PbsStats counter, in declaration order. */
    std::array<uint64_t, 12> pbs;
    uint64_t traceDigest;  ///< FNV-1a over the prob trace
};

// Pinned on the engine with a token map and LiveTable, before the
// engine's hot path was rebuilt around caller-owned instances.
// clang-format off
const PbsGolden kPbsGolden[] = {
    {"pi", false, "on", 35587ull, 2ull, 1998ull,
     {1998ull, 1998ull, 30396ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x358a35bb160349e2ull},
    {"pi", false, "no-stall", 35586ull, 3ull, 1997ull,
     {1997ull, 0ull, 0ull, 3ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0xda5e9c911dfa82b7ull},
    {"pi", false, "no-context", 35587ull, 2ull, 1999ull,
     {1999ull, 1999ull, 30411ull, 1ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 0ull, 1ull, 0ull},
     0xe612322385ba7e22ull},
    {"pi", false, "no-guard", 35587ull, 2ull, 1998ull,
     {1998ull, 1998ull, 30396ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x358a35bb160349e2ull},
    {"pi", true, "on", 33171ull, 2ull, 1998ull,
     {1998ull, 1998ull, 22985ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x358a35bb160349e2ull},
    {"pi", true, "no-stall", 32964ull, 236ull, 957ull,
     {957ull, 0ull, 0ull, 1043ull, 0ull, 0ull, 961ull, 1039ull, 0ull, 1ull, 2ull, 0ull},
     0xc81666b5ebe2f23cull},
    {"pi", true, "no-context", 33171ull, 2ull, 1999ull,
     {1999ull, 1998ull, 22985ull, 1ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 0ull, 1ull, 0ull},
     0xe612322385ba7e22ull},
    {"pi", true, "no-guard", 33171ull, 2ull, 1998ull,
     {1998ull, 1998ull, 22985ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x358a35bb160349e2ull},
    {"bandit", false, "on", 208758ull, 151ull, 1998ull,
     {1998ull, 0ull, 0ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0xb17c59274f412f5full},
    {"bandit", false, "no-stall", 208758ull, 151ull, 1998ull,
     {1998ull, 0ull, 0ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0xb17c59274f412f5full},
    {"bandit", false, "no-context", 206522ull, 69ull, 1999ull,
     {1999ull, 0ull, 0ull, 1ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 0ull, 1ull, 0ull},
     0x19ad7d5ff8c57403ull},
    {"bandit", false, "no-guard", 208758ull, 151ull, 1998ull,
     {1998ull, 0ull, 0ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0xb17c59274f412f5full},
    {"bandit", true, "on", 169117ull, 151ull, 1998ull,
     {1998ull, 1922ull, 97405ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0xb17c59274f412f5full},
    {"bandit", true, "no-stall", 167557ull, 88ull, 1995ull,
     {1995ull, 0ull, 0ull, 5ull, 0ull, 0ull, 1999ull, 1ull, 0ull, 1ull, 2ull, 0ull},
     0x6d95145c722d484dull},
    {"bandit", true, "no-context", 167854ull, 69ull, 1999ull,
     {1999ull, 1956ull, 99715ull, 1ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 0ull, 1ull, 0ull},
     0x19ad7d5ff8c57403ull},
    {"bandit", true, "no-guard", 169117ull, 151ull, 1998ull,
     {1998ull, 1922ull, 97405ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0xb17c59274f412f5full},
    {"photon", false, "on", 143563ull, 342ull, 7888ull,
     {7888ull, 2386ull, 8558ull, 6ull, 0ull, 0ull, 7894ull, 0ull, 0ull, 4ull, 6ull, 2ull},
     0x04fd0e3119f72138ull},
    {"photon", false, "no-stall", 146088ull, 861ull, 6331ull,
     {6331ull, 0ull, 0ull, 1747ull, 0ull, 0ull, 6337ull, 1741ull, 0ull, 2ull, 6ull, 2ull},
     0x2d5f5dba277ebc52ull},
    {"photon", false, "no-context", 141313ull, 267ull, 7746ull,
     {7746ull, 5192ull, 20626ull, 2ull, 0ull, 0ull, 7748ull, 0ull, 0ull, 0ull, 2ull, 0ull},
     0x5cb491f344c2ad49ull},
    {"photon", false, "no-guard", 143563ull, 342ull, 7888ull,
     {7888ull, 2386ull, 8558ull, 6ull, 0ull, 0ull, 7894ull, 0ull, 0ull, 4ull, 6ull, 2ull},
     0x04fd0e3119f72138ull},
    {"photon", true, "on", 368410ull, 342ull, 7888ull,
     {7888ull, 4899ull, 286951ull, 6ull, 0ull, 0ull, 7894ull, 0ull, 0ull, 4ull, 6ull, 2ull},
     0x04fd0e3119f72138ull},
    {"photon", true, "no-stall", 403915ull, 1395ull, 4179ull,
     {4179ull, 0ull, 0ull, 4077ull, 0ull, 0ull, 4185ull, 4071ull, 0ull, 2ull, 6ull, 2ull},
     0x35336e247c6fa0d1ull},
    {"photon", true, "no-context", 361338ull, 267ull, 7746ull,
     {7746ull, 6792ull, 299938ull, 2ull, 0ull, 0ull, 7748ull, 0ull, 0ull, 0ull, 2ull, 0ull},
     0x5cb491f344c2ad49ull},
    {"photon", true, "no-guard", 368410ull, 342ull, 7888ull,
     {7888ull, 4899ull, 286951ull, 6ull, 0ull, 0ull, 7894ull, 0ull, 0ull, 4ull, 6ull, 2ull},
     0x04fd0e3119f72138ull},
    {"dop", false, "on", 203046ull, 1085ull, 3996ull,
     {3996ull, 0ull, 0ull, 4ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 2ull, 4ull, 0ull},
     0xe35179d5fe554ca8ull},
    {"dop", false, "no-stall", 203046ull, 1085ull, 3996ull,
     {3996ull, 0ull, 0ull, 4ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 2ull, 4ull, 0ull},
     0xe35179d5fe554ca8ull},
    {"dop", false, "no-context", 203048ull, 1080ull, 3998ull,
     {3998ull, 0ull, 0ull, 2ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 0ull, 2ull, 0ull},
     0x59962d02c78b2708ull},
    {"dop", false, "no-guard", 203046ull, 1085ull, 3996ull,
     {3996ull, 0ull, 0ull, 4ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 2ull, 4ull, 0ull},
     0xe35179d5fe554ca8ull},
    {"dop", true, "on", 537505ull, 1085ull, 3996ull,
     {3996ull, 2485ull, 268316ull, 4ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 2ull, 4ull, 0ull},
     0xe35179d5fe554ca8ull},
    {"dop", true, "no-stall", 560309ull, 1743ull, 2505ull,
     {2505ull, 0ull, 0ull, 1495ull, 0ull, 0ull, 2509ull, 1491ull, 0ull, 2ull, 4ull, 0ull},
     0xfc2cbcc0f84eeeb4ull},
    {"dop", true, "no-context", 537372ull, 1080ull, 3998ull,
     {3998ull, 2493ull, 269401ull, 2ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 0ull, 2ull, 0ull},
     0x59962d02c78b2708ull},
    {"dop", true, "no-guard", 537505ull, 1085ull, 3996ull,
     {3996ull, 2485ull, 268316ull, 4ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 2ull, 4ull, 0ull},
     0xe35179d5fe554ca8ull},
    {"mc-integ", false, "on", 32688ull, 3ull, 1998ull,
     {1998ull, 1998ull, 33291ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x388f76957c94c94full},
    {"mc-integ", false, "no-stall", 32687ull, 3ull, 1996ull,
     {1996ull, 0ull, 0ull, 4ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0xeb06aee4d010a1a8ull},
    {"mc-integ", false, "no-context", 32688ull, 3ull, 1999ull,
     {1999ull, 1999ull, 33308ull, 1ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 0ull, 1ull, 0ull},
     0xa25a102a1b66cd4full},
    {"mc-integ", false, "no-guard", 32688ull, 3ull, 1998ull,
     {1998ull, 1998ull, 33291ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x388f76957c94c94full},
    {"mc-integ", true, "on", 30200ull, 3ull, 1998ull,
     {1998ull, 1998ull, 19987ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x388f76957c94c94full},
    {"mc-integ", true, "no-stall", 32171ull, 298ull, 1123ull,
     {1123ull, 0ull, 0ull, 877ull, 0ull, 0ull, 1127ull, 873ull, 0ull, 1ull, 2ull, 0ull},
     0xa57795787dee97abull},
    {"mc-integ", true, "no-context", 30200ull, 3ull, 1999ull,
     {1999ull, 1998ull, 19987ull, 1ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 0ull, 1ull, 0ull},
     0xa25a102a1b66cd4full},
    {"mc-integ", true, "no-guard", 30200ull, 3ull, 1998ull,
     {1998ull, 1998ull, 19987ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x388f76957c94c94full},
    {"swaptions", false, "on", 1046737ull, 3458ull, 59996ull,
     {59996ull, 42360ull, 113490ull, 6004ull, 0ull, 0ull, 66000ull, 0ull, 0ull, 4002ull, 6004ull, 2002ull},
     0xf26ccda620d63ab0ull},
    {"swaptions", false, "no-stall", 1046657ull, 15538ull, 35274ull,
     {35274ull, 0ull, 0ull, 30726ull, 0ull, 0ull, 41278ull, 24722ull, 0ull, 4002ull, 6004ull, 2002ull},
     0xbc7ed45588ceadb4ull},
    {"swaptions", false, "no-context", 1046719ull, 386ull, 65997ull,
     {65997ull, 45355ull, 121344ull, 3ull, 0ull, 0ull, 66000ull, 0ull, 0ull, 0ull, 3ull, 0ull},
     0x347495c3dd22c672ull},
    {"swaptions", false, "no-guard", 1046737ull, 3458ull, 59996ull,
     {59996ull, 42360ull, 113490ull, 6004ull, 0ull, 0ull, 66000ull, 0ull, 0ull, 4002ull, 6004ull, 2002ull},
     0xf26ccda620d63ab0ull},
    {"swaptions", true, "on", 938110ull, 3458ull, 59996ull,
     {59996ull, 53560ull, 508900ull, 6004ull, 0ull, 0ull, 66000ull, 0ull, 0ull, 4002ull, 6004ull, 2002ull},
     0xf26ccda620d63ab0ull},
    {"swaptions", true, "no-stall", 1251425ull, 16947ull, 32954ull,
     {32954ull, 0ull, 0ull, 33046ull, 0ull, 0ull, 38958ull, 27042ull, 0ull, 4002ull, 6004ull, 2002ull},
     0x89cea43431b6881eull},
    {"swaptions", true, "no-context", 865969ull, 386ull, 65997ull,
     {65997ull, 62710ull, 607556ull, 3ull, 0ull, 0ull, 66000ull, 0ull, 0ull, 0ull, 3ull, 0ull},
     0x347495c3dd22c672ull},
    {"swaptions", true, "no-guard", 938110ull, 3458ull, 59996ull,
     {59996ull, 53560ull, 508900ull, 6004ull, 0ull, 0ull, 66000ull, 0ull, 0ull, 4002ull, 6004ull, 2002ull},
     0xf26ccda620d63ab0ull},
    {"greeks", false, "on", 121883ull, 561ull, 5994ull,
     {5994ull, 0ull, 0ull, 6ull, 0ull, 0ull, 6000ull, 0ull, 0ull, 3ull, 6ull, 2ull},
     0x9cca6e40b9761c7eull},
    {"greeks", false, "no-stall", 121883ull, 561ull, 5994ull,
     {5994ull, 0ull, 0ull, 6ull, 0ull, 0ull, 6000ull, 0ull, 0ull, 3ull, 6ull, 2ull},
     0x9cca6e40b9761c7eull},
    {"greeks", false, "no-context", 121889ull, 557ull, 5997ull,
     {5997ull, 0ull, 0ull, 3ull, 0ull, 0ull, 6000ull, 0ull, 0ull, 0ull, 3ull, 0ull},
     0x8eef0914f231200full},
    {"greeks", false, "no-guard", 121883ull, 561ull, 5994ull,
     {5994ull, 0ull, 0ull, 6ull, 0ull, 0ull, 6000ull, 0ull, 0ull, 3ull, 6ull, 2ull},
     0x9cca6e40b9761c7eull},
    {"greeks", true, "on", 311847ull, 561ull, 5994ull,
     {5994ull, 1560ull, 194113ull, 6ull, 0ull, 0ull, 6000ull, 0ull, 0ull, 3ull, 6ull, 2ull},
     0x9cca6e40b9761c7eull},
    {"greeks", true, "no-stall", 322980ull, 1122ull, 3845ull,
     {3845ull, 0ull, 0ull, 2155ull, 0ull, 0ull, 3851ull, 2149ull, 0ull, 3ull, 6ull, 2ull},
     0x02e721d6059fd5dbull},
    {"greeks", true, "no-context", 311774ull, 557ull, 5997ull,
     {5997ull, 1562ull, 194394ull, 3ull, 0ull, 0ull, 6000ull, 0ull, 0ull, 0ull, 3ull, 0ull},
     0x8eef0914f231200full},
    {"greeks", true, "no-guard", 311847ull, 561ull, 5994ull,
     {5994ull, 1560ull, 194113ull, 6ull, 0ull, 0ull, 6000ull, 0ull, 0ull, 3ull, 6ull, 2ull},
     0x9cca6e40b9761c7eull},
    {"genetic", false, "on", 29867ull, 380ull, 808ull,
     {808ull, 762ull, 15718ull, 8ull, 0ull, 0ull, 816ull, 0ull, 0ull, 6ull, 8ull, 0ull},
     0x628bff31a91735f6ull},
    {"genetic", false, "no-stall", 120329ull, 1071ull, 2390ull,
     {2390ull, 0ull, 0ull, 1146ull, 0ull, 0ull, 2431ull, 1105ull, 0ull, 26ull, 28ull, 0ull},
     0x810c8214a0d71fa6ull},
    {"genetic", false, "no-context", 75133ull, 582ull, 2174ull,
     {2174ull, 2040ull, 42224ull, 2ull, 0ull, 0ull, 2176ull, 0ull, 0ull, 0ull, 2ull, 0ull},
     0xaf5d09b8415be2c8ull},
    {"genetic", false, "no-guard", 29867ull, 380ull, 808ull,
     {808ull, 762ull, 15718ull, 8ull, 0ull, 0ull, 816ull, 0ull, 0ull, 6ull, 8ull, 0ull},
     0x628bff31a91735f6ull},
    {"genetic", true, "on", 27866ull, 380ull, 808ull,
     {808ull, 762ull, 6628ull, 8ull, 0ull, 0ull, 816ull, 0ull, 0ull, 6ull, 8ull, 0ull},
     0x628bff31a91735f6ull},
    {"genetic", true, "no-stall", 60430ull, 803ull, 660ull,
     {660ull, 0ull, 0ull, 1516ull, 0ull, 0ull, 686ull, 1490ull, 0ull, 16ull, 18ull, 0ull},
     0xd1e162aa57bedfd3ull},
    {"genetic", true, "no-context", 62795ull, 582ull, 2174ull,
     {2174ull, 2039ull, 17747ull, 2ull, 0ull, 0ull, 2176ull, 0ull, 0ull, 0ull, 2ull, 0ull},
     0xaf5d09b8415be2c8ull},
    {"genetic", true, "no-guard", 27866ull, 380ull, 808ull,
     {808ull, 762ull, 6628ull, 8ull, 0ull, 0ull, 816ull, 0ull, 0ull, 6ull, 8ull, 0ull},
     0x628bff31a91735f6ull},
    {"dop", false, "btb1", 203046ull, 1948ull, 1998ull,
     {1998ull, 0ull, 0ull, 2002ull, 2000ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 1ull},
     0x9cfe5bd4dd771b77ull},
    {"dop", false, "btb2", 203046ull, 1085ull, 3996ull,
     {3996ull, 0ull, 0ull, 4ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 2ull, 4ull, 2ull},
     0xe35179d5fe554ca8ull},
    {"dop", false, "btb8", 203046ull, 1085ull, 3996ull,
     {3996ull, 0ull, 0ull, 4ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 2ull, 4ull, 0ull},
     0xe35179d5fe554ca8ull},
    {"dop", false, "inflight1", 203047ull, 2869ull, 0ull,
     {0ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 1ull, 3999ull, 0ull, 2ull, 4ull, 0ull},
     0x49da1a26df4707fdull},
    {"dop", false, "inflight2", 203047ull, 2869ull, 0ull,
     {0ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 2ull, 3998ull, 0ull, 2ull, 4ull, 0ull},
     0x49da1a26df4707fdull},
    {"dop", false, "inflight8", 203046ull, 1085ull, 3996ull,
     {3996ull, 0ull, 0ull, 4ull, 0ull, 0ull, 4000ull, 0ull, 0ull, 2ull, 4ull, 0ull},
     0xe35179d5fe554ca8ull},
    {"greeks", false, "btb1", 121887ull, 1481ull, 1998ull,
     {1998ull, 0ull, 0ull, 4002ull, 4000ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 1ull},
     0x0878afba25955aa6ull},
    {"greeks", false, "btb2", 121885ull, 1395ull, 3996ull,
     {3996ull, 0ull, 0ull, 2004ull, 2000ull, 0ull, 4000ull, 0ull, 0ull, 2ull, 4ull, 2ull},
     0xa4dcc1cf32f486ccull},
    {"greeks", false, "btb8", 121887ull, 1481ull, 1998ull,
     {1998ull, 0ull, 0ull, 4002ull, 0ull, 0ull, 2002ull, 3998ull, 0ull, 3ull, 6ull, 0ull},
     0x0878afba25955aa6ull},
    {"greeks", false, "inflight1", 121887ull, 1604ull, 1998ull,
     {1998ull, 0ull, 0ull, 4002ull, 0ull, 0ull, 2000ull, 4000ull, 0ull, 3ull, 6ull, 2ull},
     0x98d3655b56d88aaaull},
    {"greeks", false, "inflight2", 121885ull, 1492ull, 3996ull,
     {3996ull, 0ull, 0ull, 2004ull, 0ull, 0ull, 4000ull, 2000ull, 0ull, 3ull, 6ull, 2ull},
     0x9d60dacdb4d1f4e4ull},
    {"greeks", false, "inflight8", 121883ull, 561ull, 5994ull,
     {5994ull, 0ull, 0ull, 6ull, 0ull, 0ull, 6000ull, 0ull, 0ull, 3ull, 6ull, 2ull},
     0x9cca6e40b9761c7eull},
    {"swaptions", false, "btb1", 1046768ull, 19484ull, 28000ull,
     {28000ull, 21151ull, 56650ull, 38000ull, 34000ull, 0ull, 32000ull, 0ull, 0ull, 2000ull, 4000ull, 2000ull},
     0x7aa593f1ecc5c915ull},
    {"swaptions", false, "btb2", 1046763ull, 5489ull, 56000ull,
     {56000ull, 42360ull, 113490ull, 10000ull, 2000ull, 0ull, 64000ull, 0ull, 0ull, 4000ull, 8000ull, 4000ull},
     0xc06914c9a82cc9b4ull},
    {"swaptions", false, "btb8", 1046698ull, 32174ull, 2012ull,
     {2012ull, 10ull, 30ull, 63988ull, 0ull, 0ull, 2017ull, 63983ull, 0ull, 4003ull, 4006ull, 0ull},
     0x72d6ddfee60d8d01ull},
    {"swaptions", false, "inflight1", 1046711ull, 19441ull, 28000ull,
     {28000ull, 21133ull, 56768ull, 38000ull, 0ull, 0ull, 32000ull, 34000ull, 0ull, 4002ull, 6004ull, 2002ull},
     0xb3f46d0c9749f33dull},
    {"swaptions", false, "inflight2", 1046700ull, 18221ull, 29998ull,
     {29998ull, 21133ull, 56768ull, 36002ull, 0ull, 0ull, 34000ull, 32000ull, 0ull, 4002ull, 6004ull, 2002ull},
     0xb9655a55c50163b9ull},
    {"swaptions", false, "inflight8", 1046737ull, 3458ull, 59996ull,
     {59996ull, 42360ull, 113490ull, 6004ull, 0ull, 0ull, 66000ull, 0ull, 0ull, 4002ull, 6004ull, 2002ull},
     0xf26ccda620d63ab0ull},
    {"photon", false, "btb1", 149762ull, 1808ull, 2330ull,
     {2330ull, 1828ull, 7309ull, 5965ull, 3699ull, 0ull, 4596ull, 0ull, 0ull, 1ull, 2266ull, 2265ull},
     0x258a5624ca9c1afdull},
    {"photon", false, "btb2", 149076ull, 1140ull, 4692ull,
     {4692ull, 3215ull, 11490ull, 3569ull, 0ull, 0ull, 8261ull, 0ull, 0ull, 2ull, 3569ull, 3567ull},
     0xca19dabc68b4ab1aull},
    {"photon", false, "btb8", 141787ull, 1370ull, 4393ull,
     {4393ull, 1479ull, 5847ull, 3404ull, 0ull, 0ull, 4397ull, 3400ull, 0ull, 2ull, 6ull, 0ull},
     0x4fed2aba9aaf1a6aull},
    {"photon", false, "inflight1", 149035ull, 1865ull, 1715ull,
     {1715ull, 0ull, 0ull, 6545ull, 0ull, 0ull, 1717ull, 6543ull, 0ull, 4ull, 6ull, 2ull},
     0x96a6b090f16a3985ull},
    {"photon", false, "inflight2", 149145ull, 1322ull, 3672ull,
     {3672ull, 1037ull, 3111ull, 4593ull, 0ull, 0ull, 3676ull, 4589ull, 0ull, 2ull, 6ull, 2ull},
     0x4c45756117c4e5f5ull},
    {"photon", false, "inflight8", 143563ull, 342ull, 7888ull,
     {7888ull, 2386ull, 8558ull, 6ull, 0ull, 0ull, 7894ull, 0ull, 0ull, 4ull, 6ull, 2ull},
     0x04fd0e3119f72138ull},
    {"pi", false, "btb1", 35587ull, 2ull, 1998ull,
     {1998ull, 1998ull, 30396ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 1ull},
     0x358a35bb160349e2ull},
    {"pi", false, "btb2", 35587ull, 2ull, 1998ull,
     {1998ull, 1998ull, 30396ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x358a35bb160349e2ull},
    {"pi", false, "btb8", 35587ull, 2ull, 1998ull,
     {1998ull, 1998ull, 30396ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x358a35bb160349e2ull},
    {"pi", false, "inflight1", 35586ull, 429ull, 0ull,
     {0ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 1999ull, 0ull, 1ull, 2ull, 0ull},
     0x7c25e7c98951154cull},
    {"pi", false, "inflight2", 35587ull, 2ull, 1998ull,
     {1998ull, 1998ull, 30396ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x358a35bb160349e2ull},
    {"pi", false, "inflight8", 35587ull, 2ull, 1998ull,
     {1998ull, 1998ull, 30396ull, 2ull, 0ull, 0ull, 2000ull, 0ull, 0ull, 1ull, 2ull, 0ull},
     0x358a35bb160349e2ull},
};
// clang-format on

std::array<uint64_t, 12>
pbsCounters(const core::PbsStats &s)
{
    return {s.fetchSteered, s.fetchStalled, s.stallCycles,
            s.fetchBootstrap, s.fetchUnsupported, s.fetchDepthLimited,
            s.recordsPushed, s.recordsDropped, s.constValFlushes,
            s.contextClears, s.entriesAllocated, s.entriesEvicted};
}

exp::ExpPoint
pbsPoint(const PbsGolden &g)
{
    exp::ExpPoint pt;
    pt.workload = g.workload;
    pt.scale = 2000;
    pt.pbs = true;
    pt.functional = !g.detailed;
    const std::string s = g.setting;
    pt.stallOnBusy = s != "no-stall";
    pt.contextSupport = s != "no-context";
    pt.constValGuard = s != "no-guard";
    if (s.rfind("btb", 0) == 0)
        pt.numBranches = unsigned(std::stoul(s.substr(3)));
    if (s.rfind("inflight", 0) == 0)
        pt.inFlightLimit = unsigned(std::stoul(s.substr(8)));
    return pt;
}

uint64_t
traceDigest(const std::vector<cpu::ProbTraceEntry> &trace)
{
    uint64_t h = 14695981039346656037ull;
    for (const auto &e : trace) {
        const uint64_t fields[] = {e.probId, e.selfSeq, e.consumedSeq,
                                   uint64_t(e.taken), uint64_t(e.steered)};
        h = util::fnv1a64(fields, sizeof(fields), h);
    }
    return h;
}

TEST(GoldenStats, PinnedPbsBehaviour)
{
    const bool print = std::getenv("PBS_PRINT_GOLDEN") != nullptr;
    for (const auto &g : kPbsGolden) {
        const exp::ExpPoint pt = pbsPoint(g);
        cpu::CoreConfig cfg = exp::pointCoreConfig(pt);
        cfg.traceProbBranches = true;
        cpu::Core core(workloads::benchmarkByName(pt.workload)
                           .build(exp::pointParams(pt),
                                  exp::variantFromName(pt.variant)),
                       cfg);
        core.run();
        const cpu::CoreStats &s = core.stats();
        const auto counters = pbsCounters(core.pbs().stats());
        const uint64_t digest = traceDigest(core.probTrace());
        if (print) {
            std::printf("    {\"%s\", %s, \"%s\", %lluull, %lluull, "
                        "%lluull,\n     {",
                        g.workload, g.detailed ? "true" : "false",
                        g.setting, (unsigned long long)s.cycles,
                        (unsigned long long)s.mispredicts,
                        (unsigned long long)s.steeredBranches);
            for (size_t i = 0; i < counters.size(); i++)
                std::printf("%s%lluull", i ? ", " : "",
                            (unsigned long long)counters[i]);
            std::printf("},\n     0x%016llxull},\n",
                        (unsigned long long)digest);
            continue;
        }
        SCOPED_TRACE(std::string(g.workload) +
                     (g.detailed ? "/detailed/" : "/mpki/") + g.setting);
        EXPECT_EQ(s.cycles, g.cycles);
        EXPECT_EQ(s.mispredicts, g.mispredicts);
        EXPECT_EQ(s.steeredBranches, g.steered);
        EXPECT_EQ(counters, g.pbs);
        EXPECT_EQ(digest, g.traceDigest);
    }
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
