/**
 * @file
 * Tests for the `pbs_sim` front end: CLI parsing, workload and
 * predictor selection, the options -> ExpPoint expansion, batch
 * determinism (a fixed seed yields bit-identical statistics across
 * runs and across thread counts), and the one-run-path contract — a
 * `pbs_sim` batch and a `pbs_exp` sweep of the same point write the
 * same result bytes.
 */

#include <gtest/gtest.h>

#include "driver/options.hh"
#include "driver/reports.hh"
#include "driver/runner.hh"
#include "exp/artifact.hh"
#include "exp/spec.hh"

namespace {

using namespace pbs;
using driver::DriverOptions;
using driver::parseArgs;

// --- CLI parsing -----------------------------------------------------

TEST(DriverOptions, DefaultsRequireWorkload)
{
    auto r = parseArgs({});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("required"), std::string::npos);
}

TEST(DriverOptions, ParsesFullWorkloadInvocation)
{
    auto r = parseArgs({"--workload", "pi", "--predictor", "tage_scl",
                        "--seeds", "8", "--jobs", "4"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.opts.workload, "pi");
    EXPECT_EQ(r.opts.predictor, "tage-sc-l");  // canonicalized
    EXPECT_EQ(r.opts.seeds, 8u);
    EXPECT_EQ(r.opts.jobs, 4u);
    EXPECT_EQ(r.opts.seed, 12345u);            // default base seed
    EXPECT_FALSE(r.opts.pbs);
    EXPECT_FALSE(r.opts.functional);
}

TEST(DriverOptions, EqualsSyntaxAndFlags)
{
    auto r = parseArgs({"--workload=pi", "--predictor=tournament",
                        "--pbs", "--mode=mpki", "--wide",
                        "--scale=100", "--seed=7", "--div=4",
                        "--no-stall", "--no-context", "--no-guard"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.opts.pbs);
    EXPECT_TRUE(r.opts.functional);
    EXPECT_EQ(r.opts.mode, "detailed");
    EXPECT_TRUE(r.opts.wide);
    EXPECT_FALSE(parseArgs({"pi", "--mode=mpki", "--mode=sampled"})
                     .opts.functional);  // the last --mode wins
    EXPECT_EQ(r.opts.scale, 100u);
    EXPECT_EQ(r.opts.seed, 7u);
    EXPECT_EQ(r.opts.divisor, 4u);
    EXPECT_TRUE(r.opts.noStall);
    EXPECT_TRUE(r.opts.noContext);
    EXPECT_TRUE(r.opts.noGuard);
}

TEST(DriverOptions, RejectsUnknownWorkloadPredictorAndOption)
{
    EXPECT_FALSE(parseArgs({"--workload", "nonesuch"}).ok);
    EXPECT_FALSE(parseArgs({"--workload", "pi",
                            "--predictor", "nonesuch"}).ok);
    EXPECT_FALSE(parseArgs({"--workload", "pi", "--frobnicate"}).ok);
    EXPECT_FALSE(parseArgs({"--workload", "pi", "--jobs", "0"}).ok);
    EXPECT_FALSE(parseArgs({"--workload", "pi", "--seeds", "x"}).ok);
}

TEST(DriverOptions, RemovedFlagsAreUnknownOptions)
{
    // None of these is a pbs_sim flag: reports render through
    // pbs_exp --report and the cross-process fan-out is
    // pbs_exp --campaign --shard.
    for (const char *flag :
         {"--prob-trace", "--functional", "--timing", "--report=fig07",
          "--shard=1/2", "--save-checkpoints=d", "--load-checkpoints=d",
          "--sample-max=3"}) {
        auto r = parseArgs({"--workload", "pi", flag});
        EXPECT_FALSE(r.ok) << flag;
        EXPECT_EQ(r.error.rfind("unknown option: ", 0), 0u) << r.error;
    }
}

TEST(DriverOptions, PositionalBenchmarkName)
{
    auto r = parseArgs({"pi", "--pbs"});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.opts.workload, "pi");
}

TEST(DriverOptions, VariantSelection)
{
    EXPECT_EQ(parseArgs({"pi", "--variant=marked"}).opts.variant,
              workloads::Variant::Marked);
    EXPECT_EQ(parseArgs({"dop", "--variant=predicated"}).opts.variant,
              workloads::Variant::Predicated);
    EXPECT_EQ(parseArgs({"dop", "--variant=cfd"}).opts.variant,
              workloads::Variant::Cfd);
    EXPECT_FALSE(parseArgs({"pi", "--variant=bogus"}).ok);
}

TEST(DriverOptions, CanonicalPredictorAliases)
{
    EXPECT_EQ(driver::canonicalPredictor("tage_scl"), "tage-sc-l");
    EXPECT_EQ(driver::canonicalPredictor("TAGE-SC-L"), "tage-sc-l");
    EXPECT_EQ(driver::canonicalPredictor("tagescl"), "tage-sc-l");
    EXPECT_EQ(driver::canonicalPredictor("tournament"), "tournament");
    EXPECT_EQ(driver::canonicalPredictor("tour"), "tournament");
    EXPECT_EQ(driver::canonicalPredictor("bimodal"), "bimodal");
    EXPECT_EQ(driver::canonicalPredictor("nonesuch"), "");
}

TEST(DriverOptions, CoreConfigReflectsOptions)
{
    auto r = parseArgs({"pi", "--pbs", "--wide", "--no-context"});
    ASSERT_TRUE(r.ok) << r.error;
    auto cfg = exp::pointCoreConfig(driver::batchPoints(r.opts).front());
    EXPECT_EQ(cfg.width, 8u);
    EXPECT_EQ(cfg.robSize, 256u);
    EXPECT_TRUE(cfg.pbsEnabled);
    EXPECT_FALSE(cfg.pbs.contextSupport);
    EXPECT_TRUE(cfg.pbs.stallOnBusy);
    EXPECT_EQ(cfg.mode, cpu::SimMode::Timing);

    auto f = parseArgs({"pi", "--mode", "mpki"});
    EXPECT_EQ(exp::pointCoreConfig(driver::batchPoints(f.opts).front())
                  .mode,
              cpu::SimMode::Functional);
}

TEST(DriverOptions, BatchPointsResolveScaleAndSeeds)
{
    const auto &b = workloads::benchmarkByName("pi");
    auto r = parseArgs({"pi", "--div", "10", "--seed", "7", "--seeds",
                        "3"});
    ASSERT_TRUE(r.ok) << r.error;
    const auto points = driver::batchPoints(r.opts);
    ASSERT_EQ(points.size(), 3u);
    for (size_t i = 0; i < points.size(); i++) {
        EXPECT_EQ(points[i].scale,
                  std::max<uint64_t>(1, b.defaultScale / 10));
        EXPECT_EQ(points[i].seed, 7u + i);
    }

    auto s = parseArgs({"pi", "--scale", "42"});
    EXPECT_EQ(driver::batchPoints(s.opts).front().scale, 42u);
}

// --- Report registry -------------------------------------------------

TEST(DriverReports, RegistryHasAllHarnesses)
{
    const char *expected[] = {"fig01", "fig06", "fig07", "fig08",
                              "fig09", "table1", "table2", "table3",
                              "table4", "ablation"};
    const auto &reports = driver::allReports();
    for (const char *name : expected) {
        bool found = false;
        for (const auto &rep : reports)
            found = found || rep.name == name;
        EXPECT_TRUE(found) << "missing report " << name;
    }
    exp::Engine engine;
    driver::ReportContext ctx{engine, 1};
    EXPECT_EQ(driver::runReport("nonesuch", ctx), 2);
}

// --- Batch determinism -----------------------------------------------

DriverOptions
tinyBatch(unsigned seeds, unsigned jobs)
{
    auto r = parseArgs({"--workload", "pi", "--mode", "mpki", "--pbs",
                        "--scale", "2000",
                        "--seeds", std::to_string(seeds),
                        "--jobs", std::to_string(jobs)});
    EXPECT_TRUE(r.ok) << r.error;
    return r.opts;
}

TEST(DriverBatch, FixedSeedIsBitIdenticalAcrossRuns)
{
    auto opts = tinyBatch(3, 1);
    // Measurement equality is counter for counter and output for
    // output, bit-identical rather than approximately equal.
    EXPECT_EQ(driver::measureBatch(opts), driver::measureBatch(opts));
}

TEST(DriverBatch, Jobs1AndJobs4AreBitIdentical)
{
    EXPECT_EQ(driver::measureBatch(tinyBatch(8, 1)),
              driver::measureBatch(tinyBatch(8, 4)));
}

TEST(DriverBatch, SeedsAreConsecutiveFromBase)
{
    auto opts = tinyBatch(4, 2);
    opts.seed = 100;
    const auto rs = driver::measureBatch(opts);
    ASSERT_EQ(rs.size(), 4u);
    for (size_t i = 0; i < rs.size(); i++) {
        exp::ExpPoint pt = driver::batchPoints(opts)[i];
        EXPECT_EQ(pt.seed, 100u + i);
        EXPECT_EQ(rs[i], exp::Engine::computePoint(pt));
        EXPECT_GT(rs[i].stats.instructions, 0u);
    }
}

TEST(DriverBatch, MatchesReportHarnessPoint)
{
    // A pbs_sim run is the ExpPoint the report harnesses build for the
    // same configuration.
    auto r = parseArgs({"--workload", "pi", "--mode", "mpki",
                        "--predictor", "tage_scl", "--scale", "2000"});
    ASSERT_TRUE(r.ok) << r.error;
    const auto points = driver::batchPoints(r.opts);
    ASSERT_EQ(points.size(), 1u);

    exp::ExpPoint harness = driver::functionalPoint(
        workloads::benchmarkByName("pi"), "tage-sc-l", false, 1);
    harness.scale = 2000;
    EXPECT_EQ(points[0], harness);
    EXPECT_EQ(driver::measureBatch(r.opts).front(),
              exp::Engine::computePoint(harness));
}

TEST(DriverBatch, FormatBatchMentionsEverySeed)
{
    auto opts = tinyBatch(3, 1);
    opts.seed = 500;
    auto out = driver::formatBatch(opts, driver::measureBatch(opts));
    EXPECT_NE(out.find("500"), std::string::npos);
    EXPECT_NE(out.find("501"), std::string::npos);
    EXPECT_NE(out.find("502"), std::string::npos);
    EXPECT_NE(out.find("ipc"), std::string::npos);
}

// --- One run path: pbs_sim and pbs_exp write the same result ---------

/** The `result` object of the first entry of @p list in @p doc. */
std::string
firstResult(const std::string &doc, const char *list)
{
    exp::JsonValue v;
    std::string err;
    EXPECT_TRUE(exp::parseJson(doc, v, err)) << err;
    const exp::JsonValue *items = v.find(list);
    if (!items || items->items.empty())
        return "";
    const exp::JsonValue *result = items->items[0].find("result");
    return result ? exp::rewriteJson(*result) : "";
}

TEST(DriverBatch, BatchResultMatchesSweepResultByteForByte)
{
    struct Case
    {
        std::vector<std::string> simArgs;
        std::vector<std::pair<const char *, const char *>> spec;
    };
    const Case cases[] = {
        {{"--mode", "detailed", "--pbs"}, {{"mode", "detailed"},
                                            {"pbs", "on"}}},
        {{"--mode", "mpki", "--pbs"}, {{"mode", "mpki"}, {"pbs", "on"}}},
        {{"--mode", "functional"}, {{"mode", "functional"}}},
        {{"--mode", "sampled", "--pbs", "--sample-interval", "40000",
          "--sample-warmup", "10000", "--sample-measure", "5000"},
         {{"mode", "sampled"}, {"pbs", "on"},
          {"sample-interval", "40000"}, {"sample-warmup", "10000"},
          {"sample-measure", "5000"}}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.simArgs[1]);
        std::vector<std::string> args = {"--workload", "pi", "--div",
                                         "20", "--seed", "9",
                                         "--format", "json"};
        args.insert(args.end(), c.simArgs.begin(), c.simArgs.end());
        auto parsed = parseArgs(args);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        const std::string batch = driver::batchJson(
            parsed.opts, driver::measureBatch(parsed.opts));

        exp::SweepSpec spec;
        ASSERT_EQ(exp::applySpecKey(spec, "workload", "pi"), "");
        ASSERT_EQ(exp::applySpecKey(spec, "div", "20"), "");
        ASSERT_EQ(exp::applySpecKey(spec, "seed", "9"), "");
        for (const auto &[key, value] : c.spec)
            ASSERT_EQ(exp::applySpecKey(spec, key, value), "");
        auto grid = exp::expandSpec(spec);
        ASSERT_TRUE(grid.ok) << grid.error;
        ASSERT_EQ(grid.points.size(), 1u);
        exp::Engine engine;
        engine.runAll(grid.points);
        const std::string sweep = exp::sweepJson(grid.points, engine);

        const std::string fromSim = firstResult(batch, "runs");
        EXPECT_FALSE(fromSim.empty());
        EXPECT_EQ(fromSim, firstResult(sweep, "points"));
    }
}

}  // namespace
