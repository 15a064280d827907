/**
 * @file
 * Tests for the fig/table report registry and for the determinism of
 * a seed sweep through the experiment engine: a fixed seed yields
 * bit-identical results across runs and across thread counts, seeds
 * are consecutive from the base, and a sweep point is the very point
 * the report harnesses build for the same configuration.
 */

#include <gtest/gtest.h>

#include "driver/reports.hh"
#include "exp/artifact.hh"
#include "exp/spec.hh"

namespace {

using namespace pbs;

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

// --- Seed-sweep determinism ------------------------------------------

/** A tiny mpki + PBS sweep of pi over @p seeds seeds from @p seed. */
std::vector<exp::ExpPoint>
tinySweep(unsigned seeds, uint64_t seed = 12345)
{
    exp::SweepSpec spec;
    spec.workloads = {"pi"};
    spec.modes = {"mpki"};
    spec.pbsModes = {"on"};
    spec.scales = {2000};
    spec.seed = seed;
    spec.seeds = seeds;
    auto grid = exp::expandSpec(spec);
    EXPECT_TRUE(grid.ok) << grid.error;
    return grid.points;
}

/** The pbs-sweep-v1 artifact of @p points measured on @p jobs workers. */
std::string
sweepOn(const std::vector<exp::ExpPoint> &points, unsigned jobs)
{
    exp::EngineConfig cfg;
    cfg.jobs = jobs;
    exp::Engine engine(cfg);
    engine.runAll(points);
    return exp::sweepJson(points, engine);
}

TEST(SweepDeterminism, FixedSeedIsBitIdenticalAcrossRuns)
{
    const auto points = tinySweep(3);
    EXPECT_EQ(sweepOn(points, 1), sweepOn(points, 1));
}

TEST(SweepDeterminism, Jobs1AndJobs4AreBitIdentical)
{
    const auto points = tinySweep(8);
    ASSERT_EQ(points.size(), 8u);
    EXPECT_EQ(sweepOn(points, 1), sweepOn(points, 4));
}

TEST(SweepDeterminism, SeedsAreConsecutiveFromBase)
{
    const auto points = tinySweep(4, 100);
    ASSERT_EQ(points.size(), 4u);
    exp::EngineConfig cfg;
    cfg.jobs = 2;
    exp::Engine engine(cfg);
    engine.runAll(points);
    for (size_t i = 0; i < points.size(); i++) {
        EXPECT_EQ(points[i].seed, 100u + i);
        // Measurement equality is counter for counter and output for
        // output, bit-identical rather than approximately equal.
        EXPECT_EQ(engine.measure(points[i]),
                  exp::Engine::computePoint(points[i]));
        EXPECT_GT(engine.measure(points[i]).stats.instructions, 0u);
    }
}

TEST(SweepDeterminism, MatchesReportHarnessPoint)
{
    // A sweep point is the ExpPoint the report harnesses build for the
    // same configuration; the predictor alias resolves on the way.
    exp::SweepSpec spec;
    ASSERT_EQ(exp::applySpecKey(spec, "workload", "pi"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "mode", "mpki"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "predictor", "tage_scl"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "scale", "2000"), "");
    auto grid = exp::expandSpec(spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    ASSERT_EQ(grid.points.size(), 1u);

    exp::ExpPoint harness = driver::functionalPoint(
        workloads::benchmarkByName("pi"), "tage-sc-l", false, 1);
    harness.scale = 2000;
    EXPECT_EQ(grid.points[0], harness);
    exp::Engine engine;
    engine.runAll(grid.points);
    EXPECT_EQ(engine.measure(grid.points[0]),
              exp::Engine::computePoint(harness));
}

}  // namespace
