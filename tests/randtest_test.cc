/**
 * @file
 * Randomness-battery tests: p-value helper sanity, battery size (114
 * instances, matching DieHarder's count in Table III), detection power
 * on pathological streams, and acceptance of good generators.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "randtest/battery.hh"
#include "randtest/pvalue.hh"
#include "rng/rng.hh"

namespace {

using namespace pbs::randtest;

TEST(PValueTest, NormalCdf)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.96), 0.975, 1e-3);
    EXPECT_NEAR(normalTwoSided(0.0), 1.0, 1e-12);
    EXPECT_NEAR(normalTwoSided(1.96), 0.05, 1e-3);
}

TEST(PValueTest, Chi2SurvivalKnownValues)
{
    // chi2 = df has p ~ 0.44 for df=10; large chi2 -> tiny p.
    EXPECT_NEAR(chi2Sf(10.0, 10.0), 0.44, 0.02);
    EXPECT_LT(chi2Sf(100.0, 10.0), 1e-10);
    EXPECT_NEAR(chi2Sf(0.0, 10.0), 1.0, 1e-12);
    // Median of chi2(1) is ~0.455.
    EXPECT_NEAR(chi2Sf(0.455, 1.0), 0.5, 0.01);
}

TEST(PValueTest, KsPValueRange)
{
    EXPECT_NEAR(ksPValue(0.001, 1000), 1.0, 0.01);
    EXPECT_LT(ksPValue(0.2, 1000), 1e-6);
}

TEST(BatteryTest, Has114Instances)
{
    EXPECT_EQ(batterySize(), 114u);
    std::vector<double> stream(60000);
    pbs::rng::XorShift64Star rng(1);
    for (auto &v : stream)
        v = rng.nextDouble();
    auto results = runBattery(stream);
    EXPECT_EQ(results.size(), 114u);
}

TEST(BatteryTest, ClassifyThresholds)
{
    EXPECT_EQ(classify(0.5), Outcome::Pass);
    EXPECT_EQ(classify(0.01), Outcome::Pass);
    EXPECT_EQ(classify(0.004), Outcome::Weak);
    EXPECT_EQ(classify(0.996), Outcome::Weak);
    EXPECT_EQ(classify(1e-7), Outcome::Fail);
    EXPECT_EQ(classify(1.0 - 1e-7), Outcome::Fail);
}

TEST(BatteryTest, GoodGeneratorMostlyPasses)
{
    pbs::rng::XorShift64Star rng(12345);
    std::vector<double> stream(240000);
    for (auto &v : stream)
        v = rng.nextDouble();
    auto tally = tallyResults(runBattery(stream));
    EXPECT_EQ(tally.total(), 114u);
    EXPECT_GE(tally.pass, 100u);
    EXPECT_LE(tally.fail, 2u);
}

TEST(BatteryTest, ConstantStreamFailsHard)
{
    std::vector<double> stream(120000, 0.42);
    auto tally = tallyResults(runBattery(stream));
    EXPECT_GE(tally.fail, 60u);
}

TEST(BatteryTest, SortedStreamDetected)
{
    pbs::rng::XorShift64Star rng(9);
    std::vector<double> stream(120000);
    for (auto &v : stream)
        v = rng.nextDouble();
    std::sort(stream.begin(), stream.end());
    auto tally = tallyResults(runBattery(stream));
    EXPECT_GE(tally.fail, 30u);
}

TEST(BatteryTest, BiasedStreamDetected)
{
    // Low-order bias: u^2 is not uniform.
    pbs::rng::XorShift64Star rng(17);
    std::vector<double> stream(120000);
    for (auto &v : stream) {
        double u = rng.nextDouble();
        v = u * u;
    }
    auto tally = tallyResults(runBattery(stream));
    EXPECT_GE(tally.fail, 20u);
}

TEST(BatteryTest, IndividualTestsDetectTargetedDefects)
{
    pbs::rng::XorShift64Star rng(3);
    const size_t n = 60000;
    std::vector<double> good(n);
    for (auto &v : good)
        v = rng.nextDouble();

    // Correlated stream: v[i] ~ v[i-1].
    std::vector<double> corr(n);
    corr[0] = 0.5;
    for (size_t i = 1; i < n; i++) {
        double u = rng.nextDouble();
        corr[i] = 0.9 * corr[i - 1] + 0.1 * u;
    }
    EXPECT_GT(testSerialCorrelation(good.data(), n, 1), 1e-6);
    EXPECT_LT(testSerialCorrelation(corr.data(), n, 1), 1e-9);

    // Mean-shifted stream.
    std::vector<double> shifted(n);
    for (auto &v : shifted)
        v = std::min(0.999, rng.nextDouble() * 0.5 + 0.3);
    EXPECT_LT(testMean(shifted.data(), n), 1e-9);
    EXPECT_GT(testMean(good.data(), n), 1e-6);

    // Pair-dependent stream fails the 2-D serial test.
    std::vector<double> pairs(n);
    for (size_t i = 0; i < n; i += 2) {
        double u = rng.nextDouble();
        pairs[i] = u;
        pairs[i + 1] = u;  // duplicated in pairs
    }
    EXPECT_LT(testSerialPairs(pairs.data(), n, 8), 1e-9);
}

TEST(BatteryTest, PermutationRejectsTupleSizesOutsideTwoToEight)
{
    // t indexes a fixed 8-slot tuple and divides the stream length, so
    // t > 8 and t == 0 must be refused before either happens; t == 1
    // has a single order pattern and tests nothing.
    pbs::rng::XorShift64Star rng(5);
    std::vector<double> v(4096);
    for (auto &x : v)
        x = rng.nextDouble();
    for (unsigned t : {0u, 1u, 9u})
        EXPECT_THROW(testPermutation(v.data(), v.size(), t),
                     std::invalid_argument)
            << "t = " << t;
    for (unsigned t : {2u, 8u})
        EXPECT_NO_THROW(testPermutation(v.data(), v.size(), t))
            << "t = " << t;
}

TEST(BatteryTest, Lcg48PassesBasicBattery)
{
    // drand48's high bits are decent; the battery should mostly pass.
    pbs::rng::Lcg48 lcg(7);
    std::vector<double> stream(240000);
    for (auto &v : stream)
        v = lcg.nextDouble();
    auto tally = tallyResults(runBattery(stream));
    EXPECT_GE(tally.pass, 95u);
}

}  // namespace
