/**
 * @file
 * Branch predictor tests: learning behavior on canonical patterns,
 * storage budgets (the paper's 1 KB tournament and 8 KB TAGE-SC-L),
 * accuracy ordering across predictors, and an exact pin of every zoo
 * predictor's prediction stream on seeded synthetic traces, through
 * both predict + update and predictAndUpdate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "bpred/factory.hh"
#include "bpred/loop.hh"
#include "bpred/simple.hh"
#include "bpred/tage.hh"
#include "bpred/tage_scl.hh"
#include "bpred/tournament.hh"
#include "rng/rng.hh"

namespace {

using namespace pbs::bpred;

/** Feed a pattern; @return accuracy over the last half. */
double
trainAccuracy(BranchPredictor &pred, uint64_t pc,
              const std::vector<bool> &pattern, unsigned reps)
{
    uint64_t correct = 0, counted = 0;
    uint64_t total = uint64_t(pattern.size()) * reps;
    uint64_t i = 0;
    for (unsigned r = 0; r < reps; r++) {
        for (bool taken : pattern) {
            bool p = pred.predict(pc);
            pred.update(pc, taken);
            if (i >= total / 2) {
                counted++;
                correct += p == taken;
            }
            i++;
        }
    }
    return double(correct) / double(counted);
}

TEST(BimodalTest, LearnsBias)
{
    BimodalPredictor pred(10);
    EXPECT_GT(trainAccuracy(pred, 0x40, {true}, 100), 0.99);
    BimodalPredictor pred2(10);
    EXPECT_GT(trainAccuracy(pred2, 0x40, {false}, 100), 0.99);
}

TEST(BimodalTest, AlternatingPatternFails)
{
    // Bimodal cannot learn T,NT,T,NT...
    BimodalPredictor pred(10);
    EXPECT_LT(trainAccuracy(pred, 0x40, {true, false}, 200), 0.6);
}

TEST(GshareTest, LearnsAlternatingViaHistory)
{
    GsharePredictor pred(12, 8);
    EXPECT_GT(trainAccuracy(pred, 0x40, {true, false}, 200), 0.95);
}

TEST(GshareTest, LearnsShortPeriodicPattern)
{
    GsharePredictor pred(12, 10);
    EXPECT_GT(trainAccuracy(pred, 0x40,
                            {true, true, false, true, false}, 400),
              0.95);
}

TEST(LocalTest, LearnsPerBranchPattern)
{
    LocalPredictor pred;
    EXPECT_GT(trainAccuracy(pred, 0x40, {true, true, false}, 400), 0.95);
}

TEST(LoopTest, PerfectOnFixedTripCount)
{
    LoopPredictor pred;
    // 7 taken then 1 not-taken, repeatedly (8-iteration loop).
    std::vector<bool> trip;
    for (int i = 0; i < 7; i++)
        trip.push_back(true);
    trip.push_back(false);
    EXPECT_EQ(trainAccuracy(pred, 0x80, trip, 200), 1.0);
}

TEST(LoopTest, ConfidenceResetsOnTripChange)
{
    LoopPredictor pred;
    uint64_t pc = 0x80;
    auto runs = [&](unsigned trips, unsigned n) {
        for (unsigned r = 0; r < n; r++) {
            for (unsigned i = 0; i < trips; i++) {
                pred.predict(pc);
                pred.update(pc, true);
            }
            pred.predict(pc);
            pred.update(pc, false);
        }
    };
    runs(5, 10);
    EXPECT_TRUE(pred.confident(pc));
    runs(9, 1);  // different trip count
    EXPECT_FALSE(pred.confident(pc));
}

TEST(TournamentTest, BudgetIsAboutOneKilobyte)
{
    TournamentPredictor pred;
    size_t bytes = pred.storageBits() / 8;
    EXPECT_GE(bytes, 800u);
    EXPECT_LE(bytes, 1100u);
}

TEST(TageSclTest, BudgetIsAboutEightKilobytes)
{
    TageSclPredictor pred;
    size_t bytes = pred.storageBits() / 8;
    EXPECT_GE(bytes, 7000u);
    EXPECT_LE(bytes, 9000u);
}

TEST(TageTest, GeometricHistoryLengths)
{
    // The series the constructor computed before the geometry became
    // constexpr: 6 tables between 4 and 160, rounded to nearest and kept
    // strictly increasing.
    constexpr unsigned kTables = 6, kMin = 4, kMax = 160;
    static_assert(TagePredictor::kNumTables == kTables);
    const double ratio =
        std::pow(double(kMax) / kMin, 1.0 / (kTables - 1));
    unsigned prev = 0;
    for (unsigned i = 0; i < kTables; i++) {
        unsigned len =
            static_cast<unsigned>(kMin * std::pow(ratio, i) + 0.5);
        if (i > 0 && len <= prev)
            len = prev + 1;
        EXPECT_EQ(TagePredictor::kHistoryLengths[i], len) << "table " << i;
        prev = len;
    }
    EXPECT_EQ(TagePredictor::kHistoryLengths.front(), 4u);
    EXPECT_EQ(TagePredictor::kHistoryLengths.back(), 160u);
}

TEST(TageTest, LearnsLongHistoryPattern)
{
    // Period-12 pattern: beyond bimodal, learnable with history.
    std::vector<bool> pattern = {true, true, true, false, true, false,
                                 false, true, true, false, false, false};
    TagePredictor pred;
    EXPECT_GT(trainAccuracy(pred, 0x100, pattern, 600), 0.97);
}

TEST(TageSclTest, BetterThanTournamentOnMixedBranches)
{
    // Two correlated branches + one biased branch, interleaved.
    auto run = [](BranchPredictor &pred) {
        pbs::rng::XorShift64Star rng(5);
        uint64_t correct = 0, total = 0;
        bool last = false;
        for (int i = 0; i < 60000; i++) {
            // Branch A: random 80% taken.
            bool a = rng.nextDouble() < 0.8;
            bool p = pred.predict(0x10);
            pred.update(0x10, a);
            correct += p == a;
            // Branch B: equals A (correlated through history).
            p = pred.predict(0x20);
            pred.update(0x20, a);
            correct += p == a;
            // Branch C: alternates with the previous A.
            bool c = a != last;
            last = a;
            p = pred.predict(0x30);
            pred.update(0x30, c);
            correct += p == c;
            total += 3;
        }
        return double(correct) / double(total);
    };
    TournamentPredictor tour;
    TageSclPredictor tage;
    double acc_tour = run(tour);
    double acc_tage = run(tage);
    EXPECT_GT(acc_tage, acc_tour - 0.005);
    EXPECT_GT(acc_tage, 0.85);
}

TEST(PredictorsTest, RandomBranchesNearFiftyPercent)
{
    // No predictor can learn a fair coin: check all stay near 50%.
    for (const char *name : {"bimodal", "gshare", "tournament",
                             "tage", "tage-sc-l"}) {
        auto pred = makePredictor(name);
        pbs::rng::XorShift64Star rng(11);
        uint64_t correct = 0;
        const int n = 40000;
        for (int i = 0; i < n; i++) {
            bool t = rng.nextDouble() < 0.5;
            bool p = pred->predict(0x50);
            pred->update(0x50, t);
            correct += p == t;
        }
        double acc = double(correct) / n;
        EXPECT_GT(acc, 0.45) << name;
        EXPECT_LT(acc, 0.55) << name;
    }
}

TEST(FactoryTest, AllNamesConstruct)
{
    for (const std::string &name : predictorNames()) {
        auto pred = makePredictor(name);
        ASSERT_NE(pred, nullptr) << name;
        EXPECT_EQ(pred->name(), name);
        EXPECT_EQ(canonicalPredictor(name), name);
    }
    EXPECT_EQ(predictorNames().size(), 11u);
    EXPECT_THROW(makePredictor("nonsense"), std::invalid_argument);
}

TEST(FactoryTest, CanonicalPredictorAliases)
{
    EXPECT_EQ(canonicalPredictor("tage_scl"), "tage-sc-l");
    EXPECT_EQ(canonicalPredictor("TAGE-SC-L"), "tage-sc-l");
    EXPECT_EQ(canonicalPredictor("tagescl"), "tage-sc-l");
    EXPECT_EQ(canonicalPredictor("tage-scl"), "tage-sc-l");
    EXPECT_EQ(canonicalPredictor("tournament"), "tournament");
    EXPECT_EQ(canonicalPredictor("tour"), "tournament");
    EXPECT_EQ(canonicalPredictor("taken"), "always-taken");
    EXPECT_EQ(canonicalPredictor("not_taken"), "always-not-taken");
    EXPECT_EQ(canonicalPredictor("bimodal"), "bimodal");
    EXPECT_EQ(canonicalPredictor("nonesuch"), "");
}

TEST(FactoryTest, PerfectFlag)
{
    EXPECT_TRUE(makePredictor("perfect")->isPerfect());
    EXPECT_FALSE(makePredictor("tage")->isPerfect());
}

// ---------------------------------------------------------------------
// Prediction-stream pins: every zoo predictor runs one seeded synthetic
// stream and must reproduce its mispredict count and a hash of its
// prediction sequence exactly. The values were recorded before the
// TAGE-SC-L geometry became compile-time constants; a change here is a
// change in what a predictor predicts, not only in how fast.
// ---------------------------------------------------------------------

struct Branch
{
    uint64_t pc;
    bool taken;
};

/**
 * @p count branches over 64 static PCs, interleaved at random. The
 * PCs come in five kinds: biased (90% or 10% taken), periodic (a
 * period-2..13 pattern), fixed-trip loops (3..40 takens, then one
 * not-taken), history-correlated (the XOR of two recent global
 * outcomes) and fair coins.
 */
std::vector<Branch>
syntheticStream(unsigned count)
{
    constexpr unsigned kPcs = 64;
    struct PcState
    {
        unsigned kind;
        uint64_t param;
        uint64_t count = 0;
    };
    pbs::rng::SplitMix64 rng(2018);
    std::vector<PcState> pcs;
    for (unsigned i = 0; i < kPcs; i++) {
        const unsigned kind = i % 5;
        uint64_t param = 0;
        if (kind == 0)
            param = rng.next() & 1;  // taken- or not-taken-biased
        else if (kind == 1)
            param = (rng.next() & 0xfff) | (uint64_t(2 + i % 12) << 32);
        else if (kind == 2)
            param = 3 + rng.next() % 38;
        else if (kind == 3)
            param = 1 + rng.next() % 7;  // second history tap
        pcs.push_back({kind, param});
    }

    std::vector<Branch> out;
    out.reserve(count);
    uint64_t ghist = 0;
    for (unsigned n = 0; n < count; n++) {
        const uint64_t r = rng.next();
        const unsigned k = unsigned(r % kPcs);
        PcState &s = pcs[k];
        const double u = double(r >> 11) * 0x1.0p-53;
        bool taken = false;
        switch (s.kind) {
          case 0:
            taken = (u < 0.9) == (s.param == 1);
            break;
          case 1: {
            const uint64_t period = s.param >> 32;
            taken = (s.param >> (s.count % period)) & 1;
            break;
          }
          case 2:
            taken = s.count % (s.param + 1) != s.param;
            break;
          case 3:
            taken = ((ghist ^ (ghist >> s.param)) & 1) != 0;
            break;
          default:
            taken = u < 0.5;
            break;
        }
        s.count++;
        ghist = (ghist << 1) | (taken ? 1 : 0);
        out.push_back({0x40 + 3 * uint64_t(k), taken});
    }
    return out;
}

struct StreamPin
{
    const char *predictor;
    uint64_t mispredicts;
    uint64_t hash;  ///< FNV-1a over the predicted directions
};

// clang-format off
const StreamPin kStreamPins[] = {
    {"bimodal",     63998ull, 0x659855f95627739cull},
    {"gshare",      93220ull, 0x52818c622dd7fdd6ull},
    {"local",       48482ull, 0xb1f529d60afcec8eull},
    {"loop",        75391ull, 0x5d4f751f59080c8bull},
    {"tournament",  58626ull, 0xf07dd2125fd4e0f6ull},
    {"tage",        55695ull, 0xdcc9e03487437755ull},
    {"tage-sc-l",   53079ull, 0x6f569f374a6754e9ull},
    {"perfect",     80367ull, 0x552a611bca1c4165ull},
};
// clang-format on

/**
 * Run @p stream through a fresh pin.predictor twice, once through
 * predict + update and once through predictAndUpdate, and check both
 * against @p pin.
 */
void
expectPin(const std::vector<Branch> &stream, const StreamPin &pin)
{
    for (const bool fused : {false, true}) {
        auto pred = makePredictor(pin.predictor);
        uint64_t mispredicts = 0;
        uint64_t hash = 0xcbf29ce484222325ull;
        for (const Branch &b : stream) {
            bool p;
            if (fused) {
                p = pred->predictAndUpdate(b.pc, b.taken);
            } else {
                p = pred->predict(b.pc);
                pred->update(b.pc, b.taken);
            }
            mispredicts += p != b.taken;
            hash = (hash ^ (p ? 1 : 0)) * 0x100000001b3ull;
        }
        const char *form = fused ? " (predictAndUpdate)" : "";
        EXPECT_EQ(mispredicts, pin.mispredicts) << pin.predictor << form;
        EXPECT_EQ(hash, pin.hash)
            << pin.predictor << form << " hash 0x" << std::hex << hash;
    }
}

TEST(PredictorPins, SyntheticStreamIsBitExact)
{
    const std::vector<Branch> stream = syntheticStream(200'000);
    for (const StreamPin &pin : kStreamPins)
        expectPin(stream, pin);
}

// A stream three usefulness-aging periods long: the 200k stream above
// never reaches TagePredictor::kResetPeriod, so only these pins cover
// the aging path. Recorded before TAGE's histories were packed.
// clang-format off
const StreamPin kLongStreamPins[] = {
    {"tage",      214200ull, 0x9cb9d10bf02816f0ull},
    {"tage-sc-l", 205370ull, 0x5eca34bd8494e6e0ull},
};
// clang-format on

TEST(PredictorPins, LongStreamCoversUsefulnessAging)
{
    constexpr unsigned kCount = 3 * TagePredictor::kResetPeriod + 1000;
    const std::vector<Branch> stream = syntheticStream(kCount);
    for (const StreamPin &pin : kLongStreamPins)
        expectPin(stream, pin);
}

}  // namespace
