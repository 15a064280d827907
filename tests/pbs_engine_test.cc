/**
 * @file
 * Unit tests for the PBS hardware: Prob-BTB / SwapTable /
 * Prob-in-Flight mechanics, bootstrap, Const-Val guard, capacity
 * limits, and the paper's 193-byte storage arithmetic.
 */

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/pbs_engine.hh"

namespace {

using namespace pbs::core;

/** Open an instance at fetch. */
PbsInstance
fetch(PbsEngine &engine, uint64_t pc, uint64_t fetchCycle)
{
    PbsInstance inst;
    engine.onProbCmpFetch(inst, pc, fetchCycle);
    return inst;
}

/** Drive one full instance through the engine. */
PbsInstance
runInstance(PbsEngine &engine, uint64_t pc, uint64_t fetchCycle,
            uint64_t execCycle, uint64_t v1, uint64_t operand,
            bool outcome, uint64_t genSeq = 0)
{
    PbsInstance inst = fetch(engine, pc, fetchCycle);
    engine.onProbCmpExec(inst, v1, operand);
    engine.onProbJmpExec(inst, outcome, std::nullopt, pc + 1, execCycle,
                         genSeq);
    return inst;
}

TEST(PbsStorage, PaperArithmeticIs193Bytes)
{
    PbsEngine engine;  // default config = paper config
    // Prob-BTB: 4 x (1+48+48+48+8+1+1+64) = 4 x 219 bits.
    EXPECT_EQ(engine.btb().storageBits(), 4u * 219u);
    // Total: 1544 bits = 193 bytes exactly (paper Sec. V-C2).
    EXPECT_EQ(engine.storageBits(), 1544u);
    EXPECT_EQ(engine.storageBytes(), 193u);
}

TEST(PbsStorage, ScalesWithConfig)
{
    PbsConfig cfg;
    cfg.numBranches = 8;
    cfg.inFlightLimit = 8;
    PbsEngine engine(cfg);
    EXPECT_EQ(engine.btb().storageBits(), 8u * 219u);
    EXPECT_EQ(engine.inFlight().storageBits(), 8u * 2u * 16u);
}

TEST(PbsEngineTest, FirstFetchIsBootstrap)
{
    PbsEngine engine;
    PbsInstance inst = fetch(engine, 0x100, 0);
    EXPECT_FALSE(inst.steered);
    EXPECT_EQ(inst.fallback, FallbackReason::Bootstrap);
    EXPECT_EQ(engine.stats().fetchBootstrap, 1u);
}

TEST(PbsEngineTest, SteersAfterFirstExecution)
{
    // Fall-back policy (no stalling) isolates record visibility.
    PbsConfig cfg;
    cfg.stallOnBusy = false;
    PbsEngine engine(cfg);
    runInstance(engine, 0x100, /*fetch*/ 0, /*exec*/ 50,
                /*v1*/ 111, /*op*/ 7, /*taken*/ true);

    // Fetch before the record's exec cycle: still bootstrap.
    PbsInstance early = fetch(engine, 0x100, 20);
    EXPECT_FALSE(early.steered);
    engine.onProbCmpExec(early, 222, 7);
    engine.onProbJmpExec(early, false, std::nullopt, 0x101, 70, 1);

    // Fetch after both records are visible: steered with the first
    // instance's outcome and value.
    PbsInstance late = fetch(engine, 0x100, 100);
    EXPECT_TRUE(late.steered);
    EXPECT_TRUE(late.old.taken);
    EXPECT_EQ(late.old.value1, 111u);
    engine.onProbCmpExec(late, 333, 7);
    engine.onProbJmpExec(late, true, std::nullopt, 0x101, 150, 2);

    // Next steered fetch consumes the second record, in order.
    PbsInstance next = fetch(engine, 0x100, 200);
    EXPECT_TRUE(next.steered);
    EXPECT_FALSE(next.old.taken);
    EXPECT_EQ(next.old.value1, 222u);
    EXPECT_EQ(next.old.genSeq, 1u);
}

TEST(PbsEngineTest, SecondValueTravelsThroughSwap)
{
    PbsEngine engine;
    PbsInstance a = fetch(engine, 0x200, 0);
    engine.onProbCmpExec(a, 10, 3);
    engine.onProbJmpExec(a, true, 99u, 0x201, 40, 0);

    PbsInstance b = fetch(engine, 0x200, 100);
    ASSERT_TRUE(b.steered);
    EXPECT_TRUE(b.old.hasValue2);
    EXPECT_EQ(b.old.value2, 99u);
}

TEST(PbsEngineTest, CarrierValueRecorded)
{
    PbsEngine engine;
    PbsInstance a = fetch(engine, 0x200, 0);
    engine.onProbCmpExec(a, 10, 3);
    engine.onCarrierExec(a, 77);
    engine.onProbJmpExec(a, true, std::nullopt, 0x201, 40, 0);

    PbsInstance b = fetch(engine, 0x200, 100);
    ASSERT_TRUE(b.steered);
    EXPECT_TRUE(b.old.hasValue2);
    EXPECT_EQ(b.old.value2, 77u);
}

TEST(PbsEngineTest, ConstValMismatchFlushes)
{
    PbsEngine engine;
    runInstance(engine, 0x300, 0, 10, 1, /*operand*/ 42, true);

    // Same operand: fine, becomes steered.
    PbsInstance b = fetch(engine, 0x300, 50);
    EXPECT_TRUE(b.steered);
    EXPECT_TRUE(engine.onProbCmpExec(b, 2, 42));
    engine.onProbJmpExec(b, true, std::nullopt, 0x301, 60, 1);

    // Changed operand: Const-Val guard flushes the branch state.
    PbsInstance c = fetch(engine, 0x300, 100);
    EXPECT_FALSE(engine.onProbCmpExec(c, 3, 43));
    engine.onProbJmpExec(c, true, std::nullopt, 0x301, 110, 2);
    EXPECT_EQ(engine.stats().constValFlushes, 1u);

    // The branch is demoted to regular for good (sticky disable):
    // later instances never steer and never re-allocate.
    PbsInstance d = fetch(engine, 0x300, 200);
    EXPECT_FALSE(d.steered);
    EXPECT_EQ(d.fallback, FallbackReason::ConstValViolation);
    engine.onProbCmpExec(d, 5, 42);
    engine.onProbJmpExec(d, true, std::nullopt, 0x301, 210, 3);
    PbsInstance e = fetch(engine, 0x300, 300);
    EXPECT_FALSE(e.steered);
    EXPECT_EQ(e.fallback, FallbackReason::ConstValViolation);

    // Other branches are unaffected by the demotion.
    runInstance(engine, 0x400, 400, 410, 1, 9, false);
    EXPECT_TRUE(fetch(engine, 0x400, 500).steered);
}

TEST(PbsEngineTest, ConstValGuardCanBeDisabled)
{
    PbsConfig cfg;
    cfg.constValGuard = false;
    PbsEngine engine(cfg);
    runInstance(engine, 0x300, 0, 10, 1, 42, true);
    PbsInstance b = fetch(engine, 0x300, 50);
    EXPECT_TRUE(b.steered);
    EXPECT_TRUE(engine.onProbCmpExec(b, 2, 43));
    EXPECT_EQ(engine.stats().constValFlushes, 0u);
}

TEST(PbsEngineTest, CapacityLimitLeavesExtraBranchesRegular)
{
    PbsConfig cfg;
    cfg.numBranches = 2;
    PbsEngine engine(cfg);
    for (uint64_t pc : {0x10ull, 0x20ull, 0x30ull})
        runInstance(engine, pc, 0, 10, 1, 2, true);

    EXPECT_EQ(engine.stats().entriesAllocated, 2u);
    EXPECT_EQ(engine.stats().fetchUnsupported, 1u);

    // The two allocated branches steer; the third cannot.
    EXPECT_TRUE(fetch(engine, 0x10, 100).steered);
    EXPECT_TRUE(fetch(engine, 0x20, 100).steered);
    EXPECT_FALSE(fetch(engine, 0x30, 100).steered);
}

TEST(PbsEngineTest, StallOnBusySteersWithDelay)
{
    PbsEngine engine;  // default policy: stall until the record is done
    runInstance(engine, 0x100, /*fetch*/ 0, /*exec*/ 50,
                /*v1*/ 111, /*op*/ 7, /*taken*/ true);

    // Fetch at cycle 20, record completes at 50: fetch stalls 30
    // cycles and steers instead of risking a misprediction.
    PbsInstance early = fetch(engine, 0x100, 20);
    EXPECT_TRUE(early.steered);
    EXPECT_EQ(early.stallCycles, 30u);
    EXPECT_EQ(early.old.value1, 111u);
    EXPECT_EQ(engine.stats().fetchStalled, 1u);
    EXPECT_EQ(engine.stats().stallCycles, 30u);
}

TEST(PbsEngineTest, InFlightTableDropsWhenFull)
{
    PbsConfig cfg;
    cfg.inFlightLimit = 2;
    cfg.stallOnBusy = false;
    PbsEngine engine(cfg);
    // Four bootstrap instances execute without any consuming fetch:
    // the FIFO holds two records; the rest are dropped (the Prob-BTB
    // payload is only refilled lazily, at fetch time).
    for (int i = 0; i < 4; i++)
        runInstance(engine, 0x40, 0, 10 + i, uint64_t(i), 2, true, i);
    EXPECT_EQ(engine.stats().recordsPushed, 2u);
    EXPECT_EQ(engine.stats().recordsDropped, 2u);

    // A consuming fetch drains one slot; the next record is accepted.
    PbsInstance b = fetch(engine, 0x40, 100);
    EXPECT_TRUE(b.steered);
    EXPECT_EQ(b.old.value1, 0u);  // oldest record first
    engine.onProbCmpExec(b, 9, 2);
    engine.onProbJmpExec(b, true, std::nullopt, 0x41, 150, 4);
    EXPECT_EQ(engine.stats().recordsPushed, 3u);
}

TEST(PbsEngineTest, DisabledEngineNeverSteers)
{
    PbsEngine engine;
    engine.setEnabled(false);
    runInstance(engine, 0x50, 0, 10, 1, 2, true);
    PbsInstance b = fetch(engine, 0x50, 100);
    EXPECT_FALSE(b.steered);
    EXPECT_EQ(b.fallback, FallbackReason::Disabled);
}

TEST(PbsEngineTest, DeterministicReplay)
{
    // Same event sequence -> same steering decisions and values.
    auto run = [] {
        PbsEngine engine;
        std::vector<uint64_t> consumed;
        for (int i = 0; i < 32; i++) {
            uint64_t at = 10 * i;
            PbsInstance inst = fetch(engine, 0x60, at);
            consumed.push_back(inst.steered ? inst.old.value1
                                            : uint64_t(1000 + i));
            engine.onProbCmpExec(inst, 1000 + i, 5);
            engine.onProbJmpExec(inst, i % 3 == 0, std::nullopt,
                                 0x61, at + 35, i);
        }
        return consumed;
    };
    EXPECT_EQ(run(), run());
}

TEST(PbsEngineTest, InstancePublishesOnce)
{
    PbsEngine engine;
    PbsInstance inst = fetch(engine, 0x70, 0);
    engine.onProbCmpExec(inst, 1, 2);
    engine.onProbJmpExec(inst, true, std::nullopt, 0x71, 10, 0);
    engine.onProbJmpExec(inst, true, std::nullopt, 0x71, 10, 0);
    EXPECT_EQ(engine.stats().recordsPushed, 1u);
}

TEST(PbsEngineTest, CallerOwnedInstancesInterleave)
{
    // Two static branches with open instances at once: each event
    // acts on the instance it is given.
    PbsEngine engine;
    runInstance(engine, 0x80, 0, 5, /*v1*/ 8, 1, true);
    runInstance(engine, 0x90, 0, 5, /*v1*/ 9, 1, false);
    PbsInstance a = fetch(engine, 0x80, 10);
    PbsInstance b = fetch(engine, 0x90, 10);
    ASSERT_TRUE(a.steered);
    ASSERT_TRUE(b.steered);
    EXPECT_EQ(a.old.value1, 8u);
    EXPECT_EQ(b.old.value1, 9u);
    engine.onProbCmpExec(b, 90, 1);
    engine.onProbCmpExec(a, 80, 1);
    engine.onProbJmpExec(b, true, std::nullopt, 0x91, 20, 1);
    engine.onProbJmpExec(a, false, std::nullopt, 0x81, 20, 1);
    EXPECT_EQ(fetch(engine, 0x80, 30).old.value1, 80u);
    EXPECT_EQ(fetch(engine, 0x90, 30).old.value1, 90u);
}

/** PbsEngine's constructor check on one field. */
void
expectRejected(const PbsConfig &cfg, const std::string &field)
{
    try {
        PbsEngine engine(cfg);
        ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("PbsConfig." + field),
                  std::string::npos)
            << e.what();
    }
}

TEST(PbsConfigCheck, ZeroCountsAreRejected)
{
    expectRejected(PbsConfig{.numBranches = 0}, "numBranches");
    expectRejected(PbsConfig{.valuesPerBranch = 0}, "valuesPerBranch");
    expectRejected(PbsConfig{.inFlightLimit = 0}, "inFlightLimit");
    expectRejected(PbsConfig{.contextEntries = 0}, "contextEntries");
}

TEST(PbsConfigCheck, TablesPastCapacityAreRejected)
{
    expectRejected(PbsConfig{.numBranches = PbsConfig::kMaxBranches + 1},
                   "numBranches");
    expectRejected(
        PbsConfig{.inFlightLimit = PbsConfig::kMaxInFlight + 1},
        "inFlightLimit");
    expectRejected(
        PbsConfig{.contextEntries = PbsConfig::kMaxContextEntries + 1},
        "contextEntries");
}

TEST(PbsConfigCheck, LargestTablesWork)
{
    PbsConfig cfg;
    cfg.numBranches = PbsConfig::kMaxBranches;
    cfg.inFlightLimit = PbsConfig::kMaxInFlight;
    cfg.contextEntries = PbsConfig::kMaxContextEntries;
    cfg.stallOnBusy = false;
    PbsEngine engine(cfg);
    // Every in-flight slot holds a record of the same branch; none
    // is dropped until the table is full.
    for (unsigned i = 0; i <= PbsConfig::kMaxInFlight; i++)
        runInstance(engine, 0x10, 0, 10, i, 2, true, i);
    EXPECT_EQ(engine.stats().recordsPushed, PbsConfig::kMaxInFlight);
    EXPECT_EQ(engine.stats().recordsDropped, 1u);
    EXPECT_EQ(engine.inFlight().occupancy(), PbsConfig::kMaxInFlight);

    // Distinct branches fill every Prob-BTB entry; one more finds no
    // room (no loop is tracked, so no entry is stale).
    PbsEngine wide(cfg);
    for (uint64_t pc = 0x100; pc <= 0x100 + PbsConfig::kMaxBranches; pc++)
        runInstance(wide, pc, 0, 10, 1, 2, true);
    EXPECT_EQ(wide.stats().entriesAllocated, PbsConfig::kMaxBranches);
    EXPECT_EQ(wide.stats().fetchUnsupported, 1u);
    EXPECT_EQ(wide.stats().recordsPushed, PbsConfig::kMaxBranches);
}

}  // namespace
