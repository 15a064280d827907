/**
 * @file
 * Unit tests for the individual PBS tables (Prob-BTB, SwapTable,
 * Prob-in-Flight) and the disassembler.
 */

#include <gtest/gtest.h>

#include "core/tables.hh"
#include "isa/assembler.hh"

namespace {

using namespace pbs::core;

TEST(ProbBtbTest, FindRequiresContextMatch)
{
    ProbBtb btb{PbsConfig{}};
    ContextKey ctx_a{0, 0x100, 0};
    ContextKey ctx_b{1, 0x200, 0};
    int idx = btb.allocate(0x40, ctx_a);
    ASSERT_GE(idx, 0);
    EXPECT_EQ(btb.find(0x40, ctx_a), idx);
    EXPECT_EQ(btb.find(0x40, ctx_b), -1);
    EXPECT_EQ(btb.find(0x44, ctx_a), -1);
}

TEST(ProbBtbTest, CapacityAndClear)
{
    PbsConfig cfg;
    cfg.numBranches = 2;
    ProbBtb btb{cfg};
    ContextKey ctx;
    EXPECT_GE(btb.allocate(0x10, ctx), 0);
    EXPECT_GE(btb.allocate(0x20, ctx), 0);
    EXPECT_EQ(btb.allocate(0x30, ctx), -1);
    btb.clear(btb.find(0x10, ctx));
    EXPECT_GE(btb.allocate(0x30, ctx), 0);
    EXPECT_EQ(btb.find(0x10, ctx), -1);
}

TEST(ProbBtbTest, ClearContextOnlyTouchesMatchingLoop)
{
    ProbBtb btb{PbsConfig{}};
    ContextKey in_loop{0, 0x100, 0};
    ContextKey other{1, 0x300, 0};
    btb.allocate(0x10, in_loop);
    btb.allocate(0x20, other);
    EXPECT_EQ(btb.clearContext(0, 0x100), 1u);
    EXPECT_EQ(btb.find(0x10, in_loop), -1);
    EXPECT_GE(btb.find(0x20, other), 0);
}

/** The value1 of the oldest record of @p idx visible at @p now, taken
 *  out of @p fifo; -1 if none is visible. */
int64_t
pull(ProbInFlight &fifo, int idx, uint64_t now)
{
    const unsigned pos = fifo.firstReady(idx, now);
    if (pos == fifo.queued(idx))
        return -1;
    BranchRecord rec;
    fifo.take(idx, pos, rec);
    return int64_t(rec.value1);
}

TEST(ProbInFlightTest, FifoOrderWithinIndex)
{
    ProbInFlight fifo{PbsConfig{}};
    for (uint64_t i = 0; i < 3; i++) {
        BranchRecord rec;
        rec.value1 = 100 + i;
        EXPECT_TRUE(fifo.push(0, rec, /*ready*/ 10 * i));
    }
    EXPECT_EQ(fifo.occupancy(), 3u);
    EXPECT_EQ(pull(fifo, 0, 100), 100);
    EXPECT_EQ(pull(fifo, 0, 100), 101);
    EXPECT_EQ(pull(fifo, 0, 100), 102);
    EXPECT_EQ(pull(fifo, 0, 100), -1);
    EXPECT_EQ(fifo.occupancy(), 0u);
}

TEST(ProbInFlightTest, VisibilityRespectsReadyCycle)
{
    ProbInFlight fifo{PbsConfig{}};
    BranchRecord rec;
    rec.value1 = 7;
    fifo.push(2, rec, /*ready*/ 50);
    EXPECT_EQ(pull(fifo, 2, 49), -1);
    ASSERT_EQ(fifo.queued(2), 1u);
    EXPECT_EQ(fifo.readyCycle(2, 0), 50u);
    EXPECT_EQ(fifo.queued(1), 0u);
    EXPECT_EQ(pull(fifo, 2, 50), 7);
}

TEST(ProbInFlightTest, OldestVisibleRecordFirst)
{
    // Records of one entry can become visible out of push order (the
    // timing model's completion cycles): a fetch takes the oldest one
    // already visible, and the rest keep their order.
    ProbInFlight fifo{PbsConfig{}};
    for (uint64_t i = 0; i < 3; i++) {
        BranchRecord rec;
        rec.value1 = i;
        fifo.push(0, rec, /*ready*/ i == 0 ? 90 : 10 * i);
    }
    EXPECT_EQ(pull(fifo, 0, 30), 1);
    EXPECT_EQ(pull(fifo, 0, 100), 0);
    EXPECT_EQ(pull(fifo, 0, 100), 2);
}

TEST(ProbInFlightTest, FullTableDropsAndClearFreesSlots)
{
    PbsConfig cfg;
    cfg.inFlightLimit = 2;
    ProbInFlight fifo{cfg};
    BranchRecord rec;
    EXPECT_TRUE(fifo.push(0, rec, 0));
    EXPECT_TRUE(fifo.push(1, rec, 0));
    EXPECT_FALSE(fifo.push(1, rec, 0));
    fifo.clearIndex(1);
    EXPECT_EQ(fifo.occupancy(), 1u);
    EXPECT_TRUE(fifo.push(1, rec, 0));
}

TEST(ProbInFlightTest, IndexesAreIndependent)
{
    ProbInFlight fifo{PbsConfig{}};
    BranchRecord a, b;
    a.value1 = 1;
    b.value1 = 2;
    fifo.push(0, a, 0);
    fifo.push(1, b, 0);
    fifo.clearIndex(0);
    EXPECT_EQ(pull(fifo, 0, 10), -1);
    EXPECT_EQ(pull(fifo, 1, 10), 2);
}

TEST(SwapTableTest, EntriesScaleWithValuesPerBranch)
{
    PbsConfig cfg;
    cfg.numBranches = 4;
    cfg.valuesPerBranch = 3;
    SwapTable table{cfg};
    EXPECT_EQ(table.numEntries(), 8u);  // (3 - 1) per branch
    EXPECT_EQ(table.storageBits(), 8u * (48 + 3 + 8 + 1));
}

TEST(DisassemblerTest, CoversKeyFormats)
{
    using namespace pbs::isa;
    Assembler as;
    as.probCmp(CmpOp::FLT, 3, 4, 5);
    as.probJmpCarrier(6);
    as.probJmp(7, 3, "t");
    as.label("t");
    as.sel(8, 3, 4, 5);
    as.ld(9, 2, -8);
    as.st(2, 9, 16);
    as.halt();
    Program p = as.finish();
    EXPECT_NE(p.listing().find("prob_cmp.flt r3, r4, r5 #b1"),
              std::string::npos);
    EXPECT_NE(p.listing().find("<carrier>"), std::string::npos);
    EXPECT_NE(p.listing().find("sel r8, r3, r4, r5"),
              std::string::npos);
    EXPECT_NE(p.listing().find("ld r9, -8(r2)"), std::string::npos);
    EXPECT_NE(p.listing().find("st r9, 16(r2)"), std::string::npos);
}

}  // namespace
