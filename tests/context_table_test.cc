/**
 * @file
 * Unit tests for the Context-Table: dynamic loop detection, nesting,
 * termination clearing, call-depth tracking (paper Sec. V-C1, Fig. 5).
 */

#include <gtest/gtest.h>

#include "core/context_table.hh"

namespace {

using namespace pbs::core;

ContextTable
makeTable()
{
    return ContextTable(PbsConfig{});
}

TEST(ContextTableTest, NoLoopInitially)
{
    auto t = makeTable();
    bool ok = false;
    ContextKey key = t.currentContext(ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(key.loopSlot, -1);
    EXPECT_EQ(key.funcPc, 0u);
}

TEST(ContextTableTest, BackwardTakenBranchAllocatesLoop)
{
    auto t = makeTable();
    t.noteBranch(/*pc*/ 100, /*target*/ 50, /*taken*/ true);
    bool ok = false;
    ContextKey key = t.currentContext(ok);
    EXPECT_TRUE(ok);
    EXPECT_GE(key.loopSlot, 0);
    EXPECT_EQ(key.loopPc, 50u);
}

TEST(ContextTableTest, ForwardBranchesIgnored)
{
    auto t = makeTable();
    t.noteBranch(50, 100, true);
    bool ok = false;
    EXPECT_EQ(t.currentContext(ok).loopSlot, -1);
}

TEST(ContextTableTest, NotTakenBackwardBranchAtExtentTerminates)
{
    auto t = makeTable();
    unsigned cleared = 0;
    auto count = [&](int, uint64_t) { cleared++; };
    t.noteBranch(100, 50, true, count);
    t.noteBranch(100, 50, true, count);
    t.noteBranch(100, 50, false, count);  // loop exit
    EXPECT_EQ(cleared, 1u);
    bool ok = false;
    EXPECT_EQ(t.currentContext(ok).loopSlot, -1);
}

TEST(ContextTableTest, InnerNotTakenBackwardBranchDoesNotTerminate)
{
    auto t = makeTable();
    unsigned cleared = 0;
    auto count = [&](int, uint64_t) { cleared++; };
    // continue-style backward branch at 80, loop-closing branch at 100.
    t.noteBranch(100, 50, true, count);   // establishes Last-PC = 100
    t.noteBranch(80, 50, false, count);   // inner not-taken: loop is still live
    EXPECT_EQ(cleared, 0u);
    bool ok = false;
    EXPECT_EQ(t.currentContext(ok).loopPc, 50u);
}

TEST(ContextTableTest, TwoNestedLoopsTracked)
{
    auto t = makeTable();
    t.noteBranch(200, 10, true);   // outer loop
    t.noteBranch(100, 50, true);   // inner loop (more recent)
    bool ok = false;
    ContextKey key = t.currentContext(ok);
    EXPECT_EQ(key.loopPc, 50u);    // active = innermost

    // Inner terminates: outer becomes active again.
    t.noteBranch(100, 50, false);
    key = t.currentContext(ok);
    EXPECT_EQ(key.loopPc, 10u);
}

TEST(ContextTableTest, OuterTerminationClearsInnerToo)
{
    auto t = makeTable();
    unsigned cleared = 0;
    auto count = [&](int, uint64_t) { cleared++; };
    t.noteBranch(200, 10, true, count);   // outer
    t.noteBranch(100, 50, true, count);   // inner (allocated after)
    t.noteBranch(200, 10, false, count);  // outer exits first
    EXPECT_EQ(cleared, 2u);        // both erased (paper Sec. V-C1)
}

TEST(ContextTableTest, ThirdLoopEvictsOldest)
{
    auto t = makeTable();
    unsigned cleared = 0;
    auto count = [&](int, uint64_t) { cleared++; };
    t.noteBranch(100, 10, true, count);
    t.noteBranch(200, 20, true, count);
    t.noteBranch(300, 30, true, count);   // evicts loop@10
    EXPECT_EQ(cleared, 1u);
    bool ok = false;
    EXPECT_EQ(t.currentContext(ok).loopPc, 30u);
}

TEST(ContextTableTest, FunctionCallAtDepthOneTracked)
{
    auto t = makeTable();
    t.noteBranch(100, 50, true);
    t.noteCall(77);
    bool ok = false;
    ContextKey key = t.currentContext(ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(key.funcPc, 77u);

    t.noteReturn();
    key = t.currentContext(ok);
    EXPECT_EQ(key.funcPc, 0u);
}

TEST(ContextTableTest, DepthTwoUnsupported)
{
    auto t = makeTable();
    t.noteBranch(100, 50, true);
    t.noteCall(77);
    t.noteCall(88);
    bool ok = true;
    t.currentContext(ok);
    EXPECT_FALSE(ok);

    // Returning to depth one restores support.
    t.noteReturn();
    ContextKey key = t.currentContext(ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(key.funcPc, 77u);
}

TEST(ContextTableTest, CallsOutsideLoopsUseGlobalDepth)
{
    auto t = makeTable();
    t.noteCall(11);
    bool ok = false;
    EXPECT_EQ(t.currentContext(ok).funcPc, 11u);
    EXPECT_TRUE(ok);
    t.noteCall(22);
    t.currentContext(ok);
    EXPECT_FALSE(ok);
    t.noteReturn();
    t.noteReturn();
    EXPECT_EQ(t.currentContext(ok).funcPc, 0u);
}

TEST(ContextTableTest, StorageMatchesPaper)
{
    auto t = makeTable();
    // 2 entries x (3 x 48-bit addresses + 2 x 3-bit counters).
    EXPECT_EQ(t.storageBits(), 2u * (3 * 48 + 2 * 3));
}

}  // namespace
