/**
 * @file
 * Differential harness for functional-mode dispatch: the superblock
 * dispatcher vs single-stepping the opcode switch (cpu::execute,
 * through cpu::stepLoop) must leave registers, memory, the
 * prob-sequence counters and every shared statistic bit-identical —
 * on every registered workload, on fuzzed programs from the
 * property_test generator, on programs that branch
 * into the middle of would-be-fused runs, and at every step(n)
 * boundary. This suite is the safety gate for the superinstruction
 * optimisation (src/cpu/superblock.cc): any rewriting of the
 * instruction stream that is not exactly per-instruction equivalent
 * fails here before it can touch checkpoint capture. Builds without
 * computed goto have no superblock dispatcher and skip the suite.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "rng/rng.hh"
#include "sampling/functional.hh"
#include "cpu/superblock.hh"
#include "workloads/common.hh"

#include "support/random_program.hh"
#include "support/step_reference.hh"

namespace {

using namespace pbs;
using sampling::FunctionalEngine;
using cpu::SbHandler;
using cpu::SuperblockImage;
using testsupport::fuzzCorpus;
using testsupport::randomProgram;
using testsupport::StepReference;

/** Every test here exercises the superblock dispatcher. */
class SuperblockTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!cpu::kSuperblocksBuilt)
            GTEST_SKIP() << "built without computed goto: no superblock "
                            "dispatcher to compare against the switch";
    }
};

/** Full architectural + statistics diff of an engine vs the reference. */
void
expectSameState(const StepReference &ref, const FunctionalEngine &got,
                const std::string &what)
{
    const cpu::ArchState &a = ref.arch;
    const cpu::ArchState b = got.saveArch();
    for (unsigned r = 0; r < isa::kNumRegs; r++)
        EXPECT_EQ(a.regs[r], b.regs[r]) << what << " r" << r;
    EXPECT_EQ(a.pc, b.pc) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    ASSERT_EQ(a.probSeq.size(), b.probSeq.size()) << what;
    for (size_t i = 0; i < a.probSeq.size(); i++)
        EXPECT_EQ(a.probSeq[i], b.probSeq[i]) << what << " probSeq " << i;
    EXPECT_TRUE(a.mem.sameContents(b.mem)) << what;
    EXPECT_EQ(ref.stats.branches, got.stats().branches) << what;
    EXPECT_EQ(ref.stats.probBranches, got.stats().probBranches) << what;
}

/** Run @p prog to completion on superblocks and single-stepped, and
 *  diff. */
void
expectAllDispatchesAgree(const isa::Program &prog, const std::string &what)
{
    FunctionalEngine sb(prog);
    StepReference ref(sb);
    ref.run();
    sb.run();
    expectSameState(ref, sb, what + " [superblock]");
}

// ---------------------------------------------------------------------
// All registered workloads, three seeds each: end state bit-identical.
// ---------------------------------------------------------------------

class DispatchEquiv : public SuperblockTest,
                      public ::testing::WithParamInterface<const char *>
{
};

TEST_P(DispatchEquiv, WorkloadEndStateBitIdentical)
{
    const auto &b = workloads::benchmarkByName(GetParam());
    for (uint64_t seed : {11u, 47u, 20260u}) {
        workloads::WorkloadParams p;
        p.seed = seed;
        p.scale = std::max<uint64_t>(1, b.defaultScale / 100);
        expectAllDispatchesAgree(
            b.build(p, workloads::Variant::Marked),
            std::string(GetParam()) + " seed " + std::to_string(seed));
    }
}

TEST_P(DispatchEquiv, BuilderCoversWholeImage)
{
    const auto &b = workloads::benchmarkByName(GetParam());
    workloads::WorkloadParams p;
    p.scale = std::max<uint64_t>(1, b.defaultScale / 100);
    FunctionalEngine eng(b.build(p, workloads::Variant::Marked));
    ASSERT_NE(eng.superblocks(), nullptr);
    const SuperblockImage &sb = *eng.superblocks();

    // Blocks tile the image: every instruction is in exactly one block.
    EXPECT_EQ(sb.buildStats().instructions, eng.image().size());
    EXPECT_GT(sb.buildStats().blocks, 0u);

    // Every branch target is a block leader (no branch can land inside
    // a fused run), and every block starts at its recorded index.
    const auto &ops = eng.image().ops();
    for (size_t pc = 0; pc < ops.size(); pc++) {
        if (ops[pc].flags & isa::DecodedOp::kHasTarget) {
            EXPECT_NE(sb.blockAt(ops[pc].target), SuperblockImage::kNoBlock)
                << "target of pc " << pc;
        }
        EXPECT_EQ(sb.blockAt(pc) != SuperblockImage::kNoBlock,
                  ops[pc].isLeader())
            << "pc " << pc;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DispatchEquiv,
    ::testing::Values("dop", "greeks", "swaptions", "genetic", "photon",
                      "mc-integ", "pi", "bandit"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Fuzzed programs: the shared 240-program corpus (60 per seed, >= the
// 200-program floor), plus randomized step(n) schedules so
// block-budget epilogues are hit at arbitrary offsets.
// ---------------------------------------------------------------------

class DispatchFuzz : public SuperblockTest,
                     public ::testing::WithParamInterface<uint64_t>
{
};

TEST_P(DispatchFuzz, RandomProgramsNeverDiverge)
{
    const std::vector<isa::Program> corpus = fuzzCorpus(GetParam());
    rng::XorShift64Star schedule(GetParam() + 1);
    for (size_t round = 0; round < corpus.size(); round++) {
        const isa::Program &prog = corpus[round];
        const std::string what = "seed " + std::to_string(GetParam()) +
                                 " round " + std::to_string(round);
        expectAllDispatchesAgree(prog, what);

        // Every 8th program: re-run in lockstep with a random step
        // schedule, checking state at every boundary (exact-count
        // stepping must hold mid-run, not just at halt).
        if (round % 8 != 0)
            continue;
        FunctionalEngine sb(prog);
        StepReference ref(sb);
        while (!ref.arch.halted) {
            const uint64_t chunk = 1 + schedule.next() % 37;
            const uint64_t dref = ref.step(chunk);
            const uint64_t dsb = sb.step(chunk);
            ASSERT_EQ(dref, dsb) << what;
            ASSERT_EQ(ref.arch.pc, sb.pc()) << what;
            ASSERT_EQ(ref.arch.instructions, sb.stats().instructions)
                << what;
        }
        expectSameState(ref, sb, what + " [stepped]");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchFuzz,
                         ::testing::ValuesIn(testsupport::kFuzzSeeds));

// ---------------------------------------------------------------------
// Branches into the middle of would-be-fused runs. The builder must
// split blocks at every branch target, so entering a run mid-way
// executes the exact per-instruction semantics.
// ---------------------------------------------------------------------

using DispatchMidBlock = SuperblockTest;

TEST_F(DispatchMidBlock, BranchIntoFusablePairRun)
{
    isa::Assembler a;
    a.ldi(3, 400);                          // counter
    a.ldi(10, int64_t(0x123456789abcdefULL));
    a.ldi(11, int64_t(0x2545f4914f6cdd1dULL));
    a.label("top");
    a.mul(10, 10, 11);                      // MUL,ADDI would fuse...
    a.addi(10, 10, 7);
    a.label("mid");                         // ...but "mid" splits here
    a.srli(12, 10, 9);                      // SRLI,XOR would fuse too
    a.xor_(10, 10, 12);
    a.andi(13, 3, 1);
    a.addi(3, 3, -1);
    a.jz(13, "even");
    a.jnz(3, "mid");                        // odd counter: enter mid-run
    a.label("even");
    a.jnz(3, "top");
    a.halt();
    expectAllDispatchesAgree(a.finish(), "mid-run pair entry");
}

TEST_F(DispatchMidBlock, BranchIntoXorshiftTriple)
{
    // Program layout (static): 0:ldi 1:ldi 2:srli 3:xor 4:slli("xmid")
    // 5:xor 6:srli 7:xor 8:andi 9:addi 10:jz 11:jnz->4 12:jnz->2 13:halt
    isa::Assembler a;
    a.ldi(3, 300);
    a.ldi(5, int64_t(0x9e3779b97f4a7c15ULL));
    a.label("loop");
    a.srli(6, 5, 12);                       // xorshift triple head
    a.xor_(5, 5, 6);
    a.label("xmid");                        // target inside the triple
    a.slli(6, 5, 25);
    a.xor_(5, 5, 6);
    a.srli(6, 5, 27);
    a.xor_(5, 5, 6);
    a.andi(7, 3, 3);
    a.addi(3, 3, -1);
    a.jz(7, "skip");
    a.jnz(3, "xmid");
    a.label("skip");
    a.jnz(3, "loop");
    a.halt();
    const isa::Program prog = a.finish();
    expectAllDispatchesAgree(prog, "mid-xorshift entry");

    // The leader at "xmid" (pc 4) must split the triple: a block starts
    // there and no F_XORSHIFT superop forms anywhere in this image.
    FunctionalEngine eng(prog);
    const SuperblockImage &sb = *eng.superblocks();
    EXPECT_NE(sb.blockAt(4), SuperblockImage::kNoBlock);
    for (const auto &sop : sb.sops())
        EXPECT_NE(sop.handler,
                  static_cast<uint16_t>(SbHandler::F_XORSHIFT));
}

TEST_F(DispatchMidBlock, UnbrokenXorshiftTripleDoesFuse)
{
    // Control case: the same rotation with no mid-run label fuses into
    // one F_XORSHIFT superop (the optimisation actually engages).
    isa::Assembler a;
    a.ldi(3, 300);
    a.ldi(5, int64_t(0x9e3779b97f4a7c15ULL));
    a.label("loop");
    a.srli(6, 5, 12);
    a.xor_(5, 5, 6);
    a.slli(6, 5, 25);
    a.xor_(5, 5, 6);
    a.srli(6, 5, 27);
    a.xor_(5, 5, 6);
    a.addi(3, 3, -1);
    a.jnz(3, "loop");
    a.halt();
    const isa::Program prog = a.finish();
    expectAllDispatchesAgree(prog, "unbroken xorshift");

    FunctionalEngine eng(prog);
    bool sawXorshift = false;
    bool sawFusedBackedge = false;
    for (const auto &sop : eng.superblocks()->sops()) {
        if (sop.handler == static_cast<uint16_t>(SbHandler::F_XORSHIFT))
            sawXorshift = true;
        if (sop.handler == static_cast<uint16_t>(SbHandler::T_ADDI_JNZ))
            sawFusedBackedge = true;
    }
    EXPECT_TRUE(sawXorshift);
    EXPECT_TRUE(sawFusedBackedge);
}

// ---------------------------------------------------------------------
// Exact step(n) boundaries: for every prefix length k, the superblock
// engine stops at exactly k instructions with the same state as the
// reference (block epilogues decompose to single steps).
// ---------------------------------------------------------------------

using DispatchStepBoundary = SuperblockTest;

TEST_F(DispatchStepBoundary, EveryPrefixLengthIsExact)
{
    rng::XorShift64Star rng(7);
    const isa::Program prog = randomProgram(rng, true);
    for (uint64_t k = 1; k <= 48; k++) {
        FunctionalEngine sb(prog);
        StepReference ref(sb);
        EXPECT_EQ(ref.step(k), k);
        EXPECT_EQ(sb.step(k), k);
        EXPECT_EQ(sb.stats().instructions, k);
        expectSameState(ref, sb, "prefix " + std::to_string(k));
    }
}

}  // namespace
