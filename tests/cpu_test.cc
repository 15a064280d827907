/**
 * @file
 * Core tests: functional semantics of every opcode class, call/ret,
 * memory, first-order timing properties of the OoO model (width,
 * dependence chains, ROB, misprediction penalty, PBS steering),
 * configuration validation, the four specialized step loops (run()
 * against chunked step(n), the instruction limit, PC range checks),
 * pinned statistics for the scoreboard's edge configurations,
 * and the store queue's index against its exact scan.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "cpu/store_queue.hh"
#include "isa/assembler.hh"
#include "rng/isa_emit.hh"
#include "rng/rng.hh"
#include "workloads/common.hh"

namespace {

using namespace pbs;
using isa::Assembler;
using isa::CmpOp;
using isa::Program;
using isa::REG_ZERO;

cpu::CoreConfig
timingConfig(const std::string &pred = "perfect")
{
    cpu::CoreConfig cfg;
    cfg.predictor = pred;
    return cfg;
}

cpu::Core
runProgram(const Program &prog, const cpu::CoreConfig &cfg)
{
    cpu::Core core(prog, cfg);
    core.run();
    EXPECT_TRUE(core.halted());
    return core;
}

TEST(CoreFunctional, IntegerArithmetic)
{
    Assembler as;
    as.ldi(3, 20);
    as.ldi(4, 6);
    as.add(5, 3, 4);    // 26
    as.sub(6, 3, 4);    // 14
    as.mul(7, 3, 4);    // 120
    as.div(8, 3, 4);    // 3
    as.rem(9, 3, 4);    // 2
    as.ldi(10, -20);
    as.div(11, 10, 4);  // -3 (C-style truncation toward zero)
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    EXPECT_EQ(core.reg(5), 26u);
    EXPECT_EQ(core.reg(6), 14u);
    EXPECT_EQ(core.reg(7), 120u);
    EXPECT_EQ(core.reg(8), 3u);
    EXPECT_EQ(core.reg(9), 2u);
    EXPECT_EQ(int64_t(core.reg(11)), -3);
}

TEST(CoreFunctional, DivisionByZeroYieldsZero)
{
    Assembler as;
    as.ldi(3, 42);
    as.div(4, 3, REG_ZERO);
    as.rem(5, 3, REG_ZERO);
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    EXPECT_EQ(core.reg(4), 0u);
    EXPECT_EQ(core.reg(5), 0u);
}

TEST(CoreFunctional, LogicAndShifts)
{
    Assembler as;
    as.ldi(3, 0b1100);
    as.ldi(4, 0b1010);
    as.and_(5, 3, 4);
    as.or_(6, 3, 4);
    as.xor_(7, 3, 4);
    as.slli(8, 3, 2);
    as.srli(9, 3, 2);
    as.ldi(10, -8);
    as.srai(11, 10, 1);
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    EXPECT_EQ(core.reg(5), 0b1000u);
    EXPECT_EQ(core.reg(6), 0b1110u);
    EXPECT_EQ(core.reg(7), 0b0110u);
    EXPECT_EQ(core.reg(8), 0b110000u);
    EXPECT_EQ(core.reg(9), 0b11u);
    EXPECT_EQ(int64_t(core.reg(11)), -4);
}

TEST(CoreFunctional, RegisterZeroIsHardwired)
{
    Assembler as;
    as.ldi(REG_ZERO, 55);
    as.addi(3, REG_ZERO, 7);
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    EXPECT_EQ(core.reg(REG_ZERO), 0u);
    EXPECT_EQ(core.reg(3), 7u);
}

TEST(CoreFunctional, FloatingPoint)
{
    Assembler as;
    as.ldf(3, 2.25);
    as.ldf(4, 4.0);
    as.fadd(5, 3, 4);
    as.fmul(6, 3, 4);
    as.fdiv(7, 3, 4);
    as.fsqrt(8, 4);
    as.fneg(9, 3);
    as.fmin(10, 3, 4);
    as.fmax(11, 3, 4);
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    EXPECT_DOUBLE_EQ(core.regDouble(5), 6.25);
    EXPECT_DOUBLE_EQ(core.regDouble(6), 9.0);
    EXPECT_DOUBLE_EQ(core.regDouble(7), 0.5625);
    EXPECT_DOUBLE_EQ(core.regDouble(8), 2.0);
    EXPECT_DOUBLE_EQ(core.regDouble(9), -2.25);
    EXPECT_DOUBLE_EQ(core.regDouble(10), 2.25);
    EXPECT_DOUBLE_EQ(core.regDouble(11), 4.0);
}

TEST(CoreFunctional, Transcendentals)
{
    Assembler as;
    as.ldf(3, 1.0);
    as.fexp(4, 3);
    as.flog(5, 4);
    as.ldf(6, 0.0);
    as.fsin(7, 6);
    as.fcos(8, 6);
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    EXPECT_DOUBLE_EQ(core.regDouble(4), std::exp(1.0));
    EXPECT_DOUBLE_EQ(core.regDouble(5), 1.0);
    EXPECT_DOUBLE_EQ(core.regDouble(7), 0.0);
    EXPECT_DOUBLE_EQ(core.regDouble(8), 1.0);
}

TEST(CoreFunctional, Conversions)
{
    Assembler as;
    as.ldi(3, -7);
    as.i2f(4, 3);
    as.ldf(5, 3.9);
    as.f2i(6, 5);
    as.ldf(7, -3.9);
    as.f2i(8, 7);
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    EXPECT_DOUBLE_EQ(core.regDouble(4), -7.0);
    EXPECT_EQ(int64_t(core.reg(6)), 3);    // trunc toward zero
    EXPECT_EQ(int64_t(core.reg(8)), -3);
}

TEST(CoreFunctional, CompareAndSelect)
{
    Assembler as;
    as.ldi(3, 5);
    as.ldi(4, 9);
    as.cmp(CmpOp::LT, 5, 3, 4);
    as.cmp(CmpOp::GT, 6, 3, 4);
    as.ldi(7, 100);
    as.ldi(8, 200);
    as.sel(9, 5, 7, 8);
    as.sel(10, 6, 7, 8);
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    EXPECT_EQ(core.reg(5), 1u);
    EXPECT_EQ(core.reg(6), 0u);
    EXPECT_EQ(core.reg(9), 100u);
    EXPECT_EQ(core.reg(10), 200u);
}

TEST(CoreFunctional, MemoryAndDataSegment)
{
    Assembler as;
    as.data64(0x1000, 0xdeadbeefcafef00dull);
    as.ldi(3, 0x1000);
    as.ld(4, 3, 0);
    as.st(3, 4, 8);
    as.ld(5, 3, 8);
    as.ldb(6, 3, 0);
    as.ldi(7, 0xAB);
    as.stb(3, 7, 100);
    as.ldb(8, 3, 100);
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    EXPECT_EQ(core.reg(4), 0xdeadbeefcafef00dull);
    EXPECT_EQ(core.reg(5), 0xdeadbeefcafef00dull);
    EXPECT_EQ(core.reg(6), 0x0dull);
    EXPECT_EQ(core.reg(8), 0xABull);
}

TEST(CoreFunctional, LoopAndBranches)
{
    Assembler as;
    as.ldi(3, 10);   // counter
    as.ldi(4, 0);    // sum
    as.label("loop");
    as.add(4, 4, 3);
    as.addi(3, 3, -1);
    as.jnz(3, "loop");
    as.halt();
    auto core = runProgram(as.finish(), timingConfig("tournament"));
    EXPECT_EQ(core.reg(4), 55u);
    EXPECT_EQ(core.stats().branches, 10u);
}

TEST(CoreFunctional, CallAndReturn)
{
    Assembler as;
    as.ldi(3, 5);
    as.call("double_it");
    as.call("double_it");
    as.halt();
    as.label("double_it");
    as.add(3, 3, 3);
    as.ret();
    auto core = runProgram(as.finish(), timingConfig());
    EXPECT_EQ(core.reg(3), 20u);
}

TEST(CoreTiming, IpcBoundedByWidth)
{
    // A long stream of independent single-cycle ops cannot exceed the
    // machine width in IPC, but should get close.
    Assembler as;
    for (int i = 0; i < 4000; i++)
        as.addi(3 + (i % 8), REG_ZERO, i);
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    double ipc = core.stats().ipc();
    EXPECT_LE(ipc, 4.05);
    EXPECT_GE(ipc, 2.0);
}

TEST(CoreTiming, DependenceChainSerializes)
{
    // fsqrt chain: each depends on the previous -> IPC well below 1.
    Assembler as;
    as.ldf(3, 2.0);
    for (int i = 0; i < 500; i++)
        as.fadd(3, 3, 3);
    as.halt();
    auto core = runProgram(as.finish(), timingConfig());
    // fpAlu latency is 3: chain IPC ~ 1/3.
    EXPECT_LT(core.stats().ipc(), 0.6);
}

TEST(CoreTiming, MispredictionsCostCycles)
{
    // Data-dependent unpredictable branches with a random predictor
    // should run much slower than with a perfect predictor.
    auto build = [] {
        Assembler as;
        rng::XorShiftEmitter xs(3, 4, 5, 6);
        xs.setup(as, 99);
        as.ldi(10, 4000);
        as.ldi(11, 0);
        as.label("loop");
        xs.emitNextU64(as, 7);
        as.andi(7, 7, 1);
        as.jnz(7, "taken");
        as.addi(11, 11, 1);
        as.label("taken");
        as.addi(10, 10, -1);
        as.jnz(10, "loop");
        as.halt();
        return as.finish();
    };
    auto perfect = runProgram(build(), timingConfig("perfect"));
    auto random = runProgram(build(), timingConfig("random"));
    EXPECT_EQ(perfect.stats().mispredicts, 0u);
    EXPECT_GT(random.stats().mispredicts,
              random.stats().branches / 3);
    EXPECT_GT(random.stats().cycles, perfect.stats().cycles * 3 / 2);
}

TEST(CoreTiming, WiderCoreIsFaster)
{
    Assembler as;
    for (int i = 0; i < 2000; i++)
        as.addi(3 + (i % 16), REG_ZERO, i);
    as.halt();
    Program prog = as.finish();

    auto narrow = runProgram(prog, cpu::CoreConfig::fourWide());
    auto wide = runProgram(prog, cpu::CoreConfig::eightWide());
    EXPECT_GT(wide.stats().ipc(), narrow.stats().ipc() * 1.4);
}

TEST(CoreTiming, CfdJnzNeverMispredicts)
{
    Assembler as;
    rng::XorShiftEmitter xs(3, 4, 5, 6);
    xs.setup(as, 123);
    as.ldi(10, 2000);
    as.ldi(11, 0);
    as.label("loop");
    xs.emitNextU64(as, 7);
    as.andi(7, 7, 1);
    as.cfdJnz(7, "taken");
    as.addi(11, 11, 1);
    as.label("taken");
    as.addi(10, 10, -1);
    as.jnz(10, "loop");
    as.halt();
    auto core = runProgram(as.finish(), timingConfig("tournament"));
    // Only the loop-closing branch can mispredict (once, at exit).
    EXPECT_LE(core.stats().mispredicts, 4u);
}

TEST(CoreLimits, MaxInstructionsStopsRunaway)
{
    Assembler as;
    as.label("forever");
    as.jmp("forever");
    as.halt();
    cpu::CoreConfig cfg = timingConfig();
    cfg.maxInstructions = 1000;
    cpu::Core core(as.finish(), cfg);
    core.run();
    EXPECT_FALSE(core.halted());
    EXPECT_EQ(core.stats().instructions, 1000u);
}

TEST(CoreLimits, StepExecutesExactly)
{
    Assembler as;
    for (int i = 0; i < 100; i++)
        as.nop();
    as.halt();
    cpu::Core core(as.finish(), timingConfig());
    EXPECT_EQ(core.step(40), 40u);
    EXPECT_FALSE(core.halted());
    EXPECT_EQ(core.step(1000), 61u);  // 60 nops + halt
    EXPECT_TRUE(core.halted());
}

// ---------------------------------------------------------------------
// Configuration validation: every field the scoreboard indexes by is
// checked at construction, naming the field.
// ---------------------------------------------------------------------

void
expectRejected(const cpu::CoreConfig &cfg, const std::string &field)
{
    Assembler as;
    as.halt();
    const Program prog = as.finish();
    try {
        cpu::Core core(prog, cfg);
        ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

TEST(CoreConfigCheck, RejectsZeroWidth)
{
    cpu::CoreConfig cfg;
    cfg.width = 0;
    expectRejected(cfg, "width");
}

TEST(CoreConfigCheck, RejectsZeroRobSize)
{
    cpu::CoreConfig cfg;
    cfg.robSize = 0;
    expectRejected(cfg, "robSize");
}

TEST(CoreConfigCheck, RejectsEmptyOrOversizedFuPools)
{
    using cpu::FuPools;
    const std::pair<unsigned FuPools::*, const char *> pools[] = {
        {&FuPools::intAlu, "pools.intAlu"},
        {&FuPools::intMul, "pools.intMul"},
        {&FuPools::intDiv, "pools.intDiv"},
        {&FuPools::fpAlu, "pools.fpAlu"},
        {&FuPools::fpMul, "pools.fpMul"},
        {&FuPools::fpDiv, "pools.fpDiv"},
        {&FuPools::loadPorts, "pools.loadPorts"},
        {&FuPools::storePorts, "pools.storePorts"},
    };
    for (const auto &[field, name] : pools) {
        for (cpu::SimMode mode :
             {cpu::SimMode::Timing, cpu::SimMode::Functional}) {
            cpu::CoreConfig cfg;
            cfg.mode = mode;
            cfg.pools.*field = 0;
            expectRejected(cfg, name);
            cfg.pools.*field = cpu::Core::kMaxFuUnits + 1;
            expectRejected(cfg, name);
        }
    }
}

TEST(CoreConfigCheck, AcceptsFullPoolsAndPaperConfigs)
{
    cpu::CoreConfig full = timingConfig();
    full.pools = cpu::FuPools{8, 8, 8, 8, 8, 8, 8, 8};
    static_assert(cpu::Core::kMaxFuUnits == 8);
    cpu::CoreConfig minimal = timingConfig();
    minimal.width = 1;
    minimal.robSize = 1;
    minimal.pools = cpu::FuPools{1, 1, 1, 1, 1, 1, 1, 1};
    for (const cpu::CoreConfig &cfg :
         {full, minimal, cpu::CoreConfig::fourWide(),
          cpu::CoreConfig::eightWide()}) {
        Assembler as;
        as.ldi(3, 40);
        as.label("loop");
        as.mul(4, 3, 3);
        as.st(REG_ZERO, 4, 0x1000);
        as.ld(5, REG_ZERO, 0x1000);
        as.addi(3, 3, -1);
        as.jnz(3, "loop");
        as.halt();
        auto core = runProgram(as.finish(), cfg);
        EXPECT_EQ(core.reg(5), 1u);
    }
}

// ---------------------------------------------------------------------
// The four specialized step loops (timing / mpki x PBS off / on) are
// one loop behind run() and step(n): chunked stepping must reproduce a
// whole run exactly, the instruction limit must stop every loop at the
// same count, and a PC past the image must still throw from inside the
// loop.
// ---------------------------------------------------------------------

struct LoopCase
{
    cpu::SimMode mode;
    bool pbs;
};

const LoopCase kLoopCases[] = {
    {cpu::SimMode::Timing, false},
    {cpu::SimMode::Timing, true},
    {cpu::SimMode::Functional, false},
    {cpu::SimMode::Functional, true},
};

cpu::CoreConfig
loopConfig(const LoopCase &lc)
{
    cpu::CoreConfig cfg = timingConfig("tage-sc-l");
    cfg.mode = lc.mode;
    cfg.pbsEnabled = lc.pbs;
    return cfg;
}

std::string
loopName(const LoopCase &lc)
{
    return std::string(lc.mode == cpu::SimMode::Timing ? "timing"
                                                       : "mpki") +
           (lc.pbs ? "/pbs" : "/no-pbs");
}

Program
smallWorkload(const char *name)
{
    workloads::WorkloadParams p;
    p.seed = 3;
    p.scale = 1500;
    return workloads::benchmarkByName(name).build(
        p, workloads::Variant::Marked);
}

/**
 * Run @p prog whole and in seeded random step(n) chunks under @p cfg:
 * both must end in the same statistics and architectural state.
 * @return the whole run's statistics.
 */
cpu::CoreStats
expectChunksMatchRun(const Program &prog, const cpu::CoreConfig &cfg,
                     uint64_t seed)
{
    cpu::Core whole(prog, cfg);
    whole.run();
    EXPECT_TRUE(whole.halted());

    cpu::Core chunked(prog, cfg);
    rng::SplitMix64 rng(seed);
    uint64_t total = 0;
    while (!chunked.halted()) {
        // Mostly short chunks (down to 0 and 1), some long.
        const uint64_t r = rng.next();
        const uint64_t n = (r & 3) ? (r >> 8) % 64 : (r >> 8) % 5000;
        const uint64_t got = chunked.step(n);
        EXPECT_LE(got, n);
        if (!chunked.halted() && got != n) {
            ADD_FAILURE() << "step(" << n << ") executed " << got;
            break;
        }
        total += got;
    }
    EXPECT_EQ(chunked.step(10), 0u);  // halted stays halted

    EXPECT_EQ(total, whole.stats().instructions);
    EXPECT_EQ(chunked.stats(), whole.stats());
    EXPECT_EQ(chunked.pc(), whole.pc());
    for (unsigned r = 0; r < isa::kNumRegs; r++)
        EXPECT_EQ(chunked.reg(r), whole.reg(r)) << "r" << r;
    EXPECT_TRUE(chunked.memory().sameContents(whole.memory()));
    return whole.stats();
}

TEST(CoreLoops, RunMatchesRandomStepChunks)
{
    uint64_t seed = 1;
    for (const char *workload : {"pi", "bandit"}) {
        const Program prog = smallWorkload(workload);
        for (const LoopCase &lc : kLoopCases) {
            SCOPED_TRACE(std::string(workload) + " " + loopName(lc));
            const cpu::CoreStats whole =
                expectChunksMatchRun(prog, loopConfig(lc), seed++);
            if (lc.mode == cpu::SimMode::Functional) {
                EXPECT_EQ(whole.cycles, whole.instructions);
            }
            if (lc.pbs) {
                EXPECT_GT(whole.steeredBranches, 0u);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scoreboard edge configurations: the narrowest core, a one-entry ROB,
// no front-end stages, a free misprediction and the 8-wide core, with
// PBS off and on. Their statistics are pinned exactly (recorded before
// the scoreboard state moved into a register-resident local), and
// chunked stepping must reproduce a whole run under each.
// ---------------------------------------------------------------------

struct EdgeConfig
{
    const char *name;
    cpu::CoreConfig cfg;
};

std::vector<EdgeConfig>
edgeConfigs()
{
    std::vector<EdgeConfig> out;
    auto add = [&](const char *name, auto &&edit) {
        cpu::CoreConfig cfg = timingConfig("tage-sc-l");
        edit(cfg);
        out.push_back({name, cfg});
    };
    add("width1", [](cpu::CoreConfig &c) { c.width = 1; });
    add("rob1", [](cpu::CoreConfig &c) { c.robSize = 1; });
    add("depth0", [](cpu::CoreConfig &c) { c.frontendDepth = 0; });
    add("penalty0", [](cpu::CoreConfig &c) { c.mispredictPenalty = 0; });
    add("eightWide", [](cpu::CoreConfig &c) {
        c = cpu::CoreConfig::eightWide();
        c.predictor = "tage-sc-l";
    });
    return out;
}

struct EdgePin
{
    const char *workload;
    const char *config;
    bool pbs;
    cpu::CoreStats stats;
};

// instructions, cycles, branches, probBranches, mispredicts,
// regularMispredicts, probMispredicts, steeredBranches
// clang-format off
const EdgePin kEdgePins[] = {
    {"pi",     "width1",    false, {26688, 35414, 3000, 1500, 331, 2, 329, 0}},
    {"pi",     "width1",    true,  {26688, 27179, 3000, 1500, 4, 2, 2, 1498}},
    {"pi",     "rob1",      false, {26688, 117508, 3000, 1500, 331, 2, 329, 0}},
    {"pi",     "rob1",      true,  {26688, 113257, 3000, 1500, 4, 2, 2, 1498}},
    {"pi",     "depth0",    false, {26688, 27562, 3000, 1500, 331, 2, 329, 0}},
    {"pi",     "depth0",    true,  {26688, 21210, 3000, 1500, 4, 2, 2, 1498}},
    {"pi",     "penalty0",  false, {26688, 25913, 3000, 1500, 331, 2, 329, 0}},
    {"pi",     "penalty0",  true,  {26688, 24940, 3000, 1500, 4, 2, 2, 1498}},
    {"pi",     "eightWide", false, {26688, 25708, 3000, 1500, 331, 2, 329, 0}},
    {"pi",     "eightWide", true,  {26688, 24397, 3000, 1500, 4, 2, 2, 1498}},
    {"bandit", "width1",    false, {153854, 160241, 21690, 1500, 244, 78, 166, 0}},
    {"bandit", "width1",    true,  {153676, 155465, 21690, 1500, 62, 61, 1, 1498}},
    {"bandit", "rob1",      false, {153854, 573088, 21690, 1500, 244, 78, 166, 0}},
    {"bandit", "rob1",      true,  {153676, 570188, 21690, 1500, 62, 61, 1, 1498}},
    {"bandit", "depth0",    false, {153854, 131359, 21690, 1500, 244, 78, 166, 0}},
    {"bandit", "depth0",    true,  {153676, 125028, 21690, 1500, 62, 61, 1, 1498}},
    {"bandit", "penalty0",  false, {153854, 130158, 21690, 1500, 244, 78, 166, 0}},
    {"bandit", "penalty0",  true,  {153676, 124750, 21690, 1500, 62, 61, 1, 1498}},
    {"bandit", "eightWide", false, {153854, 83433, 21690, 1500, 244, 78, 166, 0}},
    {"bandit", "eightWide", true,  {153676, 75785, 21690, 1500, 62, 61, 1, 1498}},
};
// clang-format on

TEST(CoreLoops, EdgeConfigsArePinnedAndChunkable)
{
    const std::vector<EdgeConfig> configs = edgeConfigs();
    uint64_t seed = 100;
    for (const EdgePin &pin : kEdgePins) {
        SCOPED_TRACE(std::string(pin.workload) + " " + pin.config +
                     (pin.pbs ? "/pbs" : "/no-pbs"));
        cpu::CoreConfig cfg;
        for (const EdgeConfig &ec : configs) {
            if (std::string(ec.name) == pin.config)
                cfg = ec.cfg;
        }
        cfg.pbsEnabled = pin.pbs;
        const cpu::CoreStats got =
            expectChunksMatchRun(smallWorkload(pin.workload), cfg, seed++);
        EXPECT_EQ(got, pin.stats)
            << "{" << got.instructions << ", " << got.cycles << ", "
            << got.branches << ", " << got.probBranches << ", "
            << got.mispredicts << ", " << got.regularMispredicts << ", "
            << got.probMispredicts << ", " << got.steeredBranches << "}";
    }
}

TEST(CoreLoops, MaxInstructionsStopsEveryLoopAtTheSameCount)
{
    const Program prog = smallWorkload("pi");
    constexpr uint64_t kLimit = 12'345;
    for (const LoopCase &lc : kLoopCases) {
        SCOPED_TRACE(loopName(lc));
        cpu::CoreConfig cfg = loopConfig(lc);
        cfg.maxInstructions = kLimit;
        cpu::Core core(prog, cfg);
        core.run();
        EXPECT_FALSE(core.halted());
        EXPECT_EQ(core.stats().instructions, kLimit);
        core.run();  // at the limit: a no-op
        EXPECT_EQ(core.stats().instructions, kLimit);
        if (lc.mode == cpu::SimMode::Functional) {
            EXPECT_EQ(core.stats().cycles, kLimit);
        }

        // The limit counts from construction, not from each call.
        cpu::Core stepped(prog, cfg);
        EXPECT_EQ(stepped.step(kLimit - 100), kLimit - 100);
        stepped.run();
        EXPECT_EQ(stepped.stats(), core.stats());
        EXPECT_EQ(stepped.pc(), core.pc());
    }
}

TEST(CoreLoops, PcPastTheImageThrowsFromInsideTheLoop)
{
    // RET to an address past the end of the 4-instruction image.
    Assembler as;
    as.ldi(3, 7);
    as.ldi(isa::REG_RA, 1000);
    as.ret();
    as.halt();
    const Program prog = as.finish();
    for (const LoopCase &lc : kLoopCases) {
        SCOPED_TRACE(loopName(lc));
        cpu::Core ran(prog, loopConfig(lc));
        EXPECT_THROW(ran.run(), std::out_of_range);
        cpu::Core stepped(prog, loopConfig(lc));
        EXPECT_THROW(stepped.step(100), std::out_of_range);
        for (const cpu::Core *core : {&ran, &stepped}) {
            EXPECT_EQ(core->pc(), 1000u);
            EXPECT_EQ(core->stats().instructions, 3u);
            EXPECT_EQ(core->reg(3), 7u);
            EXPECT_FALSE(core->halted());
            // The scoreboard lives in a local while the loop runs; the
            // throw must still publish the cycles it had reached.
            EXPECT_EQ(core->stats().cycles,
                      lc.mode == cpu::SimMode::Functional ? 3u : 140u);
        }
    }
}

// ---------------------------------------------------------------------
// PBS value swaps, end to end through the core's hooks: every consumer
// after a probabilistic branch sees the values of the instance the
// trace says it consumed — the probabilistic register of PROB_CMP, the
// carrier PROB_JMP's register, and the branch direction alike.
// ---------------------------------------------------------------------

TEST(CorePbs, ConsumersSeeTheConsumedInstancesValues)
{
    constexpr int64_t kIters = 300;
    constexpr int64_t kThreshold = 1000 + kIters / 3;
    Assembler as;
    as.ldi(3, kIters);
    as.ldi(4, 0x20000);   // rp per iteration
    as.ldi(5, 0x30000);   // carried rp2 per iteration
    as.ldi(8, kThreshold);
    as.ldi(9, 0);         // iteration index
    as.label("loop");
    as.addi(6, 9, 1000);  // this instance's rp:  1000 + i
    as.addi(7, 9, 5000);  // this instance's rp2: 5000 + i
    as.probCmp(CmpOp::LT, 10, 6, 8);
    as.probJmpCarrier(7);
    as.probJmp(REG_ZERO, 10, "taken");
    as.addi(15, 15, 1);   // fall-through count
    as.label("taken");
    as.slli(11, 9, 3);
    as.add(12, 4, 11);
    as.st(12, 6, 0);
    as.add(13, 5, 11);
    as.st(13, 7, 0);
    as.addi(9, 9, 1);
    as.sub(14, 9, 3);
    as.jnz(14, "loop");
    as.halt();

    cpu::CoreConfig cfg = timingConfig("tournament");
    cfg.pbsEnabled = true;
    cfg.traceProbBranches = true;
    cpu::Core core = runProgram(as.finish(), cfg);

    const auto &trace = core.probTrace();
    ASSERT_EQ(trace.size(), size_t(kIters));
    uint64_t steered = 0, fallThrough = 0;
    for (size_t k = 0; k < trace.size(); k++) {
        const cpu::ProbTraceEntry &e = trace[k];
        ASSERT_EQ(e.selfSeq, k);
        steered += e.steered;
        const uint64_t v = 1000 + e.consumedSeq;
        EXPECT_EQ(core.memory().readU64(0x20000 + 8 * k), v) << k;
        EXPECT_EQ(core.memory().readU64(0x30000 + 8 * k),
                  5000 + e.consumedSeq) << k;
        EXPECT_EQ(e.taken, int64_t(v) < kThreshold) << k;
        fallThrough += !e.taken;
    }
    EXPECT_GT(steered, uint64_t(kIters) / 2);
    EXPECT_EQ(core.reg(15), fallThrough);
}

// ---------------------------------------------------------------------
// Store queue: the direct-mapped index must agree with the exact ring
// scan, including index-slot collisions and window expiry.
// ---------------------------------------------------------------------

TEST(StoreQueue, LookupMatchesScanUnderCollisionsAndExpiry)
{
    using cpu::StoreQueue;

    // Keys sharing one index slot, plus a pool spanning more keys than
    // the index has slots.
    std::vector<uint64_t> colliding;
    for (uint64_t k = 1; colliding.size() < 6; k++) {
        if (StoreQueue::slotOf(k) == StoreQueue::slotOf(0))
            colliding.push_back(k);
    }
    std::vector<uint64_t> pool = colliding;
    for (uint64_t k = 0; k < 3 * StoreQueue::kIndexSlots; k++)
        pool.push_back(0x4000 + 7 * k);

    StoreQueue sq;
    rng::XorShift64Star rng(2024);
    uint64_t cycle = 0;
    unsigned found = 0, absent = 0;
    for (int i = 0; i < 200'000; i++) {
        // A quarter of the traffic churns the one contended slot.
        const uint64_t key =
            (rng.next() & 3) == 0 ? colliding[rng.next() % colliding.size()]
                                  : pool[rng.next() % pool.size()];
        if (rng.next() & 1) {
            sq.push(key, ++cycle);
            continue;
        }
        const uint64_t got = sq.lookup(key);
        ASSERT_EQ(got, sq.scan(key)) << "load " << i << " key " << key;
        (got ? found : absent)++;
    }
    EXPECT_GT(found, 1000u);
    EXPECT_GT(absent, 1000u);

    // Expiry: a store leaves the window after kDepth younger stores.
    StoreQueue q;
    q.push(colliding[0], 7);
    for (unsigned i = 0; i + 1 < StoreQueue::kDepth; i++)
        q.push(0x9000 + i, 100 + i);
    EXPECT_EQ(q.lookup(colliding[0]), 7u);
    q.push(0x9fff, 500);
    EXPECT_EQ(q.lookup(colliding[0]), 0u);
    EXPECT_EQ(q.scan(colliding[0]), 0u);

    // Collision: the newer key takes the slot; the older one is still
    // found, through the scan.
    q.push(colliding[1], 600);
    q.push(colliding[2], 700);
    EXPECT_EQ(q.lookup(colliding[1]), 600u);
    EXPECT_EQ(q.lookup(colliding[2]), 700u);
}

}  // namespace
