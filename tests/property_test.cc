/**
 * @file
 * Property-based tests: encoder fuzzing, predictor invariants across
 * the whole suite, cache geometry sweeps, PBS configuration sweeps,
 * core-vs-functional-engine fuzzing, and cross-mode timing invariants.
 */

#include <gtest/gtest.h>

#include "bpred/factory.hh"
#include "cpu/core.hh"
#include "isa/assembler.hh"
#include "isa/decoded_image.hh"
#include "isa/encoding.hh"
#include "mem/cache.hh"
#include "rng/rng.hh"
#include "sampling/functional.hh"
#include "stats/stats.hh"
#include "workloads/common.hh"

#include "support/random_program.hh"

namespace {

using namespace pbs;

// ---------------------------------------------------------------------
// Encoder fuzzing: random well-formed instructions must round-trip
// bit-exactly in both encoding modes.
// ---------------------------------------------------------------------

isa::Instruction
randomInstruction(rng::XorShift64Star &rng)
{
    using isa::Opcode;
    isa::Instruction inst;
    // Draw until we get an opcode with a stable round-trip contract.
    auto num_ops = static_cast<unsigned>(Opcode::NUM_OPCODES);
    inst.op = static_cast<Opcode>(rng.next() % num_ops);
    inst.cmp = static_cast<isa::CmpOp>(
        rng.next() % unsigned(isa::CmpOp::NUM_CMP_OPS));
    inst.rd = rng.next() % isa::kNumRegs;
    inst.rs1 = rng.next() % isa::kNumRegs;
    inst.rs2 = rng.next() % isa::kNumRegs;
    inst.imm = static_cast<int32_t>(rng.next());

    // Normalize per-opcode field constraints (mirrors the assembler).
    switch (inst.op) {
      case Opcode::SEL:
        inst.rs3 = rng.next() % isa::kNumRegs;  // full 5-bit range
        inst.cmp = isa::CmpOp::EQ;
        break;
      case Opcode::LDI:
        if (rng.next() & 1)
            inst.imm = static_cast<int64_t>(rng.next());  // wide form
        inst.rs1 = inst.rs2 = 0;
        break;
      case Opcode::PROB_CMP:
        inst.probId = rng.next() % 64;
        inst.imm = 0;
        break;
      case Opcode::PROB_JMP:
        inst.probId = rng.next() % 64;
        inst.rs2 = 0;
        if (rng.next() & 1)
            inst.imm = isa::kNoTarget;
        else
            inst.imm = static_cast<int32_t>(rng.next() & 0xffff);
        break;
      case Opcode::JMP:
      case Opcode::JZ:
      case Opcode::JNZ:
      case Opcode::CFD_JNZ:
      case Opcode::CALL:
        inst.imm = static_cast<int32_t>(rng.next() & 0xffffff);
        break;
      default:
        break;
    }
    // Non-compare ops do not round-trip the cmp field.
    if (inst.op != Opcode::CMP && inst.op != Opcode::PROB_CMP)
        inst.cmp = isa::CmpOp::EQ;
    return inst;
}

class EncodeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodeFuzz, RoundTripBothModes)
{
    rng::XorShift64Star rng(GetParam());
    for (int i = 0; i < 500; i++) {
        isa::Instruction inst = randomInstruction(rng);
        for (auto mode : {isa::EncodeMode::NewOpcodes,
                          isa::EncodeMode::LegacyBits}) {
            auto words = isa::encode(inst, mode);
            size_t pos = 0;
            isa::Instruction back = isa::decode(words, pos, mode, true);
            EXPECT_EQ(back, inst)
                << "mode=" << int(mode) << " "
                << isa::disassemble(inst);
            EXPECT_EQ(pos, words.size());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodeFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 12345));

// ---------------------------------------------------------------------
// Predictor invariants across the whole suite.
// ---------------------------------------------------------------------

class PredictorProperty
    : public ::testing::TestWithParam<const char *> {};

TEST_P(PredictorProperty, LearnsConstantDirection)
{
    for (bool dir : {true, false}) {
        auto pred = bpred::makePredictor(GetParam());
        unsigned correct = 0;
        for (int i = 0; i < 500; i++) {
            bool p = pred->predict(0x1234);
            pred->update(0x1234, dir);
            if (i >= 250)
                correct += p == dir;
        }
        EXPECT_GE(correct, 248u) << GetParam() << " dir=" << dir;
    }
}

TEST_P(PredictorProperty, DeterministicReplay)
{
    auto run = [&] {
        auto pred = bpred::makePredictor(GetParam());
        rng::XorShift64Star rng(7);
        std::vector<bool> out;
        for (int i = 0; i < 2000; i++) {
            uint64_t pc = 0x40 + (rng.next() % 8) * 4;
            bool taken = rng.nextDouble() < 0.6;
            out.push_back(pred->predict(pc));
            pred->update(pc, taken);
        }
        return out;
    };
    EXPECT_EQ(run(), run()) << GetParam();
}

TEST_P(PredictorProperty, StorageBitsPositiveAndStable)
{
    auto pred = bpred::makePredictor(GetParam());
    size_t bits = pred->storageBits();
    EXPECT_GT(bits, 0u);
    pred->predict(1);
    pred->update(1, true);
    EXPECT_EQ(pred->storageBits(), bits);
}

INSTANTIATE_TEST_SUITE_P(
    AllPredictors, PredictorProperty,
    ::testing::Values("bimodal", "gshare", "local", "tournament",
                      "tage", "tage-sc-l"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Cache geometry sweep.
// ---------------------------------------------------------------------

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<size_t, unsigned>> {};

TEST_P(CacheGeometry, WorkingSetResidency)
{
    auto [size, assoc] = GetParam();
    mem::Cache cache({size, assoc, 64, 1});

    // A working set that fits must hit after the first pass.
    size_t lines = size / 64;
    for (int pass = 0; pass < 3; pass++) {
        for (size_t i = 0; i < lines; i++)
            cache.access(i * 64);
    }
    EXPECT_EQ(cache.misses(), lines);
    EXPECT_EQ(cache.hits(), 2 * lines);

    // A 2x working set streamed cyclically must keep missing (LRU).
    mem::Cache cache2({size, assoc, 64, 1});
    for (int pass = 0; pass < 3; pass++) {
        for (size_t i = 0; i < 2 * lines; i++)
            cache2.access(i * 64);
    }
    EXPECT_EQ(cache2.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CacheGeometry,
    ::testing::Combine(::testing::Values(4096, 32768, 262144),
                       ::testing::Values(1u, 2u, 8u)));

// ---------------------------------------------------------------------
// PBS configuration sweep on a real workload: semantic invariants must
// hold for every table provisioning and policy.
// ---------------------------------------------------------------------

struct PbsSweepParam
{
    unsigned entries;
    unsigned inflight;
    bool stall;
    bool context;
};

class PbsConfigSweep : public ::testing::TestWithParam<PbsSweepParam> {};

TEST_P(PbsConfigSweep, InvariantsHoldOnPi)
{
    const auto p = GetParam();
    const auto &b = workloads::benchmarkByName("pi");
    workloads::WorkloadParams wp;
    wp.seed = 9;
    wp.scale = 20000;

    cpu::CoreConfig cfg;
    cfg.mode = cpu::SimMode::Functional;
    cfg.predictor = "bimodal";
    cfg.pbsEnabled = true;
    cfg.pbs.numBranches = p.entries;
    cfg.pbs.inFlightLimit = p.inflight;
    cfg.pbs.stallOnBusy = p.stall;
    cfg.pbs.contextSupport = p.context;

    cpu::Core core(b.build(wp, workloads::Variant::Marked), cfg);
    core.run();
    ASSERT_TRUE(core.halted());

    // Steered branches are a subset of probabilistic branches.
    EXPECT_LE(core.stats().steeredBranches, core.stats().probBranches);
    // The estimate stays statistically sane for every configuration.
    double pi_est = b.simOutput(core.memory())[0];
    EXPECT_NEAR(pi_est, 3.14159, 0.05);
    // Storage accounting scales with the configuration.
    EXPECT_EQ(core.pbs().storageBits(),
              p.entries * 219 + p.entries * 60 + p.inflight * 32 +
                  2 * 150);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PbsConfigSweep,
    ::testing::Values(PbsSweepParam{1, 1, true, true},
                      PbsSweepParam{1, 4, false, true},
                      PbsSweepParam{2, 2, true, false},
                      PbsSweepParam{4, 4, true, true},
                      PbsSweepParam{4, 4, false, false},
                      PbsSweepParam{8, 8, true, true},
                      PbsSweepParam{8, 2, false, true}),
    [](const auto &info) {
        const auto &p = info.param;
        return "e" + std::to_string(p.entries) + "_f" +
               std::to_string(p.inflight) + (p.stall ? "_stall" : "_reg") +
               (p.context ? "_ctx" : "_noctx");
    });

// ---------------------------------------------------------------------
// Cross-mode invariants.
// ---------------------------------------------------------------------

class CrossMode : public ::testing::TestWithParam<std::string> {};

TEST_P(CrossMode, MispredictCountsMatchAcrossModesWithoutPbs)
{
    // With PBS off, the predictor sees the same branch stream in
    // functional and timing mode, so misprediction counts must be
    // identical (the timing model only adds latency).
    const auto &b = workloads::benchmarkByName(GetParam());
    workloads::WorkloadParams p;
    p.seed = 4;
    p.scale = std::max<uint64_t>(1, b.defaultScale / 20);

    cpu::CoreConfig func;
    func.mode = cpu::SimMode::Functional;
    func.predictor = "tournament";
    cpu::CoreConfig timing = func;
    timing.mode = cpu::SimMode::Timing;

    cpu::Core a(b.build(p, workloads::Variant::Marked), func);
    a.run();
    cpu::Core c(b.build(p, workloads::Variant::Marked), timing);
    c.run();
    EXPECT_EQ(a.stats().mispredicts, c.stats().mispredicts);
    EXPECT_EQ(a.stats().branches, c.stats().branches);
    EXPECT_EQ(a.stats().instructions, c.stats().instructions);
}

TEST_P(CrossMode, WiderCoreNeverSlower)
{
    const auto &b = workloads::benchmarkByName(GetParam());
    workloads::WorkloadParams p;
    p.seed = 4;
    p.scale = std::max<uint64_t>(1, b.defaultScale / 20);

    auto narrow = cpu::CoreConfig::fourWide();
    auto wide = cpu::CoreConfig::eightWide();
    narrow.predictor = wide.predictor = "tage-sc-l";

    cpu::Core a(b.build(p, workloads::Variant::Marked), narrow);
    a.run();
    cpu::Core c(b.build(p, workloads::Variant::Marked), wide);
    c.run();
    EXPECT_GE(c.stats().ipc(), a.stats().ipc() * 0.98) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, CrossMode,
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
// Interpreter fuzzing: randomly generated valid programs must leave the
// detailed core (mpki fidelity, PBS off) and the functional engine
// (reference switch) in the same architectural state — the core's
// hooks may observe an instruction but never change what it does.
// Malformed programs must be rejected at predecode time with a
// diagnostic, never a crash.
// ---------------------------------------------------------------------

// The generator lives in tests/support/random_program.hh so
// dispatch_equiv_test can fuzz superblock dispatch with the exact same
// program distribution.
using pbs::testsupport::randomProgram;

class CoreFunctionalFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoreFunctionalFuzz, RandomProgramsNeverDiverge)
{
    rng::XorShift64Star rng(GetParam());
    for (int round = 0; round < 32; round++) {
        const bool withProb = (rng.next() & 1) != 0;
        const isa::Program prog = randomProgram(rng, withProb);
        const std::string what = "round " + std::to_string(round);

        cpu::CoreConfig cfg;
        cfg.mode = cpu::SimMode::Functional;
        cfg.predictor = "tournament";
        cpu::Core core(prog, cfg);
        core.run();
        sampling::FunctionalEngine fe(prog, 0,
                                      sampling::FuncDispatch::Switch);
        fe.run();

        ASSERT_TRUE(core.halted()) << what;
        ASSERT_TRUE(fe.halted()) << what;
        for (unsigned r = 0; r < isa::kNumRegs; r++)
            EXPECT_EQ(core.reg(r), fe.reg(r)) << what << " reg " << r;
        EXPECT_TRUE(core.memory().sameContents(fe.memory())) << what;
        EXPECT_EQ(core.pc(), fe.pc()) << what;
        EXPECT_EQ(core.stats().instructions, fe.stats().instructions)
            << what;
        EXPECT_EQ(core.stats().branches, fe.stats().branches) << what;
        EXPECT_EQ(core.stats().probBranches, fe.stats().probBranches)
            << what;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreFunctionalFuzz,
                         ::testing::Values(11, 42, 1234, 9999));

TEST(PredecodeDiagnostics, MalformedTargetsRejectedNotCrashed)
{
    using isa::Instruction;
    using isa::Opcode;

    // Forward jump past the end of the program.
    isa::Program bad;
    Instruction jmp;
    jmp.op = Opcode::JMP;
    jmp.imm = 99;
    bad.insts.push_back(jmp);
    bad.insts.push_back(Instruction{});  // NOP
    try {
        isa::DecodedImage::decode(bad);
        FAIL() << "out-of-range JMP target accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("target"),
                  std::string::npos) << e.what();
    }

    // Negative conditional target.
    isa::Program bad2;
    Instruction jnz;
    jnz.op = Opcode::JNZ;
    jnz.rs1 = 3;
    jnz.imm = -5;
    bad2.insts.push_back(jnz);
    EXPECT_THROW(isa::DecodedImage::decode(bad2),
                 std::invalid_argument);

    // Branching PROB_JMP with an out-of-range target.
    isa::Program bad3;
    Instruction pcmp;
    pcmp.op = Opcode::PROB_CMP;
    pcmp.rd = 3;
    pcmp.rs1 = 4;
    pcmp.rs2 = 5;
    pcmp.probId = 1;
    Instruction pjmp;
    pjmp.op = Opcode::PROB_JMP;
    pjmp.rs1 = 3;
    pjmp.imm = 1000;
    pjmp.probId = 1;
    bad3.insts.push_back(pcmp);
    bad3.insts.push_back(pjmp);
    EXPECT_THROW(isa::DecodedImage::decode(bad3),
                 std::invalid_argument);

    // Entry point out of range.
    isa::Program bad4;
    bad4.insts.push_back(Instruction{});
    bad4.entry = 5;
    EXPECT_THROW(isa::DecodedImage::decode(bad4),
                 std::invalid_argument);
}

TEST(PredecodeMetadata, FlagsTargetsAndProbLinksMatchProgram)
{
    // Deterministic spot-check of the static metadata on a real
    // workload image.
    const auto &b = workloads::benchmarkByName("pi");
    workloads::WorkloadParams p;
    p.scale = 100;
    isa::Program prog = b.build(p, workloads::Variant::Marked);
    isa::DecodedImage img = isa::DecodedImage::decode(prog);

    ASSERT_EQ(img.size(), prog.insts.size());
    for (size_t pc = 0; pc < prog.insts.size(); pc++) {
        const auto &inst = prog.insts[pc];
        const auto &d = img.at(pc);
        EXPECT_EQ(d.op, inst.op);
        EXPECT_EQ(d.writesDest(), inst.writesDest());
        EXPECT_EQ(d.isLoad(), inst.isLoad());
        EXPECT_EQ(d.isStore(), inst.isStore());
        EXPECT_EQ(d.isControl(), inst.isControl());
        EXPECT_EQ(d.isCarrierProbJmp(), inst.isCarrierProbJmp());
        EXPECT_EQ(d.destReg(), inst.destReg());
        std::array<uint8_t, 3> srcs{};
        unsigned n = inst.sourceRegs(srcs);
        EXPECT_EQ(d.nsrc, n);
        for (unsigned i = 0; i < n; i++)
            EXPECT_EQ(d.srcs[i], srcs[i]);
        if (inst.op == isa::Opcode::PROB_CMP) {
            // The link must point at a branching PROB_JMP of the same
            // group.
            const auto &link = img.at(d.probJmpPc);
            EXPECT_EQ(link.op, isa::Opcode::PROB_JMP);
            EXPECT_EQ(link.probId, d.probId);
            EXPECT_FALSE(link.isCarrierProbJmp());
        }
    }
    EXPECT_GE(img.maxProbId(), 1u);
}

// ---------------------------------------------------------------------
// Misprediction penalty scaling property.
// ---------------------------------------------------------------------

TEST(TimingProperty, HigherPenaltyCostsCycles)
{
    const auto &b = workloads::benchmarkByName("pi");
    workloads::WorkloadParams p;
    p.scale = 20000;

    uint64_t prev_cycles = 0;
    for (unsigned penalty : {0u, 10u, 30u}) {
        cpu::CoreConfig cfg = cpu::CoreConfig::fourWide();
        cfg.predictor = "tournament";
        cfg.mispredictPenalty = penalty;
        cpu::Core core(b.build(p, workloads::Variant::Marked), cfg);
        core.run();
        EXPECT_GT(core.stats().cycles, prev_cycles);
        prev_cycles = core.stats().cycles;
    }
}

TEST(TimingProperty, PerfectPredictorIsUpperBound)
{
    for (const char *name : {"pi", "photon"}) {
        const auto &b = workloads::benchmarkByName(name);
        workloads::WorkloadParams p;
        p.scale = std::max<uint64_t>(1, b.defaultScale / 20);
        double best_ipc = 0.0;
        for (const char *pred : {"perfect", "tage-sc-l", "random"}) {
            cpu::CoreConfig cfg = cpu::CoreConfig::fourWide();
            cfg.predictor = pred;
            cpu::Core core(b.build(p, workloads::Variant::Marked), cfg);
            core.run();
            if (std::string(pred) == "perfect") {
                best_ipc = core.stats().ipc();
                EXPECT_EQ(core.stats().mispredicts, 0u);
            } else {
                EXPECT_LE(core.stats().ipc(), best_ipc + 1e-9)
                    << name << "/" << pred;
            }
        }
    }
}

}  // namespace
