/**
 * @file
 * ISA tests: instruction properties, assembler label resolution,
 * program validation, encode/decode round trips for both encoding
 * modes (including PBS-unaware (legacy) decoding), and the predecoded
 * image's per-instruction metadata.
 */

#include <gtest/gtest.h>

#include <string>

#include "isa/assembler.hh"
#include "isa/decoded_image.hh"
#include "isa/encoding.hh"
#include "workloads/common.hh"

#include "support/random_program.hh"

namespace {

using namespace pbs::isa;

TEST(OpcodeProps, ControlClassification)
{
    EXPECT_TRUE(isControl(Opcode::JMP));
    EXPECT_TRUE(isControl(Opcode::PROB_JMP));
    EXPECT_TRUE(isControl(Opcode::CFD_JNZ));
    EXPECT_TRUE(isControl(Opcode::RET));
    EXPECT_FALSE(isControl(Opcode::PROB_CMP));
    EXPECT_TRUE(isCondBranch(Opcode::JNZ));
    EXPECT_FALSE(isCondBranch(Opcode::JMP));
    EXPECT_TRUE(isProbOp(Opcode::PROB_CMP));
    EXPECT_TRUE(isProbOp(Opcode::PROB_JMP));
    EXPECT_FALSE(isProbOp(Opcode::CMP));
}

TEST(InstructionProps, SourceAndDestRegisters)
{
    Instruction add;
    add.op = Opcode::ADD;
    add.rd = 5;
    add.rs1 = 6;
    add.rs2 = 7;
    std::array<uint8_t, 3> srcs;
    EXPECT_EQ(add.sourceRegs(srcs), 2u);
    EXPECT_EQ(add.destReg(), 5);

    Instruction pcmp;
    pcmp.op = Opcode::PROB_CMP;
    pcmp.rd = 4;   // condition
    pcmp.rs1 = 8;  // probabilistic value
    pcmp.rs2 = 9;
    EXPECT_EQ(pcmp.sourceRegs(srcs), 2u);
    EXPECT_EQ(srcs[0], 8);
    EXPECT_EQ(srcs[1], 9);
    EXPECT_EQ(pcmp.probReg(), 8);

    Instruction pjmp;
    pjmp.op = Opcode::PROB_JMP;
    pjmp.rd = 8;
    pjmp.rs1 = 4;
    pjmp.imm = 10;
    EXPECT_EQ(pjmp.sourceRegs(srcs), 2u);
    EXPECT_EQ(pjmp.probReg(), 8);
    EXPECT_TRUE(pjmp.writesDest());

    Instruction store;
    store.op = Opcode::ST;
    store.rs1 = 3;
    store.rs2 = 4;
    EXPECT_FALSE(store.writesDest());
}

TEST(AssemblerTest, ForwardAndBackwardLabels)
{
    Assembler as;
    as.jmp("end");
    as.label("mid");
    as.addi(3, 3, 1);
    as.label("end");
    as.jmp("mid");
    as.halt();
    Program p = as.finish();
    EXPECT_EQ(p.insts[0].imm, 2);  // "end"
    EXPECT_EQ(p.insts[2].imm, 1);  // "mid"
}

TEST(AssemblerTest, UndefinedLabelThrows)
{
    Assembler as;
    as.jmp("nowhere");
    as.halt();
    EXPECT_THROW(as.finish(), std::invalid_argument);
}

TEST(AssemblerTest, DuplicateLabelThrows)
{
    Assembler as;
    as.label("a");
    EXPECT_THROW(as.label("a"), std::invalid_argument);
}

TEST(AssemblerTest, ProbGroupIdsAssigned)
{
    Assembler as;
    as.probCmp(CmpOp::FLT, 3, 4, 5);
    as.probJmpCarrier(6);
    as.probJmp(7, 3, "t");
    as.probCmp(CmpOp::FGT, 3, 4, 5);
    as.probJmp(0, 3, "t");
    as.label("t");
    as.halt();
    Program p = as.finish();
    EXPECT_EQ(p.insts[0].probId, 1);
    EXPECT_EQ(p.insts[1].probId, 1);
    EXPECT_EQ(p.insts[2].probId, 1);
    EXPECT_EQ(p.insts[3].probId, 2);
    EXPECT_EQ(p.insts[4].probId, 2);
    EXPECT_EQ(p.distinctProbIds(), 2u);
    EXPECT_EQ(p.staticProbBranchCount(), 2u);
}

TEST(AssemblerTest, UnterminatedProbGroupThrows)
{
    Assembler as;
    as.probCmp(CmpOp::FLT, 3, 4, 5);
    as.halt();
    EXPECT_THROW(as.finish(), std::logic_error);
}

TEST(AssemblerTest, NestedProbGroupThrows)
{
    Assembler as;
    as.probCmp(CmpOp::FLT, 3, 4, 5);
    EXPECT_THROW(as.probCmp(CmpOp::FLT, 3, 4, 5), std::logic_error);
}

TEST(ProgramValidate, BranchTargetOutOfRange)
{
    Program p;
    Instruction j;
    j.op = Opcode::JMP;
    j.imm = 99;
    p.insts.push_back(j);
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ProgramValidate, ProbCmpWithoutJmp)
{
    Program p;
    Instruction c;
    c.op = Opcode::PROB_CMP;
    c.probId = 1;
    p.insts.push_back(c);
    Instruction h;
    h.op = Opcode::HALT;
    p.insts.push_back(h);
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ProgramTest, ListingContainsLabelsAndDisasm)
{
    Assembler as;
    as.label("start");
    as.addi(3, 3, 1);
    as.jmp("start");
    as.halt();
    Program p = as.finish();
    std::string listing = p.listing();
    EXPECT_NE(listing.find("start:"), std::string::npos);
    EXPECT_NE(listing.find("addi r3, r3, 1"), std::string::npos);
}

// --- encode / decode round trips ---

std::vector<Instruction>
sampleInstructions()
{
    Assembler as;
    as.ldi(3, 42);
    as.ldi(4, int64_t(0x123456789abcdef0ull));  // wide immediate
    as.add(5, 3, 4);
    as.fmul(6, 5, 3);
    as.cmp(CmpOp::FLT, 7, 6, 5);
    as.sel(8, 7, 3, 4);
    as.ld(9, 3, -16);
    as.st(3, 9, 24);
    as.probCmp(CmpOp::FGE, 7, 6, 5);
    as.probJmpCarrier(10);
    as.probJmp(11, 7, "out");
    as.label("out");
    as.jnz(7, "out");
    as.cfdJnz(7, "out");
    as.halt();
    return as.finish().insts;
}

class EncodingRoundTrip
    : public ::testing::TestWithParam<EncodeMode> {};

TEST_P(EncodingRoundTrip, AllInstructionsSurvive)
{
    auto insts = sampleInstructions();
    auto words = encodeAll(insts, GetParam());
    auto back = decodeAll(words, GetParam(), /*pbsAware*/ true);
    ASSERT_EQ(back.size(), insts.size());
    for (size_t i = 0; i < insts.size(); i++)
        EXPECT_EQ(back[i], insts[i]) << "instruction " << i << ": "
                                     << disassemble(insts[i]);
}

INSTANTIATE_TEST_SUITE_P(BothModes, EncodingRoundTrip,
                         ::testing::Values(EncodeMode::NewOpcodes,
                                           EncodeMode::LegacyBits),
                         [](const auto &info) {
                             return info.param == EncodeMode::NewOpcodes
                                 ? "NewOpcodes" : "LegacyBits";
                         });

TEST(EncodingLegacy, PbsUnawareMachineSeesRegularBranches)
{
    // Backward compatibility (paper Sec. V-A2): a legacy machine
    // decoding the LegacyBits stream sees CMP / JNZ / NOP.
    Assembler as;
    as.probCmp(CmpOp::FGE, 7, 6, 5);
    as.probJmpCarrier(10);
    as.probJmp(11, 7, "out");
    as.label("out");
    as.halt();
    auto insts = as.finish().insts;
    auto words = encodeAll(insts, EncodeMode::LegacyBits);
    auto legacy = decodeAll(words, EncodeMode::LegacyBits, false);
    ASSERT_EQ(legacy.size(), 4u);
    EXPECT_EQ(legacy[0].op, Opcode::CMP);
    EXPECT_EQ(legacy[0].rd, 7);
    EXPECT_EQ(legacy[0].rs1, 6);
    EXPECT_EQ(legacy[1].op, Opcode::NOP);  // carrier neutralized
    EXPECT_EQ(legacy[2].op, Opcode::JNZ);
    EXPECT_EQ(legacy[2].rs1, 7);
    EXPECT_EQ(legacy[2].imm, 3);
}

TEST(EncodingNewOpcodes, PbsUnawareDecodeFallsBack)
{
    Assembler as;
    as.probCmp(CmpOp::FGE, 7, 6, 5);
    as.probJmp(11, 7, "out");
    as.label("out");
    as.halt();
    auto insts = as.finish().insts;
    auto words = encodeAll(insts, EncodeMode::NewOpcodes);
    auto legacy = decodeAll(words, EncodeMode::NewOpcodes, false);
    EXPECT_EQ(legacy[0].op, Opcode::CMP);
    EXPECT_EQ(legacy[1].op, Opcode::JNZ);
    EXPECT_EQ(legacy[1].imm, 2);
}

TEST(EncodingTest, ImmediateTooLargeThrows)
{
    Instruction j;
    j.op = Opcode::JMP;
    j.imm = int64_t(1) << 40;
    EXPECT_THROW(encode(j), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Sorted-vector label and data tables (formerly std::map).
// ---------------------------------------------------------------------

TEST(ProgramTables, LabelsStaySortedAndBinarySearchable)
{
    Assembler as;
    // Deliberately unsorted definition order.
    for (const char *name : {"zeta", "alpha", "mid", "beta", "omega"}) {
        as.label(name);
        as.nop();
    }
    as.halt();
    Program p = as.finish();

    ASSERT_EQ(p.labels.size(), 5u);
    for (size_t i = 1; i < p.labels.size(); i++)
        EXPECT_LT(p.labels[i - 1].first, p.labels[i].first);

    ASSERT_NE(p.findLabel("alpha"), nullptr);
    EXPECT_EQ(*p.findLabel("alpha"), 1u);
    ASSERT_NE(p.findLabel("omega"), nullptr);
    EXPECT_EQ(*p.findLabel("omega"), 4u);
    EXPECT_EQ(p.findLabel("missing"), nullptr);
}

TEST(ProgramTables, DuplicateLabelDiagnosticNamesTheLabel)
{
    Assembler as;
    as.label("again");
    as.nop();
    try {
        as.label("again");
        FAIL() << "duplicate label accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("again"),
                  std::string::npos) << e.what();
    }
}

TEST(ProgramTables, DataInitSortedWithLastWriteWins)
{
    Assembler as;
    as.data64(0x300, 1);
    as.data64(0x100, 2);
    as.data64(0x200, 3);
    as.data64(0x100, 42);  // overwrite
    as.halt();
    Program p = as.finish();

    ASSERT_EQ(p.dataInit.size(), 3u);
    EXPECT_EQ(p.dataInit[0].first, 0x100u);
    EXPECT_EQ(p.dataInit[1].first, 0x200u);
    EXPECT_EQ(p.dataInit[2].first, 0x300u);
    EXPECT_EQ(p.dataInit[0].second[0], 42);  // last write won
}

TEST(ProgramTables, OutOfRangeTargetDiagnosticShowsInstruction)
{
    Instruction j;
    j.op = Opcode::JMP;
    j.imm = 12345;
    Program p;
    p.insts.push_back(j);
    try {
        p.validate();
        FAIL() << "out-of-range target accepted";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("target out of range"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("12345"), std::string::npos) << msg;
    }
}

// ---------------------------------------------------------------------
// Predecode metadata: what the timing model reads from a DecodedOp
// (sources, FU class, latency class, pipelining, the Prob-BTB key of a
// PROB_CMP) must agree with the Instruction it was decoded from.
// ---------------------------------------------------------------------

/** The FU class, latency class and pipelining of every opcode. */
TEST(PredecodeMetadata, FunctionalUnitTable)
{
    struct Row
    {
        Opcode op;
        FuKind fu;
        LatKind lat;
        bool unpipelined;
    };
    // Every opcode not listed is a pipelined IntAlu op.
    const Row rows[] = {
        {Opcode::MUL, FuKind::IntMul, LatKind::IntMul, false},
        {Opcode::DIV, FuKind::IntDiv, LatKind::IntDiv, true},
        {Opcode::REM, FuKind::IntDiv, LatKind::IntDiv, true},
        {Opcode::FADD, FuKind::FpAlu, LatKind::FpAlu, false},
        {Opcode::FSUB, FuKind::FpAlu, LatKind::FpAlu, false},
        {Opcode::FMIN, FuKind::FpAlu, LatKind::FpAlu, false},
        {Opcode::FMAX, FuKind::FpAlu, LatKind::FpAlu, false},
        {Opcode::FNEG, FuKind::FpAlu, LatKind::FpAlu, false},
        {Opcode::FABS, FuKind::FpAlu, LatKind::FpAlu, false},
        {Opcode::I2F, FuKind::FpAlu, LatKind::FpAlu, false},
        {Opcode::F2I, FuKind::FpAlu, LatKind::FpAlu, false},
        {Opcode::FMUL, FuKind::FpMul, LatKind::FpMul, false},
        {Opcode::FDIV, FuKind::FpDiv, LatKind::FpDiv, true},
        {Opcode::FSQRT, FuKind::FpDiv, LatKind::FpSqrt, true},
        {Opcode::FEXP, FuKind::FpDiv, LatKind::FpTrans, true},
        {Opcode::FLOG, FuKind::FpDiv, LatKind::FpTrans, true},
        {Opcode::FSIN, FuKind::FpDiv, LatKind::FpTrans, true},
        {Opcode::FCOS, FuKind::FpDiv, LatKind::FpTrans, true},
        {Opcode::LD, FuKind::Load, LatKind::LoadBase, false},
        {Opcode::LDB, FuKind::Load, LatKind::LoadBase, false},
        {Opcode::ST, FuKind::Store, LatKind::Store, false},
        {Opcode::STB, FuKind::Store, LatKind::Store, false},
    };
    for (unsigned i = 0; i < unsigned(Opcode::NUM_OPCODES); i++) {
        const Opcode op = static_cast<Opcode>(i);
        Row want{op, FuKind::IntAlu, LatKind::IntAlu, false};
        for (const Row &r : rows) {
            if (r.op == op)
                want = r;
        }
        EXPECT_EQ(fuKindOf(op), want.fu) << opcodeName(op);
        EXPECT_EQ(latKindOf(op), want.lat) << opcodeName(op);
        EXPECT_EQ(fuUnpipelined(op), want.unpipelined) << opcodeName(op);
    }
}

void
expectDecodedMatchesProgram(const Program &prog, const std::string &what)
{
    const DecodedImage img = DecodedImage::decode(prog);
    ASSERT_EQ(img.size(), prog.insts.size()) << what;
    const size_t n = prog.insts.size();
    for (size_t pc = 0; pc < n; pc++) {
        const Instruction &inst = prog.insts[pc];
        const DecodedOp &d = img.at(pc);
        auto where = [&] { return what + ": " + disassemble(inst, pc); };

        // Sources, REG_ZERO-padded to three (the scoreboard reads all
        // three unconditionally).
        std::array<uint8_t, 3> srcs{};
        const unsigned nsrc = inst.sourceRegs(srcs);
        EXPECT_EQ(d.nsrc, nsrc) << where();
        for (unsigned i = 0; i < 3; i++)
            EXPECT_EQ(d.srcs[i], i < nsrc ? srcs[i] : REG_ZERO) << where();
        EXPECT_EQ(d.destReg(), inst.destReg()) << where();

        EXPECT_EQ(d.fu, fuKindOf(inst.op)) << where();
        EXPECT_EQ(d.lat, latKindOf(inst.op)) << where();
        EXPECT_EQ(d.unpipelined(), fuUnpipelined(inst.op)) << where();

        // A PROB_CMP's Prob-BTB key: the closing, branching PROB_JMP of
        // its group, found by an unbounded forward scan.
        uint32_t closing = 0;
        if (inst.op == Opcode::PROB_CMP) {
            closing = static_cast<uint32_t>(pc);
            for (size_t j = pc + 1; j < n; j++) {
                const Instruction &f = prog.insts[j];
                if (f.op == Opcode::PROB_JMP && f.probId == inst.probId &&
                    !f.isCarrierProbJmp()) {
                    closing = static_cast<uint32_t>(j);
                    break;
                }
            }
        }
        EXPECT_EQ(d.probJmpPc, closing) << where();
    }
}

TEST(PredecodeMetadata, EveryWorkloadOpMatchesItsInstruction)
{
    using namespace pbs::workloads;
    for (const auto &b : allBenchmarks()) {
        for (Variant v : {Variant::Marked, Variant::Predicated,
                          Variant::Cfd}) {
            if ((v == Variant::Predicated && !b.predicationOk) ||
                (v == Variant::Cfd && !b.cfdOk))
                continue;  // not applicable (Table I)
            WorkloadParams p;
            p.scale = 50;
            expectDecodedMatchesProgram(
                b.build(p, v),
                b.name + " variant " + std::to_string(int(v)));
        }
    }
}

TEST(PredecodeMetadata, EveryFuzzProgramOpMatchesItsInstruction)
{
    for (uint64_t seed : {11u, 42u, 1234u, 9999u}) {
        pbs::rng::XorShift64Star rng(seed);
        for (int round = 0; round < 32; round++) {
            const bool withProb = (rng.next() & 1) != 0;
            expectDecodedMatchesProgram(
                pbs::testsupport::randomProgram(rng, withProb),
                "seed " + std::to_string(seed) + " round " +
                    std::to_string(round));
        }
    }
}

}  // namespace
