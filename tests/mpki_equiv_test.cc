/**
 * @file
 * Exactness of the core's mpki fidelity on superblocks. The mpki step
 * loop runs whole blocks through the threaded dispatcher and only the
 * block terminators through cpu::execute with the core's hooks, so
 * every way of driving a core must observe the same predictor, PBS
 * engine, Fig. 9 filter and prob-trace calls at the same instruction
 * indices: run(), a step(1) loop (which never chains two blocks, so it
 * is the single-stepping reference), step(k) chunks that end inside
 * blocks, and a maxInstructions limit that stops mid-block. All of
 * them must leave identical CoreStats, probTrace(), registers, memory
 * and PBS-engine counters.
 *
 * Inputs: the dispatch suites' 240 fuzzed programs and the eight
 * workloads at quick scale (1/50), each under every zoo predictor with
 * PBS off and on, plus a Fig. 9 filter row and a traceProbBranches
 * (Table III) row. Builds without computed goto run it too: there
 * every path single-steps, and the cores must have no superblocks.
 *
 * The block-share gate: on the eight workloads, the functional engine
 * and the mpki core must retire at least 99% of their instructions
 * through whole blocks (cpu::DispatchCounts). A silent fallback to
 * single-stepping leaves every result above intact, so only this
 * count catches it.
 *
 * Direction streams (DirectionStreams.*): a stream recorded under one
 * predictor and replayed under every other zoo predictor (and a Fig. 9
 * filter row) must give exactly Engine::computePoint's Measurement —
 * every CoreStats field, the PBS counters and the outputs — on the
 * eight workloads, pi's predicated and cfd variants and the fuzz
 * corpus, PBS off and on. Paths a stream cannot describe (a return
 * through a rewritten RA, a run cut by maxInstructions, a run that
 * throws) must fall back to a plain run with the same result, and the
 * engine must group and count replays the same way at any --jobs. A
 * replay under every predictorNames() entry, filter off and on, must
 * leave a plain run's CoreStats, so the per-type replay dispatch
 * cannot miss a predictor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "cpu/core.hh"
#include "exp/engine.hh"
#include "isa/assembler.hh"
#include "sampling/functional.hh"
#include "workloads/common.hh"

#include "support/random_program.hh"

namespace {

using namespace pbs;

/** One mpki core configuration of the cross product. */
struct MpkiRow
{
    std::string predictor;
    bool pbs = false;
    bool filter = false;  ///< Fig. 9: prob branches bypass the predictor
    bool trace = false;   ///< Table III: record the prob trace
};

std::vector<MpkiRow>
mpkiRows()
{
    std::vector<MpkiRow> rows;
    for (const char *p : {"bimodal", "gshare", "local", "loop",
                          "tournament", "tage", "tage-sc-l", "perfect"}) {
        rows.push_back({p, false});
        rows.push_back({p, true});
    }
    rows.push_back({"tage-sc-l", false, true, false});
    rows.push_back({"tage-sc-l", true, false, true});
    return rows;
}

std::string
rowName(const MpkiRow &r)
{
    return r.predictor + (r.pbs ? " pbs" : "") +
           (r.filter ? " filter" : "") + (r.trace ? " trace" : "");
}

cpu::CoreConfig
mpkiConfig(const MpkiRow &r, uint64_t maxInstructions = 0)
{
    cpu::CoreConfig cfg;
    cfg.mode = cpu::SimMode::Functional;
    cfg.predictor = r.predictor;
    cfg.pbsEnabled = r.pbs;
    cfg.filterProbFromPredictor = r.filter;
    cfg.traceProbBranches = r.trace;
    cfg.maxInstructions = maxInstructions;
    return cfg;
}

/** Everything a run leaves behind that the paths must agree on. */
struct Outcome
{
    cpu::CoreStats stats;
    std::vector<cpu::ProbTraceEntry> trace;
    std::array<uint64_t, isa::kNumRegs> regs{};
    mem::SparseMemory mem;
    core::PbsStats pbs;
    uint64_t pc = 0;
    bool halted = false;
};

Outcome
outcomeOf(const cpu::Core &c)
{
    Outcome o;
    o.stats = c.stats();
    o.trace = c.probTrace();
    for (unsigned r = 0; r < isa::kNumRegs; r++)
        o.regs[r] = c.reg(r);
    o.mem = c.memory();
    o.pbs = c.pbs().stats();
    o.pc = c.pc();
    o.halted = c.halted();
    return o;
}

void
expectSame(const Outcome &ref, const Outcome &got, const std::string &what)
{
    EXPECT_TRUE(ref.stats == got.stats)
        << what << ": instructions " << ref.stats.instructions << " vs "
        << got.stats.instructions << ", mispredicts "
        << ref.stats.mispredicts << " vs " << got.stats.mispredicts;
    EXPECT_TRUE(ref.trace == got.trace) << what << ": probTrace";
    EXPECT_TRUE(ref.regs == got.regs) << what << ": registers";
    EXPECT_TRUE(ref.mem.sameContents(got.mem)) << what << ": memory";
    EXPECT_TRUE(ref.pbs == got.pbs) << what << ": PBS engine counters";
    EXPECT_EQ(ref.pc, got.pc) << what;
    EXPECT_EQ(ref.halted, got.halted) << what;
}

/** Drive @p c to HALT in step(@p k) chunks. */
void
stepToHalt(cpu::Core &c, uint64_t k)
{
    while (!c.halted())
        c.step(k);
}

/**
 * Run @p prog every way under @p row and diff each against the step(1)
 * loop.
 */
void
expectAllPathsAgree(const isa::Program &prog, const MpkiRow &row,
                    const std::string &what)
{
    const std::string tag = what + " [" + rowName(row) + "]";

    cpu::Core ref(prog, mpkiConfig(row));
    stepToHalt(ref, 1);
    const Outcome want = outcomeOf(ref);
    ASSERT_TRUE(want.halted) << tag;
    EXPECT_EQ(ref.superblocks() != nullptr, cpu::kSuperblocksBuilt) << tag;

    cpu::Core whole(prog, mpkiConfig(row));
    whole.run();
    expectSame(want, outcomeOf(whole), tag + " run()");

    for (uint64_t k : {7u, 4099u}) {
        cpu::Core chunked(prog, mpkiConfig(row));
        stepToHalt(chunked, k);
        expectSame(want, outcomeOf(chunked),
                   tag + " step(" + std::to_string(k) + ")");
    }

    // A limit that ends inside a block: the first instruction count
    // past the midpoint at which the PC is no block leader.
    cpu::Core probe(prog, mpkiConfig(row));
    probe.step(want.stats.instructions / 2);
    while (!probe.halted() && probe.image().at(probe.pc()).isLeader())
        probe.step(1);
    ASSERT_FALSE(probe.halted()) << tag << ": no mid-block stop found";
    const uint64_t limit = probe.stats().instructions;
    cpu::Core limited(prog, mpkiConfig(row, limit));
    limited.run();
    EXPECT_EQ(limited.stats().instructions, limit) << tag;
    expectSame(outcomeOf(probe), outcomeOf(limited),
               tag + " maxInstructions " + std::to_string(limit));
}

// ---------------------------------------------------------------------
// The eight workloads at quick scale.
// ---------------------------------------------------------------------

class MpkiWorkload : public ::testing::TestWithParam<const char *>
{
};

TEST_P(MpkiWorkload, EveryPathMatchesSingleStepping)
{
    const auto &b = workloads::benchmarkByName(GetParam());
    workloads::WorkloadParams p;
    p.scale = std::max<uint64_t>(1, b.defaultScale / 50);
    const isa::Program prog = b.build(p, workloads::Variant::Marked);
    for (const MpkiRow &row : mpkiRows())
        expectAllPathsAgree(prog, row, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, MpkiWorkload,
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
// The dispatch suites' fuzz corpus.
// ---------------------------------------------------------------------

class MpkiFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MpkiFuzz, EveryPathMatchesSingleStepping)
{
    const std::vector<isa::Program> corpus =
        testsupport::fuzzCorpus(GetParam());
    const std::vector<MpkiRow> rows = mpkiRows();
    for (size_t round = 0; round < corpus.size(); round++) {
        for (const MpkiRow &row : rows) {
            expectAllPathsAgree(corpus[round], row,
                                "seed " + std::to_string(GetParam()) +
                                    " round " + std::to_string(round));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpkiFuzz,
                         ::testing::ValuesIn(testsupport::kFuzzSeeds));

// A timing core never builds superblocks: its hooks schedule every
// instruction.
TEST(MpkiSuperblocks, OnlyTheMpkiFidelityBuildsThem)
{
    const auto &b = workloads::benchmarkByName("pi");
    workloads::WorkloadParams p;
    p.scale = std::max<uint64_t>(1, b.defaultScale / 50);
    const isa::Program prog = b.build(p, workloads::Variant::Marked);
    cpu::CoreConfig timing;
    EXPECT_EQ(cpu::Core(prog, timing).superblocks(), nullptr);
    cpu::CoreConfig mpki = timing;
    mpki.mode = cpu::SimMode::Functional;
    EXPECT_EQ(cpu::Core(prog, mpki).superblocks() != nullptr,
              cpu::kSuperblocksBuilt);
}

// Every workload, in functional and in mpki (perfect and tage-sc-l,
// PBS off and on), runs at least 99% of its instructions through
// whole blocks; without computed goto, every instruction single-steps.
TEST(MpkiSuperblocks, BlockShareCoversTheRun)
{
    double minShare = 1.0;
    auto check = [&](const cpu::DispatchCounts &c, uint64_t insts,
                     const std::string &what) {
        EXPECT_EQ(c.blockInsts + c.steppedInsts, insts) << what;
        if (!cpu::kSuperblocksBuilt) {
            EXPECT_EQ(c.steppedInsts, insts) << what;
            return;
        }
        const double share = double(c.blockInsts) / double(insts);
        minShare = std::min(minShare, share);
        EXPECT_GE(share, 0.99)
            << what << ": " << c.steppedInsts << " of " << insts
            << " instructions single-stepped";
    };
    for (const auto &b : workloads::allBenchmarks()) {
        workloads::WorkloadParams p;
        p.scale = std::max<uint64_t>(1, b.defaultScale / 50);
        const isa::Program prog = b.build(p, workloads::Variant::Marked);

        sampling::FunctionalEngine engine(prog);
        engine.run();
        check(engine.dispatchCounts(), engine.stats().instructions,
              b.name + " functional");
        for (const char *pred : {"perfect", "tage-sc-l"}) {
            for (bool pbs : {false, true}) {
                cpu::Core core(prog, mpkiConfig({pred, pbs}));
                core.run();
                check(core.dispatchCounts(), core.stats().instructions,
                      b.name + " mpki " + rowName({pred, pbs}));
            }
        }
    }
    RecordProperty("min_block_share", std::to_string(minShare));
}

// ---------------------------------------------------------------------
// Direction streams: record once, re-predict under every predictor.
// ---------------------------------------------------------------------

const char *const kZoo[] = {"bimodal", "gshare", "local", "loop",
                            "tournament", "tage", "tage-sc-l", "perfect"};

/** An mpki point at quick scale (1/50). */
exp::ExpPoint
quickMpkiPoint(const std::string &workload, const std::string &predictor,
               bool pbs, const std::string &variant = "marked")
{
    const auto &b = workloads::benchmarkByName(workload);
    exp::ExpPoint pt;
    pt.workload = workload;
    pt.predictor = predictor;
    pt.variant = variant;
    pt.functional = true;
    pt.pbs = pbs;
    pt.scale = std::max<uint64_t>(1, b.defaultScale / 50);
    return pt;
}

/** streamedRun() on @p pt's program, through @p slot. */
exp::Measurement
streamedPoint(const exp::ExpPoint &pt, exp::StreamSlot &slot,
              bool &replayed)
{
    const auto &b = workloads::benchmarkByName(pt.workload);
    return exp::streamedRun(
        b.build(exp::pointParams(pt), exp::variantFromName(pt.variant)),
        exp::pointCoreConfig(pt), exp::directionStreamKey(pt),
        b.simOutput, slot, replayed);
}

void
expectSameMeasurement(const exp::Measurement &want,
                      const exp::Measurement &got, const std::string &what)
{
    EXPECT_TRUE(want.stats == got.stats)
        << what << ": instructions " << want.stats.instructions << " vs "
        << got.stats.instructions << ", mispredicts "
        << want.stats.mispredicts << " vs " << got.stats.mispredicts
        << ", steered " << want.stats.steeredBranches << " vs "
        << got.stats.steeredBranches;
    EXPECT_TRUE(want.pbs == got.pbs) << what << ": PBS counters";
    EXPECT_EQ(want.outputs, got.outputs) << what << ": outputs";
    EXPECT_TRUE(want == got) << what;
}

/** A workload (and variant) whose stream serves the whole zoo. */
struct StreamCase
{
    const char *workload;
    const char *variant;
};

void
PrintTo(const StreamCase &c, std::ostream *os)
{
    *os << c.workload << "/" << c.variant;
}

class DirectionStreamWorkload : public ::testing::TestWithParam<StreamCase>
{
};

// The first point records; every other zoo predictor and a Fig. 9
// filter row replay, and each must equal computePoint.
TEST_P(DirectionStreamWorkload, ReplayMatchesComputePoint)
{
    const StreamCase c = GetParam();
    for (bool pbs : {false, true}) {
        exp::StreamSlot slot;
        std::vector<exp::ExpPoint> pts;
        for (const char *pred : kZoo)
            pts.push_back(quickMpkiPoint(c.workload, pred, pbs, c.variant));
        exp::ExpPoint filter =
            quickMpkiPoint(c.workload, "tournament", pbs, c.variant);
        filter.filterProb = true;
        pts.push_back(filter);

        for (size_t i = 0; i < pts.size(); i++) {
            const std::string what =
                std::string(c.workload) + "/" + c.variant + " " +
                pts[i].predictor + (pbs ? " pbs" : "") +
                (pts[i].filterProb ? " filter" : "");
            bool replayed = false;
            const exp::Measurement got =
                streamedPoint(pts[i], slot, replayed);
            EXPECT_EQ(replayed, i > 0) << what;
            expectSameMeasurement(exp::Engine::computePoint(pts[i]), got,
                                  what);
        }
        EXPECT_TRUE(slot.stream.usable());
        EXPECT_EQ(slot.stream.pbs(), pbs);
    }
}

INSTANTIATE_TEST_SUITE_P(
    DirectionStreams, DirectionStreamWorkload,
    ::testing::Values(StreamCase{"dop", "marked"},
                      StreamCase{"greeks", "marked"},
                      StreamCase{"swaptions", "marked"},
                      StreamCase{"genetic", "marked"},
                      StreamCase{"photon", "marked"},
                      StreamCase{"mc-integ", "marked"},
                      StreamCase{"pi", "marked"},
                      StreamCase{"bandit", "marked"},
                      StreamCase{"pi", "predicated"},
                      StreamCase{"pi", "cfd"}),
    [](const auto &info) {
        std::string n = std::string(info.param.workload) + "_" +
                        info.param.variant;
        for (auto &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

/** The fuzz programs' data region, as outputs: each word's top and
 *  bottom 32 bits, exactly representable (raw words may be NaNs). */
std::vector<double>
fuzzOutputs(const mem::SparseMemory &m)
{
    std::vector<double> out;
    for (uint64_t a = 0x20000; a < 0x20000 + 64 * 8; a += 8) {
        const uint64_t w = m.readU64(a);
        out.push_back(double(w >> 32));
        out.push_back(double(w & 0xffffffffu));
    }
    return out;
}

/** The Measurement a plain mpki core leaves for @p prog. */
exp::Measurement
plainRun(const isa::Program &prog, const cpu::CoreConfig &cfg,
         exp::OutputsFn outputsOf)
{
    cpu::Core core(prog, cfg);
    core.run();
    exp::Measurement m;
    m.stats = core.stats();
    m.pbs = core.pbs().stats();
    m.outputs = outputsOf(core.memory());
    return m;
}

class DirectionStreamFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DirectionStreamFuzz, ReplayMatchesPlainRuns)
{
    const std::vector<isa::Program> corpus =
        testsupport::fuzzCorpus(GetParam());
    for (size_t round = 0; round < corpus.size(); round++) {
        for (bool pbs : {false, true}) {
            exp::StreamSlot slot;
            for (size_t i = 0; i < std::size(kZoo); i++) {
                const MpkiRow row{kZoo[i], pbs};
                const std::string what =
                    "seed " + std::to_string(GetParam()) + " round " +
                    std::to_string(round) + " [" + rowName(row) + "]";
                const cpu::CoreConfig cfg = mpkiConfig(row);
                bool replayed = false;
                const exp::Measurement got =
                    exp::streamedRun(corpus[round], cfg, "fuzz",
                                     fuzzOutputs, slot, replayed);
                EXPECT_EQ(replayed, i > 0) << what;
                expectSameMeasurement(
                    plainRun(corpus[round], cfg, fuzzOutputs), got, what);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(DirectionStreams, DirectionStreamFuzz,
                         ::testing::ValuesIn(testsupport::kFuzzSeeds));

/**
 * A counted loop of calls into a function that bumps REG_RA before it
 * returns, so every return lands one instruction past its call's
 * successor: a path no shadow stack can follow.
 */
isa::Program
rewrittenReturnProgram()
{
    isa::Assembler a;
    a.ldi(3, 300);
    a.ldi(4, 0);
    a.label("loop");
    a.call("f");
    a.addi(4, 4, 100);  // skipped by every rewritten return
    a.addi(4, 4, 1);
    a.andi(5, 4, 4);
    a.jz(5, "skip");
    a.addi(6, 6, 1);
    a.label("skip");
    a.addi(3, 3, -1);
    a.jnz(3, "loop");
    a.ldi(7, 0x20000);
    a.st(7, 4, 0);
    a.st(7, 6, 8);
    a.halt();
    a.label("f");
    a.addi(isa::REG_RA, isa::REG_RA, 1);
    a.ret();
    return a.finish();
}

/** Nested calls that all return where they should. */
isa::Program
nestedCallProgram()
{
    isa::Assembler a;
    a.ldi(3, 200);
    a.ldi(7, 0x20000);
    a.label("loop");
    a.call("outer");
    a.addi(3, 3, -1);
    a.jnz(3, "loop");
    a.st(7, 4, 0);
    a.halt();
    a.label("outer");
    a.mov(8, isa::REG_RA);
    a.call("inner");
    a.andi(5, 4, 3);
    a.jz(5, "even");
    a.call("inner");
    a.label("even");
    a.mov(isa::REG_RA, 8);
    a.ret();
    a.label("inner");
    a.addi(4, 4, 3);
    a.ret();
    return a.finish();
}

/** A run whose RET jumps far past the image. */
isa::Program
throwingProgram()
{
    isa::Assembler a;
    a.ldi(3, 50);
    a.label("loop");
    a.addi(3, 3, -1);
    a.jnz(3, "loop");
    a.ldi(isa::REG_RA, 1 << 20);
    a.ret();
    a.halt();
    return a.finish();
}

/** The fallback contract on @p prog under @p maxInstructions: the
 *  recorded stream is unusable, and every point of the key runs plain
 *  and matches a plain core. */
void
expectPlainFallback(const isa::Program &prog, uint64_t maxInstructions,
                    const std::string &what)
{
    exp::StreamSlot slot;
    for (const char *pred : kZoo) {
        const cpu::CoreConfig cfg =
            mpkiConfig({pred, false}, maxInstructions);
        bool replayed = true;
        const exp::Measurement got = exp::streamedRun(
            prog, cfg, "fallback", fuzzOutputs, slot, replayed);
        EXPECT_FALSE(replayed) << what << " " << pred;
        expectSameMeasurement(plainRun(prog, cfg, fuzzOutputs), got,
                              what + " " + pred);
        EXPECT_EQ(slot.key, "fallback") << what;
        EXPECT_FALSE(slot.stream.usable()) << what;
    }
    cpu::Core core(prog, mpkiConfig({"gshare", false}, maxInstructions));
    EXPECT_THROW(core.replay(slot.stream), std::invalid_argument) << what;
}

TEST(DirectionStreams, RewrittenReturnAddressFallsBack)
{
    expectPlainFallback(rewrittenReturnProgram(), 0, "rewritten RA");
}

TEST(DirectionStreams, RunCutByMaxInstructionsFallsBack)
{
    const isa::Program prog = nestedCallProgram();
    cpu::Core whole(prog, mpkiConfig({"perfect", false}));
    whole.run();
    ASSERT_TRUE(whole.halted());
    expectPlainFallback(prog, whole.stats().instructions / 2,
                        "maxInstructions");
}

TEST(DirectionStreams, LifoCallsReplay)
{
    const isa::Program prog = nestedCallProgram();
    for (bool pbs : {false, true}) {
        exp::StreamSlot slot;
        for (size_t i = 0; i < std::size(kZoo); i++) {
            const cpu::CoreConfig cfg = mpkiConfig({kZoo[i], pbs});
            bool replayed = false;
            const exp::Measurement got = exp::streamedRun(
                prog, cfg, "calls", fuzzOutputs, slot, replayed);
            EXPECT_EQ(replayed, i > 0) << kZoo[i];
            expectSameMeasurement(plainRun(prog, cfg, fuzzOutputs), got,
                                  std::string("calls ") + kZoo[i]);
        }
    }
}

TEST(DirectionStreams, ThrowingRunLeavesNoStream)
{
    const isa::Program prog = throwingProgram();
    exp::StreamSlot slot;
    slot.key = "stale";
    for (const char *pred : {"gshare", "tage"}) {
        const cpu::CoreConfig cfg = mpkiConfig({pred, false});
        EXPECT_THROW(cpu::Core(prog, cfg).run(), std::out_of_range);
        bool replayed = true;
        EXPECT_THROW(exp::streamedRun(prog, cfg, "throws", fuzzOutputs,
                                      slot, replayed),
                     std::out_of_range)
            << pred;
        EXPECT_FALSE(replayed);
        EXPECT_TRUE(slot.key.empty()) << pred;
    }
}

// Core::replay picks the predictor's concrete type once per replay
// (bpred::visitPredictor). Every name makePredictor accepts, including
// always-taken, always-not-taken and random, must replay to a plain
// run's CoreStats, PBS off and on, with and without the Fig. 9 filter;
// a type the dispatch lacks throws instead of falling back.
TEST(DirectionStreams, ReplayDispatchCoversEveryPredictor)
{
    for (const char *workload : {"pi", "bandit"}) {
        const auto &b = workloads::benchmarkByName(workload);
        workloads::WorkloadParams params;
        params.scale = std::max<uint64_t>(1, b.defaultScale / 50);
        const isa::Program prog =
            b.build(params, workloads::Variant::Marked);
        for (bool pbs : {false, true}) {
            cpu::DirectionStream stream;
            cpu::Core rec(prog, mpkiConfig({"perfect", pbs}));
            rec.recordDirections(&stream);
            rec.run();
            ASSERT_TRUE(stream.usable()) << workload;
            for (const std::string &pred : bpred::predictorNames()) {
                for (bool filter : {false, true}) {
                    const MpkiRow row{pred, pbs, filter};
                    const std::string what =
                        std::string(workload) + " [" + rowName(row) + "]";
                    cpu::Core plain(prog, mpkiConfig(row));
                    plain.run();
                    cpu::Core replayed(prog, mpkiConfig(row));
                    replayed.replay(stream);
                    EXPECT_TRUE(plain.stats() == replayed.stats())
                        << what << ": mispredicts "
                        << plain.stats().mispredicts << " vs "
                        << replayed.stats().mispredicts;
                    EXPECT_TRUE(replayed.halted()) << what;
                }
            }
        }
    }
}

// Replay refuses what it cannot follow: a timing core, a core that
// already ran, the other PBS setting.
TEST(DirectionStreams, ReplayRejectsMismatchedCores)
{
    const isa::Program prog = nestedCallProgram();
    cpu::DirectionStream stream;
    cpu::Core rec(prog, mpkiConfig({"gshare", false}));
    rec.recordDirections(&stream);
    rec.run();
    ASSERT_TRUE(stream.usable());

    cpu::CoreConfig timing;
    EXPECT_THROW(cpu::Core(prog, timing).replay(stream),
                 std::invalid_argument);
    EXPECT_THROW(cpu::Core(prog, timing).recordDirections(&stream),
                 std::logic_error);
    EXPECT_THROW(cpu::Core(prog, mpkiConfig({"gshare", true})).replay(stream),
                 std::invalid_argument);
    cpu::Core ran(prog, mpkiConfig({"tage", false}));
    ran.step(10);
    EXPECT_THROW(ran.replay(stream), std::invalid_argument);

    cpu::Core ok(prog, mpkiConfig({"tage", false}));
    ok.replay(stream);
    EXPECT_TRUE(ok.halted());
    EXPECT_EQ(ok.dispatchCounts().blockInsts, 0u);
    EXPECT_EQ(ok.dispatchCounts().steppedInsts, 0u);
}

TEST(DirectionStreams, KeyIsThePointMinusPredictorAndFilter)
{
    const exp::ExpPoint base = quickMpkiPoint("pi", "gshare", false);
    const std::string key = exp::directionStreamKey(base);
    ASSERT_FALSE(key.empty());

    exp::ExpPoint same = base;
    same.predictor = "tage-sc-l";
    same.filterProb = true;
    EXPECT_EQ(exp::directionStreamKey(same), key);

    auto differs = [&](auto edit) {
        exp::ExpPoint pt = base;
        edit(pt);
        return exp::directionStreamKey(pt) != key;
    };
    EXPECT_TRUE(differs([](exp::ExpPoint &p) { p.pbs = true; }));
    EXPECT_TRUE(differs([](exp::ExpPoint &p) { p.seed++; }));
    EXPECT_TRUE(differs([](exp::ExpPoint &p) { p.scale++; }));
    EXPECT_TRUE(differs([](exp::ExpPoint &p) { p.variant = "cfd"; }));
    EXPECT_TRUE(differs([](exp::ExpPoint &p) { p.workload = "dop"; }));
    EXPECT_TRUE(differs([](exp::ExpPoint &p) { p.stallOnBusy = false; }));
    EXPECT_TRUE(differs([](exp::ExpPoint &p) { p.numBranches = 4; }));
    EXPECT_TRUE(differs([](exp::ExpPoint &p) { p.inFlightLimit = 2; }));

    // Only mpki Sim points share a path.
    exp::ExpPoint detailed = base;
    detailed.functional = false;
    EXPECT_TRUE(exp::directionStreamKey(detailed).empty());
    exp::ExpPoint functional = base;
    functional.mode = "functional";
    EXPECT_TRUE(exp::directionStreamKey(functional).empty());
    exp::ExpPoint rand = base;
    rand.kind = exp::PointKind::Rand;
    EXPECT_TRUE(exp::directionStreamKey(rand).empty());
}

/** A zoo-shaped grid: @p workloads x 4 predictors x PBS off/on. */
std::vector<exp::ExpPoint>
zooGrid(const std::vector<std::string> &workloads)
{
    std::vector<exp::ExpPoint> pts;
    for (const std::string &w : workloads)
        for (bool pbs : {false, true})
            for (const char *p : {"gshare", "tournament", "tage-sc-l",
                                  "perfect"})
                pts.push_back(quickMpkiPoint(w, p, pbs));
    return pts;
}

// measure() keeps the most recent stream: a point with another key in
// between (a detailed one here) leaves it alone, another mpki key
// replaces it.
TEST(DirectionStreams, MeasureKeepsTheMostRecentStream)
{
    exp::Engine eng;
    std::vector<exp::ExpPoint> order;
    for (const char *p : kZoo)
        order.push_back(quickMpkiPoint("pi", p, false));
    exp::ExpPoint detailed = order[1];
    detailed.functional = false;
    order.insert(order.begin() + 3, detailed);
    order.push_back(quickMpkiPoint("pi", "tournament", true));
    order.push_back(quickMpkiPoint("pi", "tage-sc-l", true));
    exp::ExpPoint filter = quickMpkiPoint("pi", "tournament", false);
    filter.filterProb = true;
    order.push_back(filter);

    for (const exp::ExpPoint &pt : order)
        expectSameMeasurement(exp::Engine::computePoint(pt),
                              eng.measure(pt),
                              pt.predictor + (pt.pbs ? " pbs" : ""));
    // 7 of the 8 PBS-off points and 1 of the 2 PBS-on points replay;
    // the last PBS-off point (a Fig. 9 filter row) comes after the
    // PBS-on stream replaced the PBS-off one, so it records again.
    EXPECT_EQ(eng.counters().streamReplays, 8u);
    EXPECT_EQ(eng.counters().computed, order.size());
}

// runAll groups by stream key: each key records once and replays the
// rest, at any --jobs, with computePoint's results.
TEST(DirectionStreams, RunAllGroupsByKeyAtAnyJobs)
{
    const std::vector<exp::ExpPoint> grid = zooGrid({"pi", "bandit"});
    for (unsigned jobs : {1u, 4u}) {
        exp::EngineConfig cfg;
        cfg.jobs = jobs;
        exp::Engine eng(cfg);
        eng.runAll(grid);
        EXPECT_EQ(eng.counters().computed, grid.size()) << jobs;
        EXPECT_EQ(eng.counters().streamReplays, 2u * 2u * 3u) << jobs;
        for (const exp::ExpPoint &pt : grid)
            expectSameMeasurement(exp::Engine::computePoint(pt),
                                  eng.measure(pt),
                                  pt.workload + " " + pt.predictor +
                                      (pt.pbs ? " pbs" : "") + " jobs " +
                                      std::to_string(jobs));
    }
}

}  // namespace
