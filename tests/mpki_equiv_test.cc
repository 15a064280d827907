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
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "cpu/core.hh"
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

}  // namespace
