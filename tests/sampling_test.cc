/**
 * @file
 * The sampled-simulation subsystem: checkpoint capture/restore (within
 * the functional engine, across the serialization, and into a detailed
 * core), and, through the experiment engine's sampled runner, SMARTS
 * sampling accuracy against full detailed runs, the too-short-to-sample
 * fallback, parameter validation, and determinism across fan-out
 * thread counts.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "exp/engine.hh"
#include "sampling/checkpoint.hh"
#include "sampling/functional.hh"
#include "sampling/sampled.hh"
#include "util/task_pool.hh"
#include "workloads/common.hh"

#include "support/step_reference.hh"

namespace {

using namespace pbs;

isa::Program
buildWorkload(const char *name, uint64_t seed, unsigned divisor)
{
    const auto &b = workloads::benchmarkByName(name);
    workloads::WorkloadParams p;
    p.seed = seed;
    p.scale = std::max<uint64_t>(1, b.defaultScale / divisor);
    return b.build(p, workloads::Variant::Marked);
}

/** A sampled point of @p name at 1/@p divisor of its default scale. */
exp::ExpPoint
sampledPoint(const char *name, uint64_t seed, unsigned divisor,
             const char *predictor, uint64_t interval, uint64_t warmup,
             uint64_t measure)
{
    exp::ExpPoint pt;
    pt.workload = name;
    pt.predictor = predictor;
    pt.mode = "sampled";
    pt.seed = seed;
    pt.scale = std::max<uint64_t>(
        1, workloads::benchmarkByName(name).defaultScale / divisor);
    pt.sampleInterval = interval;
    pt.sampleWarmup = warmup;
    pt.sampleMeasure = measure;
    return pt;
}

/** @p pt as a detailed point: the reference a sampled run estimates. */
exp::ExpPoint
detailedPoint(exp::ExpPoint pt)
{
    pt.mode = "detailed";
    pt.sampleInterval = pt.sampleWarmup = pt.sampleMeasure = 0;
    return pt;
}

/** Phases 2 and 3 over @p set, one interval after another. */
sampling::SampledRun
sampledOn(const isa::Program &prog, const cpu::CoreConfig &cfg,
          const sampling::CheckpointSet &set)
{
    const cpu::CoreConfig detCfg = sampling::detailedMeasureConfig(cfg);
    std::vector<sampling::IntervalSample> samples;
    for (const cpu::ArchState &chk : set.checkpoints)
        samples.push_back(sampling::measureInterval(
            prog, detCfg, chk, cfg.sample.warmup, cfg.sample.measure));
    sampling::SampledRun run;
    EXPECT_TRUE(sampling::aggregateSamples(set.totals, set.finalState,
                                           samples, run));
    return run;
}

void
expectSameArch(const cpu::ArchState &a, const cpu::ArchState &b,
               const std::string &what)
{
    EXPECT_EQ(a.regs, b.regs) << what;
    EXPECT_EQ(a.pc, b.pc) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.probSeq, b.probSeq) << what;
    EXPECT_TRUE(a.mem.sameContents(b.mem)) << what;
}

// --- checkpoint capture / restore ------------------------------------

TEST(Checkpoint, FunctionalResumeMatchesUninterruptedRun)
{
    isa::Program prog = buildWorkload("pi", 7, 100);

    sampling::FunctionalEngine full(prog);
    full.run();

    sampling::FunctionalEngine part(prog);
    part.step(20000);
    ASSERT_FALSE(part.halted());
    sampling::Checkpoint chk{part.saveArch()};
    EXPECT_EQ(chk.state.instructions, 20000u);

    sampling::FunctionalEngine resumed(prog);
    resumed.restoreArch(chk.state);
    resumed.run();

    expectSameArch(full.saveArch(), resumed.saveArch(), "resume");
}

TEST(Checkpoint, SerializationRoundTripsBitExactly)
{
    isa::Program prog = buildWorkload("dop", 3, 100);
    sampling::FunctionalEngine engine(prog);
    engine.step(15000);
    sampling::Checkpoint chk{engine.saveArch()};

    const std::vector<uint8_t> blob = chk.serialize();
    sampling::Checkpoint back = sampling::Checkpoint::deserialize(blob);
    expectSameArch(chk.state, back.state, "serialize round trip");

    // Determinism: equal states serialize to equal bytes.
    EXPECT_EQ(blob, sampling::Checkpoint{back.state}.serialize());

    // A restored engine continues exactly like the original.
    sampling::FunctionalEngine resumed(prog);
    resumed.restoreArch(back.state);
    engine.run();
    resumed.run();
    expectSameArch(engine.saveArch(), resumed.saveArch(),
                   "serialized resume");
}

TEST(Checkpoint, DeserializeRejectsMalformedBlobs)
{
    isa::Program prog = buildWorkload("pi", 1, 1000);
    sampling::FunctionalEngine engine(prog);
    engine.step(100);
    std::vector<uint8_t> blob =
        sampling::Checkpoint{engine.saveArch()}.serialize();

    auto truncated = blob;
    truncated.resize(truncated.size() - 1);
    EXPECT_THROW(sampling::Checkpoint::deserialize(truncated),
                 std::invalid_argument);

    auto badMagic = blob;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(sampling::Checkpoint::deserialize(badMagic),
                 std::invalid_argument);

    auto trailing = blob;
    trailing.push_back(0);
    EXPECT_THROW(sampling::Checkpoint::deserialize(trailing),
                 std::invalid_argument);
}

TEST(Checkpoint, RestoredDetailedCoreReachesIdenticalEndState)
{
    isa::Program prog = buildWorkload("mc-integ", 9, 100);

    // Functional fast-forward to a checkpoint, then a detailed core
    // finishes the program from there: the architectural end state
    // must equal an uninterrupted functional run (PBS off).
    sampling::FunctionalEngine ff(prog);
    ff.step(30000);
    ASSERT_FALSE(ff.halted());
    sampling::Checkpoint chk{ff.saveArch()};
    ff.run();

    cpu::CoreConfig cfg;
    cfg.predictor = "tournament";
    cpu::Core core(prog, cfg);
    core.restoreArch(chk.state);
    core.run();

    cpu::ArchState full = ff.saveArch();
    cpu::ArchState fromCore = core.saveArch();
    EXPECT_EQ(full.regs, fromCore.regs);
    EXPECT_EQ(full.pc, fromCore.pc);
    EXPECT_TRUE(full.mem.sameContents(fromCore.mem));
    EXPECT_EQ(full.probSeq, fromCore.probSeq);
    // The core only counts post-restore instructions.
    EXPECT_EQ(full.instructions,
              chk.state.instructions + fromCore.instructions);
}

TEST(Checkpoint, RestoreRejectsForeignPrograms)
{
    isa::Program pi = buildWorkload("pi", 1, 1000);
    isa::Program dop = buildWorkload("dop", 1, 1000);
    sampling::FunctionalEngine a(pi);
    a.step(50);
    cpu::ArchState state = a.saveArch();
    sampling::FunctionalEngine b(dop);
    EXPECT_THROW(b.restoreArch(state), std::invalid_argument);
    cpu::Core core(dop, cpu::CoreConfig{});
    EXPECT_THROW(core.restoreArch(state), std::invalid_argument);
}

// --- superblock dispatch vs checkpoint boundaries --------------------

/**
 * Capture/restore at adversarial instruction counts: at a superblock
 * edge, inside a block, and at the +/-1 neighbors of the edge. The
 * engine must stop at the exact count under superblock dispatch (the
 * block epilogue decomposes to single steps), the captured checkpoint
 * must serialize to the same bytes as a single-stepped capture, and
 * resuming from it — on superblocks or single-stepped — must reach the
 * same end state as an uninterrupted run.
 */
TEST(Checkpoint, AdversarialCountsMatchAcrossDispatch)
{
    if (!cpu::kSuperblocksBuilt)
        GTEST_SKIP() << "built without computed goto: no superblock "
                        "dispatcher to compare against the switch";
    isa::Program prog = buildWorkload("pi", 7, 100);

    // Classify instruction counts by where the PC lands: on a block
    // leader (edge) or mid-block (interior).
    sampling::FunctionalEngine probe(prog);
    ASSERT_NE(probe.superblocks(), nullptr);
    const cpu::SuperblockImage &sb = *probe.superblocks();
    probe.step(10000);
    uint64_t c = 10000, edge = 0, interior = 0;
    while ((!edge || !interior) && !probe.halted()) {
        probe.step(1);
        c++;
        const bool leader =
            sb.blockAt(probe.pc()) != cpu::SuperblockImage::kNoBlock;
        if (leader && !edge)
            edge = c;
        if (!leader && !interior)
            interior = c;
    }
    ASSERT_GT(edge, 0u);
    ASSERT_GT(interior, 0u);

    sampling::FunctionalEngine full(prog);
    full.run();
    const cpu::ArchState fullEnd = full.saveArch();

    for (uint64_t count : {edge - 1, edge, edge + 1, interior - 1,
                           interior, interior + 1}) {
        const std::string what = "count " + std::to_string(count);

        sampling::FunctionalEngine super(prog);
        testsupport::StepReference ref(super);
        EXPECT_EQ(super.step(count), count) << what;
        EXPECT_EQ(super.stats().instructions, count) << what;
        EXPECT_EQ(ref.step(count), count) << what;

        // Captures are bit-identical down to the serialized bytes.
        sampling::Checkpoint superChk{super.saveArch()};
        sampling::Checkpoint refChk{ref.arch};
        expectSameArch(superChk.state, refChk.state, what);
        EXPECT_EQ(superChk.serialize(), refChk.serialize()) << what;

        // Round trip: restore on superblocks and single-stepped,
        // finish, compare with the uninterrupted run.
        const cpu::ArchState restored =
            sampling::Checkpoint::deserialize(superChk.serialize()).state;
        sampling::FunctionalEngine resumed(prog);
        testsupport::StepReference resumedRef(resumed);
        resumed.restoreArch(restored);
        resumed.run();
        expectSameArch(fullEnd, resumed.saveArch(),
                       what + " resume superblock");
        resumedRef.arch = restored;
        resumedRef.run();
        expectSameArch(fullEnd, resumedRef.arch,
                       what + " resume single-step");
    }
}

/**
 * The sampled-simulation artifacts must be byte-identical with
 * superblocks on vs off: capture the set through captureCheckpoints
 * (superblock dispatch) and again by single-stepping the reference to
 * each k * interval - warmup, diff every serialized checkpoint, and
 * diff the sampled results computed from either set.
 */
TEST(Sampled, ArtifactsByteIdenticalAcrossDispatch)
{
    isa::Program prog = buildWorkload("pi", 5, 20);
    cpu::CoreConfig cfg;
    cfg.sample.interval = 40000;
    cfg.sample.warmup = 10000;
    cfg.sample.measure = 5000;
    pool::TaskPool::instance().configure(1);

    sampling::CheckpointSet superSet =
        sampling::captureCheckpoints(prog, cfg);
    sampling::CheckpointSet steppedSet;
    {
        const sampling::FunctionalEngine fresh(prog);
        testsupport::StepReference ff(fresh);
        for (uint64_t k = 1;; k++) {
            ff.step(k * cfg.sample.interval - cfg.sample.warmup -
                    ff.arch.instructions);
            if (ff.arch.halted)
                break;
            steppedSet.checkpoints.push_back(ff.arch);
        }
        ff.run();
        steppedSet.totals = ff.stats;
        steppedSet.finalState = ff.arch;
    }

    ASSERT_EQ(superSet.checkpoints.size(), steppedSet.checkpoints.size());
    for (size_t i = 0; i < superSet.checkpoints.size(); i++) {
        expectSameArch(superSet.checkpoints[i], steppedSet.checkpoints[i],
                       "checkpoint " + std::to_string(i));
        EXPECT_EQ(
            sampling::Checkpoint{superSet.checkpoints[i]}.serialize(),
            sampling::Checkpoint{steppedSet.checkpoints[i]}.serialize())
            << "checkpoint " << i;
    }
    expectSameArch(superSet.finalState, steppedSet.finalState, "final");

    sampling::SampledRun a = sampledOn(prog, cfg, superSet);
    sampling::SampledRun b = sampledOn(prog, cfg, steppedSet);
    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_TRUE(a.est == b.est);
    expectSameArch(a.finalState, b.finalState, "sampled final");
}

// --- sampled simulation ----------------------------------------------
// Sampled points run through the experiment engine's one sampled
// runner; Engine::computePoint runs a point alone.

TEST(Sampled, EstimatesTrackDetailedRunsWithinTolerance)
{
    for (const char *name : {"pi", "bandit"}) {
        const exp::ExpPoint pt =
            sampledPoint(name, 12345, 10, "tage-sc-l", 50000, 20000, 10000);
        const cpu::CoreStats det =
            exp::Engine::computePoint(detailedPoint(pt)).stats;
        const double detIpc = det.ipc();
        const double detMpki = det.mpki();

        pool::TaskPool::instance().configure(2);
        const exp::Measurement s = exp::Engine::computePoint(pt);
        pool::TaskPool::instance().configure(1);

        ASSERT_TRUE(s.hasSampling) << name;
        EXPECT_FALSE(s.sampling.exact) << name;
        EXPECT_GE(s.sampling.intervals, 5u) << name;
        // Totals come from the full functional pass.
        EXPECT_EQ(s.stats.instructions, det.instructions) << name;
        EXPECT_EQ(s.stats.branches, det.branches) << name;

        // 5% relative tolerance at this reduced scale (the CI-level
        // accuracy bound for standard scale is checked in CI).
        EXPECT_NEAR(s.sampling.ipc, detIpc, 0.05 * detIpc) << name;
        EXPECT_NEAR(s.sampling.mpki, detMpki,
                    0.05 * detMpki + 0.05) << name;
        EXPECT_GT(s.sampling.ipcCi95, 0.0) << name;
        EXPECT_GT(s.sampling.detailedInstructions, 0u) << name;
        EXPECT_LT(s.sampling.detailedInstructions,
                  s.stats.instructions) << name;
    }
}

TEST(Sampled, DeterministicAcrossFanOutThreadCounts)
{
    const exp::ExpPoint pt =
        sampledPoint("pi", 5, 20, "tage-sc-l", 40000, 10000, 5000);

    pool::TaskPool::instance().configure(1);
    const exp::Measurement serial = exp::Engine::computePoint(pt);
    pool::TaskPool::instance().configure(4);
    const exp::Measurement parallel = exp::Engine::computePoint(pt);
    pool::TaskPool::instance().configure(1);

    EXPECT_FALSE(serial.sampling.exact);
    EXPECT_EQ(serial, parallel);
}

TEST(Sampled, ShortProgramsFallBackToExactDetailedRun)
{
    const exp::ExpPoint pt = sampledPoint("pi", 2, 1000, "tournament",
                                          500000, 100000, 60000);
    const cpu::CoreStats det =
        exp::Engine::computePoint(detailedPoint(pt)).stats;

    const exp::Measurement s = exp::Engine::computePoint(pt);
    EXPECT_TRUE(s.sampling.exact);
    EXPECT_EQ(s.sampling.intervals, 0u);
    EXPECT_TRUE(s.stats == det);
    EXPECT_DOUBLE_EQ(s.sampling.ipc, det.ipc());
}

TEST(Sampled, RejectsInconsistentParameters)
{
    cpu::SampleParams sp;
    sp.interval = 0;
    EXPECT_THROW(sampling::validateParams(sp), std::invalid_argument);

    sp = cpu::SampleParams{};
    sp.measure = 0;
    EXPECT_THROW(sampling::validateParams(sp), std::invalid_argument);

    // warmup + measure > interval, the one inconsistency a point can
    // spell (a zero sample parameter selects the default): the runner
    // refuses it alone and on a measuring engine.
    const exp::ExpPoint pt =
        sampledPoint("pi", 1, 1000, "tournament", 1000, 900, 200);
    EXPECT_THROW(exp::Engine::computePoint(pt), std::invalid_argument);
    exp::Engine engine;
    EXPECT_THROW(engine.measure(pt), std::invalid_argument);
    EXPECT_EQ(engine.counters().captures, 0u);
}

}  // namespace
