/**
 * @file
 * The sampled-simulation subsystem: checkpoint capture/restore (within
 * the functional engine, across the serialization, and into a detailed
 * core), SMARTS sampling accuracy against full detailed runs, the
 * too-short-to-sample fallback, parameter validation, determinism
 * across fan-out thread counts, and the persistent checkpoint store
 * (round trips and every load-validation failure path).
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "sampling/checkpoint.hh"
#include "sampling/functional.hh"
#include "sampling/sampled.hh"
#include "sampling/store.hh"
#include "util/task_pool.hh"
#include "workloads/common.hh"

namespace fs = std::filesystem;

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

/** Scoped PBS_FUNC_DISPATCH override (unset on destruction). */
class ScopedDispatchEnv
{
  public:
    explicit ScopedDispatchEnv(const char *v)
    {
        setenv("PBS_FUNC_DISPATCH", v, 1);
    }
    ~ScopedDispatchEnv() { unsetenv("PBS_FUNC_DISPATCH"); }
};

/**
 * Capture/restore at adversarial instruction counts: at a superblock
 * edge, inside a block, and at the +/-1 neighbors of the edge. The
 * engine must stop at the exact count under superblock dispatch (the
 * block epilogue decomposes to single steps), the captured checkpoint
 * must serialize to the same bytes as a reference-switch capture, and
 * resuming from it — under either dispatch — must reach the same end
 * state as an uninterrupted run.
 */
TEST(Checkpoint, AdversarialCountsMatchAcrossDispatch)
{
    isa::Program prog = buildWorkload("pi", 7, 100);

    // Classify instruction counts by where the PC lands: on a block
    // leader (edge) or mid-block (interior).
    sampling::FunctionalEngine probe(
        prog, 0, sampling::FuncDispatch::Superblock);
    ASSERT_NE(probe.superblocks(), nullptr);
    const sampling::SuperblockImage &sb = *probe.superblocks();
    probe.step(10000);
    uint64_t c = 10000, edge = 0, interior = 0;
    while ((!edge || !interior) && !probe.halted()) {
        probe.step(1);
        c++;
        const bool leader =
            sb.blockAt(probe.pc()) != sampling::SuperblockImage::kNoBlock;
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

        sampling::FunctionalEngine super(
            prog, 0, sampling::FuncDispatch::Superblock);
        EXPECT_EQ(super.step(count), count) << what;
        EXPECT_EQ(super.stats().instructions, count) << what;
        sampling::FunctionalEngine ref(
            prog, 0, sampling::FuncDispatch::Switch);
        EXPECT_EQ(ref.step(count), count) << what;

        // Captures are bit-identical down to the serialized bytes.
        sampling::Checkpoint superChk{super.saveArch()};
        sampling::Checkpoint refChk{ref.saveArch()};
        expectSameArch(superChk.state, refChk.state, what);
        EXPECT_EQ(superChk.serialize(), refChk.serialize()) << what;

        // Round trip: restore under both dispatches, finish, compare
        // with the uninterrupted run.
        for (auto mode : {sampling::FuncDispatch::Superblock,
                          sampling::FuncDispatch::Switch}) {
            sampling::FunctionalEngine resumed(prog, 0, mode);
            resumed.restoreArch(
                sampling::Checkpoint::deserialize(superChk.serialize())
                    .state);
            resumed.run();
            expectSameArch(fullEnd, resumed.saveArch(),
                           what + " resume " +
                               sampling::funcDispatchName(mode));
        }
    }
}

/**
 * The sampled-simulation artifacts must be byte-identical with
 * superblocks on vs off: capture once under each dispatch, diff every
 * serialized checkpoint, and diff the sampled results computed from
 * either set.
 */
TEST(Sampled, ArtifactsByteIdenticalAcrossDispatch)
{
    isa::Program prog = buildWorkload("pi", 5, 20);
    cpu::CoreConfig cfg;
    cfg.execMode = cpu::ExecMode::Sampled;
    cfg.sample.interval = 40000;
    cfg.sample.warmup = 10000;
    cfg.sample.measure = 5000;
    pool::TaskPool::instance().configure(1);

    sampling::CheckpointSet superSet =
        sampling::captureCheckpoints(prog, cfg);
    sampling::CheckpointSet switchSet = [&] {
        ScopedDispatchEnv env("switch");
        return sampling::captureCheckpoints(prog, cfg);
    }();

    ASSERT_EQ(superSet.checkpoints.size(), switchSet.checkpoints.size());
    for (size_t i = 0; i < superSet.checkpoints.size(); i++) {
        expectSameArch(superSet.checkpoints[i], switchSet.checkpoints[i],
                       "checkpoint " + std::to_string(i));
        EXPECT_EQ(
            sampling::Checkpoint{superSet.checkpoints[i]}.serialize(),
            sampling::Checkpoint{switchSet.checkpoints[i]}.serialize())
            << "checkpoint " << i;
    }
    expectSameArch(superSet.finalState, switchSet.finalState, "final");

    sampling::SampledRun a = sampling::runSampledOnSet(prog, cfg,
                                                       superSet);
    sampling::SampledRun b = sampling::runSampledOnSet(prog, cfg,
                                                       switchSet);
    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_TRUE(a.est == b.est);
    expectSameArch(a.finalState, b.finalState, "sampled final");
}

// --- sampled simulation ----------------------------------------------

TEST(Sampled, EstimatesTrackDetailedRunsWithinTolerance)
{
    for (const char *name : {"pi", "bandit"}) {
        isa::Program prog = buildWorkload(name, 12345, 10);

        cpu::CoreConfig cfg;
        cfg.predictor = "tage-sc-l";
        cpu::Core detailed(prog, cfg);
        detailed.run();
        const double detIpc = detailed.stats().ipc();
        const double detMpki = detailed.stats().mpki();

        cfg.execMode = cpu::ExecMode::Sampled;
        cfg.sample.interval = 50000;
        cfg.sample.warmup = 20000;
        cfg.sample.measure = 10000;
        pool::TaskPool::instance().configure(2);
        sampling::SampledRun s = sampling::runSampled(prog, cfg);
        pool::TaskPool::instance().configure(1);

        EXPECT_FALSE(s.est.exact) << name;
        EXPECT_GE(s.est.intervals, 5u) << name;
        EXPECT_EQ(s.stats.instructions,
                  detailed.stats().instructions) << name;
        EXPECT_EQ(s.stats.branches, detailed.stats().branches) << name;

        // 5% relative tolerance at this reduced scale (the CI-level
        // accuracy bound for standard scale is checked in CI).
        EXPECT_NEAR(s.est.ipc, detIpc, 0.05 * detIpc) << name;
        EXPECT_NEAR(s.est.mpki, detMpki,
                    0.05 * detMpki + 0.05) << name;
        EXPECT_GT(s.est.ipcCi95, 0.0) << name;
        EXPECT_GT(s.est.detailedInstructions, 0u) << name;
        EXPECT_LT(s.est.detailedInstructions,
                  s.stats.instructions) << name;
    }
}

TEST(Sampled, DeterministicAcrossFanOutThreadCounts)
{
    isa::Program prog = buildWorkload("pi", 5, 20);
    cpu::CoreConfig cfg;
    cfg.execMode = cpu::ExecMode::Sampled;
    cfg.sample.interval = 40000;
    cfg.sample.warmup = 10000;
    cfg.sample.measure = 5000;

    pool::TaskPool::instance().configure(1);
    sampling::SampledRun serial = sampling::runSampled(prog, cfg);
    pool::TaskPool::instance().configure(4);
    sampling::SampledRun parallel = sampling::runSampled(prog, cfg);
    pool::TaskPool::instance().configure(1);

    EXPECT_TRUE(serial.stats == parallel.stats);
    EXPECT_TRUE(serial.est == parallel.est);
    EXPECT_TRUE(
        serial.finalState.mem.sameContents(parallel.finalState.mem));
}

TEST(Sampled, ShortProgramsFallBackToExactDetailedRun)
{
    isa::Program prog = buildWorkload("pi", 2, 1000);

    cpu::CoreConfig cfg;
    cfg.predictor = "tournament";
    cpu::Core detailed(prog, cfg);
    detailed.run();

    cfg.execMode = cpu::ExecMode::Sampled;  // defaults: 1M interval
    sampling::SampledRun s = sampling::runSampled(prog, cfg);
    EXPECT_TRUE(s.est.exact);
    EXPECT_EQ(s.est.intervals, 0u);
    EXPECT_TRUE(s.stats == detailed.stats());
    EXPECT_DOUBLE_EQ(s.est.ipc, detailed.stats().ipc());
}

TEST(Sampled, RejectsInconsistentParameters)
{
    isa::Program prog = buildWorkload("pi", 1, 1000);
    cpu::CoreConfig cfg;
    cfg.execMode = cpu::ExecMode::Sampled;

    cfg.sample.interval = 0;
    EXPECT_THROW(sampling::runSampled(prog, cfg),
                 std::invalid_argument);

    cfg.sample = cpu::SampleParams{};
    cfg.sample.measure = 0;
    EXPECT_THROW(sampling::runSampled(prog, cfg),
                 std::invalid_argument);

    cfg.sample = cpu::SampleParams{};
    cfg.sample.interval = 1000;
    cfg.sample.warmup = 900;
    cfg.sample.measure = 200;  // warmup + measure > interval
    EXPECT_THROW(sampling::runSampled(prog, cfg),
                 std::invalid_argument);
}

// --- persistent checkpoint store -------------------------------------

/** Fresh per-test store directory under the gtest temp dir. */
class CheckpointStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::path(::testing::TempDir()) /
               (std::string("pbs-store-test-") + info->name());
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir() const { return dir_.string(); }

    /** The standard small configuration the store tests run. */
    static cpu::CoreConfig
    sampledConfig()
    {
        cpu::CoreConfig cfg;
        cfg.execMode = cpu::ExecMode::Sampled;
        cfg.sample.interval = 40000;
        cfg.sample.warmup = 10000;
        cfg.sample.measure = 5000;
        return cfg;
    }

    /** A store key matching sampledConfig() on pi seed 5, div 20. */
    static sampling::StoreKey
    storeKey()
    {
        const auto &b = workloads::benchmarkByName("pi");
        sampling::StoreKey key;
        key.workload = "pi";
        key.variant = "marked";
        key.scale = std::max<uint64_t>(1, b.defaultScale / 20);
        key.seed = 5;
        key.maxInstructions = cpu::CoreConfig{}.maxInstructions;
        key.interval = 40000;
        key.warmup = 10000;
        key.maxSamples = 0;
        key.salt = "test-salt/r1/s1";
        return key;
    }

    static std::string
    loadFailure(const std::string &dir, const sampling::StoreKey &key)
    {
        try {
            sampling::loadCheckpointSet(dir, key);
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "";
    }

    fs::path dir_;
};

TEST_F(CheckpointStoreTest, SaveLoadRoundTripsBitExactly)
{
    isa::Program prog = buildWorkload("pi", 5, 20);
    const cpu::CoreConfig cfg = sampledConfig();

    sampling::CheckpointSet set =
        sampling::captureCheckpoints(prog, cfg);
    ASSERT_GE(set.checkpoints.size(), 2u);

    const auto saved =
        sampling::saveCheckpointSet(dir(), storeKey(), set);
    EXPECT_EQ(saved.files, set.checkpoints.size() + 1);  // + final
    EXPECT_EQ(saved.setHash, sampling::storeSetHash(storeKey()));

    sampling::CheckpointSet loaded =
        sampling::loadCheckpointSet(dir(), storeKey());
    ASSERT_EQ(loaded.checkpoints.size(), set.checkpoints.size());
    for (size_t i = 0; i < set.checkpoints.size(); i++) {
        expectSameArch(loaded.checkpoints[i], set.checkpoints[i],
                       "checkpoint " + std::to_string(i));
    }
    expectSameArch(loaded.finalState, set.finalState, "final state");
    EXPECT_TRUE(loaded.totals == set.totals);

    // A run over the loaded set is bit-identical to a direct one.
    sampling::SampledRun direct = sampling::runSampled(prog, cfg);
    sampling::SampledRun replay =
        sampling::runSampledOnSet(prog, cfg, loaded);
    EXPECT_TRUE(direct.stats == replay.stats);
    EXPECT_TRUE(direct.est == replay.est);
    EXPECT_TRUE(
        direct.finalState.mem.sameContents(replay.finalState.mem));
}

TEST_F(CheckpointStoreTest, LoadRejectsMissingSaltAndKeyMismatches)
{
    isa::Program prog = buildWorkload("pi", 5, 20);
    sampling::CheckpointSet set =
        sampling::captureCheckpoints(prog, sampledConfig());
    sampling::saveCheckpointSet(dir(), storeKey(), set);

    // Missing set.
    EXPECT_NE(loadFailure(dir() + "-nonesuch", storeKey())
                  .find("no checkpoint set"),
              std::string::npos);

    // Code-version salt mismatch gets its own precise message.
    sampling::StoreKey other = storeKey();
    other.salt = "other-code/r1/s1";
    EXPECT_NE(loadFailure(dir(), other).find("salt mismatch"),
              std::string::npos);

    // Any other key difference: captured for a different run.
    other = storeKey();
    other.seed = 6;
    EXPECT_NE(loadFailure(dir(), other).find("different run"),
              std::string::npos);
    other = storeKey();
    other.interval = 50000;
    EXPECT_NE(loadFailure(dir(), other).find("different run"),
              std::string::npos);
}

TEST_F(CheckpointStoreTest, LoadRejectsTruncatedAndCorruptFiles)
{
    isa::Program prog = buildWorkload("pi", 5, 20);
    sampling::CheckpointSet set =
        sampling::captureCheckpoints(prog, sampledConfig());
    sampling::saveCheckpointSet(dir(), storeKey(), set);
    const fs::path victim = dir_ / "ckpt-000000.pbsckpt";
    std::vector<char> blob;
    {
        std::ifstream in(victim, std::ios::binary);
        blob.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    }

    // Truncated file: size check fires before any decoding.
    {
        std::ofstream out(victim, std::ios::binary | std::ios::trunc);
        out.write(blob.data(), std::streamsize(blob.size() - 1));
    }
    EXPECT_NE(loadFailure(dir(), storeKey()).find("truncated"),
              std::string::npos);

    // Right length, flipped byte: the content hash catches it.
    {
        auto corrupt = blob;
        corrupt[corrupt.size() / 2] ^= 0x5a;
        std::ofstream out(victim, std::ios::binary | std::ios::trunc);
        out.write(corrupt.data(), std::streamsize(corrupt.size()));
    }
    EXPECT_NE(loadFailure(dir(), storeKey()).find("corrupt"),
              std::string::npos);

    // Deleted file.
    fs::remove(victim);
    EXPECT_NE(loadFailure(dir(), storeKey()).find("missing"),
              std::string::npos);
}

TEST_F(CheckpointStoreTest, LoadRejectsArchVersionAndSchemaMismatch)
{
    isa::Program prog = buildWorkload("pi", 5, 20);
    sampling::CheckpointSet set =
        sampling::captureCheckpoints(prog, sampledConfig());
    sampling::saveCheckpointSet(dir(), storeKey(), set);
    const fs::path manifest = dir_ / sampling::kStoreManifest;
    std::string text;
    {
        std::ifstream in(manifest);
        text.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    }

    auto rewrite = [&](const std::string &from, const std::string &to) {
        std::string edited = text;
        const size_t at = edited.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        edited.replace(at, from.size(), to);
        std::ofstream out(manifest, std::ios::trunc);
        out << edited;
    };

    rewrite("\"arch_version\":1", "\"arch_version\":999");
    EXPECT_NE(loadFailure(dir(), storeKey())
                  .find("ArchState version mismatch"),
              std::string::npos);

    rewrite("pbs-ckpt-set-v1", "pbs-ckpt-set-v9");
    EXPECT_NE(loadFailure(dir(), storeKey()).find("schema"),
              std::string::npos);

    rewrite("{", "{broken");
    EXPECT_NE(loadFailure(dir(), storeKey()).find("unreadable"),
              std::string::npos);
}

TEST_F(CheckpointStoreTest, ResaveDropsUnreferencedCheckpointFiles)
{
    isa::Program prog = buildWorkload("pi", 5, 20);
    cpu::CoreConfig cfg = sampledConfig();
    sampling::CheckpointSet big =
        sampling::captureCheckpoints(prog, cfg);
    sampling::StoreKey key = storeKey();
    sampling::saveCheckpointSet(dir(), key, big);
    ASSERT_GE(big.checkpoints.size(), 3u);

    // Re-save a smaller set (capped samples) into the same directory:
    // the leftover ckpt files of the larger set must be removed.
    cfg.sample.maxSamples = 2;
    key.maxSamples = 2;
    sampling::CheckpointSet small =
        sampling::captureCheckpoints(prog, cfg);
    ASSERT_EQ(small.checkpoints.size(), 2u);
    sampling::saveCheckpointSet(dir(), key, small);

    size_t blobs = 0;
    for (const auto &e : fs::directory_iterator(dir_))
        blobs += e.path().extension() == ".pbsckpt" ? 1 : 0;
    EXPECT_EQ(blobs, small.checkpoints.size() + 1);  // + final

    sampling::CheckpointSet loaded =
        sampling::loadCheckpointSet(dir(), key);
    EXPECT_EQ(loaded.checkpoints.size(), 2u);
}

TEST(Sampled, MaxSamplesCapsTheFanOut)
{
    isa::Program prog = buildWorkload("pi", 8, 10);
    cpu::CoreConfig cfg;
    cfg.execMode = cpu::ExecMode::Sampled;
    cfg.sample.interval = 50000;
    cfg.sample.warmup = 10000;
    cfg.sample.measure = 5000;
    cfg.sample.maxSamples = 3;

    sampling::SampledRun s = sampling::runSampled(prog, cfg);
    EXPECT_FALSE(s.est.exact);
    EXPECT_EQ(s.est.intervals, 3u);
    // Totals still come from the full functional pass.
    sampling::FunctionalEngine ff(prog);
    ff.run();
    EXPECT_EQ(s.stats.instructions, ff.stats().instructions);
}

}  // namespace
