/**
 * @file
 * The work-stealing scheduler (src/util/task_pool): exactly-once
 * execution across edge shapes and nesting, fuzzed fork/join trees,
 * exception propagation out of a stolen task, clean repeated
 * shutdown, and the byte-identity contract — batch and sweep
 * artifacts identical across --jobs {1,2,8}, both policies (stealing
 * vs the pre-scheduler static reference), and seeded steal-order
 * jitter. Built with TSan in CI (the deque is fence-free seq_cst so
 * the tool can actually verify it).
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/artifact.hh"
#include "exp/engine.hh"
#include "exp/spec.hh"
#include "util/task_pool.hh"

namespace {

using namespace pbs;

/** Every test leaves the singleton back in the serial default. */
class SchedulerTest : public ::testing::Test
{
  protected:
    void SetUp() override { reset(); }
    void TearDown() override { reset(); }

    static void reset()
    {
        pool::TaskPool &p = pool::TaskPool::instance();
        p.setStealJitter(0, 0);
        p.setPolicy(pool::Policy::Steal);
        p.configure(1);
        p.resetCounters();
    }

    /** Spin until @p flag is set (bounded; fails the test on timeout). */
    static bool await(const std::atomic<bool> &flag)
    {
        for (int i = 0; i < 100000; i++) {
            if (flag.load())
                return true;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        ADD_FAILURE() << "timed out awaiting flag";
        return false;
    }
};

// --- exactly-once execution ------------------------------------------

TEST_F(SchedulerTest, RunsEveryIndexExactlyOnceAcrossShapes)
{
    pool::TaskPool &p = pool::TaskPool::instance();
    for (unsigned jobs : {1u, 2u, 8u}) {
        p.configure(jobs);
        for (size_t n : {size_t(0), size_t(1), size_t(2), size_t(7),
                         size_t(4096)}) {
            std::vector<std::atomic<int>> hits(n);
            p.parallelFor(
                n, [&](size_t i) { hits[i].fetch_add(1); }, "test");
            for (size_t i = 0; i < n; i++)
                EXPECT_EQ(hits[i].load(), 1)
                    << "jobs=" << jobs << " n=" << n << " i=" << i;
        }
    }
}

TEST_F(SchedulerTest, NestedParallelForRunsEveryLeafOnce)
{
    pool::TaskPool &p = pool::TaskPool::instance();
    p.configure(8);
    constexpr size_t kOuter = 9, kInner = 17;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    p.parallelFor(
        kOuter,
        [&](size_t o) {
            p.parallelFor(
                kInner,
                [&](size_t i) { hits[o * kInner + i].fetch_add(1); },
                "inner");
        },
        "outer");
    for (size_t i = 0; i < hits.size(); i++)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

/**
 * Fuzz: random fork/join trees (depth up to 3, random widths drawn
 * from a per-seed xorshift stream), with and without steal jitter.
 * The leaf population is computed by a serial model first; the pool
 * must hit each leaf exactly once.
 */
TEST_F(SchedulerTest, FuzzedForkJoinTreesRunEachLeafOnce)
{
    pool::TaskPool &p = pool::TaskPool::instance();
    p.configure(8);

    auto next = [](uint64_t &s) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    };

    for (uint64_t seed = 1; seed <= 6; seed++) {
        p.setStealJitter(seed, seed % 2 ? 50 : 0);

        // widths[d] at depth d; leaves live at depth 2.
        uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
        const size_t w0 = 1 + next(s) % 6;
        const size_t w1 = 1 + next(s) % 5;
        const size_t w2 = 1 + next(s) % 7;

        std::vector<std::atomic<int>> hits(w0 * w1 * w2);
        p.parallelFor(
            w0,
            [&](size_t a) {
                p.parallelFor(
                    w1,
                    [&](size_t b) {
                        p.parallelFor(
                            w2,
                            [&](size_t c) {
                                hits[(a * w1 + b) * w2 + c]
                                    .fetch_add(1);
                            },
                            "d2");
                    },
                    "d1");
            },
            "d0");
        for (size_t i = 0; i < hits.size(); i++)
            EXPECT_EQ(hits[i].load(), 1)
                << "seed=" << seed << " leaf=" << i;
        p.setStealJitter(0, 0);
    }
}

// --- exception propagation -------------------------------------------

TEST_F(SchedulerTest, ExceptionFromStolenTaskPropagatesToCaller)
{
    pool::TaskPool &p = pool::TaskPool::instance();
    p.configure(2);  // caller + exactly one worker
    p.resetCounters();

    // The caller blocks in leaf 0, so leaf 1 can only run on the
    // worker — a guaranteed steal — and its exception must surface
    // from parallelFor on the calling thread.
    std::atomic<bool> started0{false}, started1{false};
    std::thread::id tid0, tid1;
    EXPECT_THROW(
        p.parallelFor(
            2,
            [&](size_t i) {
                if (i == 0) {
                    tid0 = std::this_thread::get_id();
                    started0.store(true);
                    await(started1);
                } else {
                    await(started0);
                    tid1 = std::this_thread::get_id();
                    started1.store(true);
                    throw std::runtime_error("boom");
                }
            },
            "test"),
        std::runtime_error);

    EXPECT_NE(tid0, tid1) << "leaf 1 must have been stolen";
    EXPECT_GT(p.counters().steals, 0u);
}

TEST_F(SchedulerTest, ExceptionPropagatesInSerialAndStaticModes)
{
    pool::TaskPool &p = pool::TaskPool::instance();

    p.configure(1);
    EXPECT_THROW(p.parallelFor(
                     3,
                     [](size_t i) {
                         if (i == 2)
                             throw std::invalid_argument("x");
                     },
                     "test"),
                 std::invalid_argument);

    p.setPolicy(pool::Policy::Static);
    p.configure(4);
    EXPECT_THROW(p.parallelFor(
                     8,
                     [](size_t i) {
                         if (i == 5)
                             throw std::invalid_argument("x");
                     },
                     "test"),
                 std::invalid_argument);
}

// --- shutdown / reconfigure ------------------------------------------

TEST_F(SchedulerTest, RepeatedReconfigureAndShutdownStaysClean)
{
    pool::TaskPool &p = pool::TaskPool::instance();
    for (int round = 0; round < 10; round++) {
        p.configure(1 + round % 5);
        std::atomic<int> sum{0};
        p.parallelFor(
            17, [&](size_t) { sum.fetch_add(1); }, "test");
        EXPECT_EQ(sum.load(), 17);
        p.shutdown();
    }
    // Shutdown leaves the pool usable: configure respawns workers.
    p.configure(4);
    std::atomic<int> sum{0};
    p.parallelFor(
        100, [&](size_t) { sum.fetch_add(1); }, "test");
    EXPECT_EQ(sum.load(), 100);
}

// --- byte-identity of artifacts --------------------------------------

TEST_F(SchedulerTest, SeedSweepArtifactByteIdenticalAcrossJobsAndPolicies)
{
    // A sampled multi-seed sweep: seeds fan out on the pool and each
    // seed's intervals fan out beneath them (the nested case the old
    // static pool could not schedule).
    auto parsed = exp::parseSpecText("workload = pi\n"
                                     "mode = sampled\n"
                                     "div = 20\n"
                                     "seeds = 2\n"
                                     "sample-interval = 40000\n"
                                     "sample-warmup = 10000\n"
                                     "sample-measure = 5000\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    pool::TaskPool &p = pool::TaskPool::instance();

    auto render = [&](pool::Policy policy, unsigned jobs) {
        p.setPolicy(policy);
        exp::EngineConfig cfg;  // the engine sizes the pool from jobs
        cfg.jobs = jobs;
        exp::Engine engine(cfg);
        engine.runAll(grid.points);
        return exp::sweepJson(grid.points, engine);
    };

    const std::string reference = render(pool::Policy::Static, 1);
    for (unsigned jobs : {1u, 2u, 8u}) {
        EXPECT_EQ(render(pool::Policy::Static, jobs), reference)
            << "static jobs=" << jobs;
        EXPECT_EQ(render(pool::Policy::Steal, jobs), reference)
            << "steal jobs=" << jobs;
    }
}

TEST_F(SchedulerTest, SweepArtifactByteIdenticalUnderStealJitter)
{
    // A sampled predictor x pbs sweep: point tasks outside, interval
    // tasks nested inside, no cache (every run simulates).
    auto parsed = exp::parseSpecText(
        "workload = pi\n"
        "predictor = tournament, tage-sc-l\n"
        "pbs = off, on\n"
        "mode = sampled\n"
        "sample-grid = 40000/10000/5000\n"
        "div = 20\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;

    pool::TaskPool &p = pool::TaskPool::instance();
    auto render = [&](pool::Policy policy, unsigned jobs,
                      uint64_t jitterSeed) {
        p.setPolicy(policy);
        p.setStealJitter(jitterSeed, jitterSeed ? 100 : 0);
        exp::EngineConfig cfg;
        cfg.jobs = jobs;
        exp::Engine engine(cfg);
        engine.runAll(grid.points);
        std::string doc = exp::sweepJson(grid.points, engine, "") +
                          exp::sweepCsv(grid.points, engine);
        p.setStealJitter(0, 0);
        return doc;
    };

    const std::string reference =
        render(pool::Policy::Steal, 1, 0);
    EXPECT_EQ(render(pool::Policy::Static, 8, 0), reference)
        << "old static pool must reproduce the stealing reference";
    EXPECT_EQ(render(pool::Policy::Steal, 2, 0), reference);
    EXPECT_EQ(render(pool::Policy::Steal, 8, 0), reference);
    // Seeded steal-order perturbation must not change a byte.
    EXPECT_EQ(render(pool::Policy::Steal, 8, 7), reference);
    EXPECT_EQ(render(pool::Policy::Steal, 8, 1234567), reference);
}

}  // namespace
