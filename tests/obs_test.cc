/**
 * @file
 * Tests for the observability layer (src/obs): trace JSON
 * well-formedness and schema, histogram log2 bucket edges, metrics
 * snapshot determinism of the non-timing sections, the serialized log
 * sink's no-tearing guarantee, and the subsystem's hard invariant —
 * sweep artifacts are byte-identical with tracing and metrics enabled
 * vs. disabled.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/artifact.hh"
#include "exp/engine.hh"
#include "exp/spec.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/sink.hh"
#include "obs/telemetry.hh"
#include "prof/prof.hh"
#include "util/hash.hh"
#include "util/json.hh"
#include "util/task_pool.hh"

namespace {

using namespace pbs;

/** Every test starts and ends with the collectors off and empty. */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::resetForTest(); }
    void TearDown() override { obs::resetForTest(); }

    static void enableAll()
    {
        obs::Options o;
        o.trace = true;
        o.metrics = true;
        obs::enable(o);
    }
};

util::JsonValue
parseOrDie(const std::string &text)
{
    util::JsonValue v;
    std::string err;
    EXPECT_TRUE(util::parseJson(text, v, err)) << err;
    return v;
}

// --- enable gate -----------------------------------------------------

TEST_F(ObsTest, DisabledByDefaultAndRecordsNothing)
{
    EXPECT_FALSE(obs::enabled());
    {
        obs::Span span("measure");
        obs::Span nested("warmup", "inner");
    }
    obs::counterAdd("x", 5);
    obs::histogramAdd("h", 3);
    EXPECT_EQ(obs::traceEventCount(), 0u);
    EXPECT_EQ(obs::newTrack("ignored"), 0u);

    const util::JsonValue v = parseOrDie(obs::metricsJson());
    EXPECT_EQ(v.find("counters")->members.size(), 0u);
    EXPECT_EQ(v.find("histograms")->members.size(), 0u);
}

// --- trace schema ----------------------------------------------------

TEST_F(ObsTest, TraceJsonIsWellFormedChromeTraceEvents)
{
    enableAll();
    {
        obs::Span outer("sweep");
        obs::Span inner("point", std::string("pi tage-sc-l"));
    }
    std::thread worker([] {
        obs::newTrack("sweep worker 0");
        obs::Span span("ff", "fast-forward");
    });
    worker.join();

    const util::JsonValue v = parseOrDie(obs::traceJson());
    EXPECT_EQ(v.find("schema")->asString(), "pbs-trace-v1");
    EXPECT_EQ(v.find("displayTimeUnit")->asString(), "ms");

    const util::JsonValue *events = v.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, util::JsonValue::Type::Array);

    size_t complete = 0, metadata = 0;
    std::vector<uint64_t> tids;
    for (const auto &e : events->items) {
        const std::string ph = e.find("ph")->asString();
        ASSERT_TRUE(ph == "X" || ph == "M") << ph;
        EXPECT_EQ(e.find("pid")->asU64(), 1u);
        ASSERT_NE(e.find("tid"), nullptr);
        ASSERT_NE(e.find("name"), nullptr);
        if (ph == "X") {
            complete++;
            tids.push_back(e.find("tid")->asU64());
            EXPECT_GE(e.find("dur")->asDouble(), 0.0);
            EXPECT_GE(e.find("ts")->asDouble(), 0.0);
            ASSERT_NE(e.find("cat"), nullptr);
        } else {
            metadata++;
        }
    }
    // Three spans: sweep, point, and the worker's ff.
    EXPECT_EQ(complete, 3u);
    // process_name + thread_name for main and the worker track.
    EXPECT_GE(metadata, 3u);
    // The worker's span is on a different track than main's.
    EXPECT_TRUE(std::find(tids.begin(), tids.end(), 0u) != tids.end());
    EXPECT_TRUE(std::find_if(tids.begin(), tids.end(), [](uint64_t t) {
                    return t != 0;
                }) != tids.end());
}

TEST_F(ObsTest, TrackStatsAccumulateBusyAndExtent)
{
    enableAll();
    std::thread worker([] {
        obs::newTrack("worker");
        obs::Span a("interval");
        obs::Span nested("measure");  // nested: no extra busy time
    });
    worker.join();

    const auto tracks = obs::trackStats();
    ASSERT_EQ(tracks.size(), 2u);  // main + worker
    const auto &w = tracks.rbegin()->second;
    EXPECT_EQ(w.name, "worker");
    EXPECT_GT(w.busyNs, 0u);
    EXPECT_GE(w.wallNs(), w.busyNs);
}

// --- histograms ------------------------------------------------------

TEST_F(ObsTest, HistogramBucketsAreLog2)
{
    EXPECT_EQ(obs::histogramBucket(0), 0u);
    EXPECT_EQ(obs::histogramBucket(1), 1u);
    EXPECT_EQ(obs::histogramBucket(2), 2u);
    EXPECT_EQ(obs::histogramBucket(3), 2u);
    EXPECT_EQ(obs::histogramBucket(4), 3u);
    EXPECT_EQ(obs::histogramBucket(7), 3u);
    EXPECT_EQ(obs::histogramBucket(8), 4u);
    EXPECT_EQ(obs::histogramBucket(1023), 10u);
    EXPECT_EQ(obs::histogramBucket(1024), 11u);
    EXPECT_EQ(obs::histogramBucket(~uint64_t(0)), 64u);
}

TEST_F(ObsTest, HistogramSnapshotHasExactEdgesAndCounts)
{
    obs::Options o;
    o.metrics = true;
    obs::enable(o);

    // Values 0, 1, 2, 3, 1000: buckets 0, 1, 2 (x2), 10.
    for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 1000ull})
        obs::histogramAdd("h", v);

    const util::JsonValue v = parseOrDie(obs::metricsJson());
    const util::JsonValue *h = v.find("histograms")->find("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->find("count")->asU64(), 5u);
    EXPECT_EQ(h->find("sum")->asU64(), 1006u);

    const auto &buckets = h->find("buckets")->items;
    ASSERT_EQ(buckets.size(), 4u);  // empty buckets are omitted
    uint64_t total = 0;
    for (const auto &b : buckets) {
        total += b.find("n")->asU64();
        EXPECT_GE(b.find("hi")->asU64(), b.find("lo")->asU64());
    }
    EXPECT_EQ(total, 5u);

    // Bucket i >= 1 spans [2^(i-1), 2^i - 1]; bucket 0 is {0}.
    EXPECT_EQ(buckets[0].find("lo")->asU64(), 0u);
    EXPECT_EQ(buckets[0].find("hi")->asU64(), 0u);
    EXPECT_EQ(buckets[1].find("lo")->asU64(), 1u);
    EXPECT_EQ(buckets[1].find("hi")->asU64(), 1u);
    EXPECT_EQ(buckets[2].find("lo")->asU64(), 2u);
    EXPECT_EQ(buckets[2].find("hi")->asU64(), 3u);
    EXPECT_EQ(buckets[2].find("n")->asU64(), 2u);
    EXPECT_EQ(buckets[3].find("lo")->asU64(), 512u);
    EXPECT_EQ(buckets[3].find("hi")->asU64(), 1023u);
}

// --- metrics snapshot ------------------------------------------------

TEST_F(ObsTest, DeterministicSectionsAreByteIdenticalAcrossRuns)
{
    auto runOnce = [] {
        obs::resetForTest();
        obs::Options o;
        o.metrics = true;
        o.trace = true;
        obs::enable(o);
        // Same simulation-derived values, different wall-time noise.
        obs::counterAdd("insts.measure", 123456);
        obs::counterAdd("exp.computed", 7);
        obs::gaugeSet("jobs", 4.0);
        {
            obs::Span span("measure");
        }
        obs::timingAdd("phase_ns.noise", 1);  // volatile section
        return parseOrDie(obs::metricsJson());
    };

    const util::JsonValue a = runOnce();
    const util::JsonValue b = runOnce();

    EXPECT_EQ(a.find("schema")->asString(), "pbs-metrics-v1");
    EXPECT_EQ(util::rewriteJson(*a.find("counters")),
              util::rewriteJson(*b.find("counters")));
    EXPECT_EQ(util::rewriteJson(*a.find("gauges")),
              util::rewriteJson(*b.find("gauges")));
}

TEST_F(ObsTest, DerivedMipsPairsInstsWithPhaseTime)
{
    obs::Options o;
    o.metrics = true;
    obs::enable(o);
    obs::counterAdd("insts.measure", 5'000'000);
    obs::timingAdd("phase_ns.measure", 1'000'000'000);  // 1 s

    const util::JsonValue v = parseOrDie(obs::metricsJson());
    const util::JsonValue *mips = v.find("derived")->find("mips");
    ASSERT_NE(mips, nullptr);
    const util::JsonValue *m = mips->find("measure");
    ASSERT_NE(m, nullptr);
    EXPECT_NEAR(m->asDouble(), 5.0, 1e-9);  // 5M insts / 1s = 5 MIPS
}

// --- serialized sink -------------------------------------------------

TEST_F(ObsTest, SinkNeverTearsLinesUnderContention)
{
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    obs::setSinkStream(tmp);

    constexpr int kThreads = 8;
    constexpr int kLines = 200;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; t++) {
        pool.emplace_back([t] {
            for (int i = 0; i < kLines; i++)
                obs::logLinef("thread-%d line %d end-%d", t, i, t);
        });
    }
    for (auto &th : pool)
        th.join();
    obs::setSinkStream(nullptr);

    std::rewind(tmp);
    char buf[256];
    size_t lines = 0;
    while (std::fgets(buf, sizeof buf, tmp)) {
        lines++;
        int t1 = -1, i = -1, t2 = -2;
        ASSERT_EQ(std::sscanf(buf, "thread-%d line %d end-%d",
                              &t1, &i, &t2), 3)
            << "torn line: " << buf;
        EXPECT_EQ(t1, t2) << "interleaved line: " << buf;
    }
    EXPECT_EQ(lines, size_t(kThreads) * kLines);
    std::fclose(tmp);
}

// --- work-stealing scheduler integration -----------------------------

TEST_F(ObsTest, StolenSpanLandsOnThiefTrackAndBusyStaysUnderWall)
{
    enableAll();
    pool::TaskPool &p = pool::TaskPool::instance();
    p.configure(2);  // caller + one worker

    // Leaf 0 blocks the caller until leaf 1 has started, so leaf 1
    // can only execute as a steal on the worker thread.
    std::atomic<bool> started0{false}, started1{false};
    auto await = [](const std::atomic<bool> &f) {
        for (int i = 0; i < 100000 && !f.load(); i++)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
    };
    p.parallelFor(
        2,
        [&](size_t i) {
            if (i == 0) {
                started0.store(true);
                await(started1);
            } else {
                await(started0);
                started1.store(true);
            }
        },
        "obs-steal");
    p.configure(1);

    // The root "task" span sits on the caller's track 0; the stolen
    // range's "steal" span sits on the thief's own named track.
    const util::JsonValue v = parseOrDie(obs::traceJson());
    bool taskOnMain = false, stealOnWorker = false;
    for (const auto &e : v.find("traceEvents")->items) {
        if (e.find("ph")->asString() != "X")
            continue;
        const std::string cat = e.find("cat")->asString();
        const uint64_t tid = e.find("tid")->asU64();
        if (cat == "task" && tid == 0)
            taskOnMain = true;
        if (cat == "steal" && tid != 0)
            stealOnWorker = true;
    }
    EXPECT_TRUE(taskOnMain);
    EXPECT_TRUE(stealOnWorker);

    // Depth-0 busy accounting holds per track under stealing.
    for (const auto &[tid, t] : obs::trackStats())
        EXPECT_LE(t.busyNs, t.wallNs()) << t.name;
}

TEST_F(ObsTest, PoolStatsGoToVolatileSectionNotCounters)
{
    obs::Options o;
    o.metrics = true;
    obs::enable(o);

    pool::TaskPool &p = pool::TaskPool::instance();
    p.configure(2);
    p.resetCounters();
    std::atomic<int> sum{0};
    p.parallelFor(
        64, [&](size_t) { sum.fetch_add(1); }, "obs-pool");
    p.configure(1);
    pool::recordPoolMetrics();

    const util::JsonValue v = parseOrDie(obs::metricsJson());
    const util::JsonValue *pool = v.find("pool");
    ASSERT_NE(pool, nullptr);
    EXPECT_GE(pool->find("regions")->asU64(), 1u);
    EXPECT_GE(pool->find("tasks")->asU64(), 64u);
    // Steal totals are schedule-dependent and must never leak into
    // the deterministic counters section.
    EXPECT_EQ(v.find("counters")->find("pool.steals"), nullptr);
    EXPECT_EQ(v.find("counters")->members.size(), 0u);
}

// --- the hard invariant: artifacts unchanged under instrumentation ---

/** The points of @p specText (which must expand). */
std::vector<exp::ExpPoint>
gridOf(const std::string &specText)
{
    auto parsed = exp::parseSpecText(specText);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    auto grid = exp::expandSpec(parsed.spec);
    EXPECT_TRUE(grid.ok) << grid.error;
    return grid.points;
}

/** A three-seed detailed PBS sweep of pi at a small scale. */
std::vector<exp::ExpPoint>
seedSweep()
{
    return gridOf("workload = pi\n"
                  "pbs = on\n"
                  "scale = 2000\n"
                  "seeds = 3\n");
}

/** The pbs-sweep-v1 artifact of @p points, measured on 2 workers. */
std::string
sweepArtifact(const std::vector<exp::ExpPoint> &points)
{
    exp::EngineConfig cfg;  // in-memory memo only
    cfg.jobs = 2;
    exp::Engine engine(cfg);
    engine.runAll(points);
    return exp::sweepJson(points, engine);
}

TEST_F(ObsTest, SeedSweepArtifactByteIdenticalWithObsEnabled)
{
    const auto points = seedSweep();
    const std::string off = sweepArtifact(points);

    enableAll();
    const std::string on = sweepArtifact(points);

    EXPECT_GT(obs::traceEventCount(), 0u);  // instrumentation fired
    EXPECT_EQ(off, on);
}

TEST_F(ObsTest, SweepArtifactByteIdenticalWithObsEnabled)
{
    exp::SweepSpec spec;
    ASSERT_EQ(exp::applySpecKey(spec, "workload", "pi"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "predictor",
                                "tournament,tage-sc-l"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "pbs", "off,on"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "scale", "2000"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "mode", "mpki"), "");
    auto grid = exp::expandSpec(spec);
    ASSERT_TRUE(grid.ok) << grid.error;

    auto sweepOnce = [&] {
        exp::EngineConfig cfg;  // in-memory memo only, 2 workers
        cfg.jobs = 2;
        exp::Engine engine(cfg);
        engine.runAll(grid.points);
        return exp::sweepJson(grid.points, engine, exp::specJson(spec));
    };

    const std::string off = sweepOnce();
    enableAll();
    const std::string on = sweepOnce();

    EXPECT_GT(obs::traceEventCount(), 0u);
    EXPECT_EQ(off, on);
}

TEST_F(ObsTest, SampledRunByteIdenticalWithObsEnabled)
{
    const auto points = gridOf("workload = pi\n"
                               "pbs = on\n"
                               "mode = sampled\n"
                               "div = 20\n"
                               "sample-interval = 40000\n"
                               "sample-warmup = 10000\n"
                               "sample-measure = 5000\n");
    const std::string off = sweepArtifact(points);

    enableAll();
    const std::string on = sweepArtifact(points);

    EXPECT_GT(obs::traceEventCount(), 0u);
    EXPECT_EQ(off, on);
}

// --- process footprint (volatile section) ----------------------------

TEST_F(ObsTest, ProcessFootprintIsVolatileNotDeterministic)
{
    obs::Options o;
    o.metrics = true;
    obs::enable(o);

    const util::JsonValue v = parseOrDie(obs::metricsJson());
    const util::JsonValue *p = v.find("process");
    ASSERT_NE(p, nullptr);
    // A live process always has a resident set and a max RSS.
    EXPECT_GT(p->find("peak_rss_kb")->asU64(), 0u);
    EXPECT_GT(p->find("rss_kb")->asU64(), 0u);
    ASSERT_NE(p->find("wall_ms"), nullptr);
    // Wall-clock data must never leak into the deterministic sections.
    EXPECT_EQ(v.find("counters")->members.size(), 0u);
    EXPECT_EQ(v.find("gauges")->members.size(), 0u);
}

// --- sink timestamps -------------------------------------------------

TEST_F(ObsTest, SinkTimestampPrefixHasIsoFormatAndSeverity)
{
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    obs::setSinkStream(tmp);
    obs::setSinkTimestamps(true);
    obs::logLine("plain info line");
    obs::logWarnf("warn %d", 7);
    obs::logText("raw text line\n");  // logText is never prefixed
    obs::setSinkTimestamps(false);
    obs::setSinkStream(nullptr);

    std::rewind(tmp);
    char buf[256];
    ASSERT_NE(std::fgets(buf, sizeof buf, tmp), nullptr);
    int y, mo, d, h, mi, s, ms;
    char sev;
    char rest[128] = {0};
    ASSERT_EQ(std::sscanf(buf, "%4d-%2d-%2dT%2d:%2d:%2d.%3dZ %c %127[^\n]",
                          &y, &mo, &d, &h, &mi, &s, &ms, &sev, rest),
              9)
        << "bad prefix: " << buf;
    EXPECT_GE(y, 2026);
    EXPECT_EQ(sev, 'I');
    EXPECT_STREQ(rest, "plain info line");

    ASSERT_NE(std::fgets(buf, sizeof buf, tmp), nullptr);
    ASSERT_EQ(std::sscanf(buf, "%4d-%2d-%2dT%2d:%2d:%2d.%3dZ %c %127[^\n]",
                          &y, &mo, &d, &h, &mi, &s, &ms, &sev, rest),
              9);
    EXPECT_EQ(sev, 'W');
    EXPECT_STREQ(rest, "warn 7");

    ASSERT_NE(std::fgets(buf, sizeof buf, tmp), nullptr);
    EXPECT_STREQ(buf, "raw text line\n");
    std::fclose(tmp);
}

// --- run manifests ---------------------------------------------------

TEST_F(ObsTest, ManifestHashesReconcileWithArtifactBytes)
{
    const char *argvIn[] = {"./obs_test", "--scale", "2000"};
    obs::manifestBegin("obs_test", 3, argvIn);

    // The gate: nothing is recorded before manifestEnable().
    obs::manifestAddArtifact("ignored.json", "{}", "pbs-sweep-v1");
    EXPECT_EQ(obs::manifestArtifactCount(), 0u);

    obs::manifestEnable();
    ASSERT_TRUE(obs::manifestEnabled());
    obs::manifestSetSalt("test-salt");
    obs::manifestSetJobs(2);

    const std::string bytesA = "{\"schema\":\"pbs-sweep-v1\"}\n";
    const std::string bytesB = "seed,ipc\n1,0.5\n";
    obs::manifestAddArtifact("out/sweep.json", bytesA, "pbs-sweep-v1");
    obs::manifestAddArtifact("out/table.csv", bytesB, "");
    EXPECT_EQ(obs::manifestArtifactCount(), 2u);

    const util::JsonValue v = parseOrDie(obs::manifestJson());
    EXPECT_EQ(v.find("schema")->asString(), "pbs-run-v1");
    EXPECT_EQ(v.find("binary")->asString(), "obs_test");
    EXPECT_EQ(v.find("code_salt")->asString(), "test-salt");
    EXPECT_EQ(v.find("jobs")->asU64(), 2u);
    ASSERT_NE(v.find("wall_ms"), nullptr);

    // argv[0] is skipped; the rest is recorded verbatim.
    const auto &argv = v.find("argv")->items;
    ASSERT_EQ(argv.size(), 2u);
    EXPECT_EQ(argv[0].asString(), "--scale");
    EXPECT_EQ(argv[1].asString(), "2000");

    // Every artifact entry's hash must match an independent FNV-128
    // of the exact bytes the writer produced.
    const auto &arts = v.find("artifacts")->items;
    ASSERT_EQ(arts.size(), 2u);
    EXPECT_EQ(arts[0].find("path")->asString(), "out/sweep.json");
    EXPECT_EQ(arts[0].find("schema")->asString(), "pbs-sweep-v1");
    EXPECT_EQ(arts[0].find("bytes")->asU64(), bytesA.size());
    EXPECT_EQ(arts[0].find("fnv128")->asString(), util::fnv1a128Hex(bytesA));
    EXPECT_EQ(arts[1].find("fnv128")->asString(), util::fnv1a128Hex(bytesB));
}

TEST_F(ObsTest, WrittenManifestDoesNotListItself)
{
    const char *argvIn[] = {"./obs_test"};
    obs::manifestBegin("obs_test", 1, argvIn);
    obs::manifestEnable();
    obs::manifestAddArtifact("a.json", "{}", "pbs-sweep-v1");

    const std::string path = ::testing::TempDir() + "obs_test_manifest.json";
    ASSERT_TRUE(obs::writeManifest(path));

    std::string text;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    const util::JsonValue v = parseOrDie(text);
    EXPECT_EQ(v.find("schema")->asString(), "pbs-run-v1");
    for (const auto &a : v.find("artifacts")->items)
        EXPECT_NE(a.find("path")->asString(), path);
}

// --- periodic telemetry ----------------------------------------------

TEST_F(ObsTest, TelemetrySamplerKeepsArtifactsByteIdentical)
{
    const auto points = seedSweep();
    const std::string off = sweepArtifact(points);

    const std::string path = ::testing::TempDir() + "obs_test_telem.jsonl";
    ASSERT_TRUE(obs::telemetryStart(path, 2));
    ASSERT_TRUE(obs::telemetryActive());
    const std::string on = sweepArtifact(points);
    obs::telemetryStop();
    EXPECT_FALSE(obs::telemetryActive());

    // The sampler only reads obs state: artifact bytes are unchanged.
    EXPECT_EQ(off, on);
    // At least the final flush sample landed.
    EXPECT_GE(obs::telemetrySampleCount(), 1u);

    // The file is header + one JSON object per line, t_ms monotone.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char line[1 << 16];
    ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
    const util::JsonValue header = parseOrDie(line);
    EXPECT_EQ(header.find("schema")->asString(), "pbs-timeseries-v1");
    EXPECT_EQ(header.find("interval_ms")->asU64(), 2u);
    double lastT = -1;
    size_t samples = 0;
    while (std::fgets(line, sizeof line, f)) {
        const util::JsonValue s = parseOrDie(line);
        const double t = s.find("t_ms")->asDouble();
        EXPECT_GE(t, lastT);
        lastT = t;
        EXPECT_GT(s.find("rss_kb")->asU64(), 0u);
        ASSERT_NE(s.find("counters"), nullptr);
        samples++;
    }
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(samples, obs::telemetrySampleCount());

    // A second sampler while one is active must be refused.
    ASSERT_TRUE(obs::telemetryStart(path, 50));
    EXPECT_FALSE(obs::telemetryStart(path, 50));
    obs::telemetryStop();
    std::remove(path.c_str());
}

// --- identical-spec runs diff clean ----------------------------------

TEST_F(ObsTest, IdenticalSpecRunsShowZeroDeterministicDeltas)
{
    const auto points = seedSweep();
    auto snapshotOnce = [&] {
        obs::resetForTest();
        obs::Options o;
        o.metrics = true;
        obs::enable(o);
        (void)sweepArtifact(points);
        return obs::metricsJson();
    };

    const std::string a = snapshotOnce();
    const std::string b = snapshotOnce();

    // This is exactly what `pbs_prof diff` runs on two snapshots: the
    // deterministic sections agree (same work), only timings may move.
    prof::MetricsDiff d = prof::diffMetrics(a, b);
    EXPECT_TRUE(d.deterministic.empty())
        << "first drift: "
        << (d.deterministic.empty() ? "" : d.deterministic.front().name);
    EXPECT_EQ(prof::regressionCount(d, 1e9), 0u);
}

// --- engine heartbeat ------------------------------------------------

TEST_F(ObsTest, EngineHeartbeatReportsProgressAndCompletion)
{
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    obs::setSinkStream(tmp);

    exp::SweepSpec spec;
    ASSERT_EQ(exp::applySpecKey(spec, "workload", "pi"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "predictor",
                                "tournament,tage-sc-l"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "scale", "2000"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "mode", "mpki"), "");
    auto grid = exp::expandSpec(spec);
    ASSERT_TRUE(grid.ok) << grid.error;

    exp::EngineConfig cfg;
    cfg.jobs = 1;
    cfg.heartbeat = true;
    exp::Engine engine(cfg);
    engine.runAll(grid.points);
    obs::setSinkStream(nullptr);

    std::rewind(tmp);
    char buf[256];
    bool sawStart = false, sawDone = false;
    while (std::fgets(buf, sizeof buf, tmp)) {
        std::string line(buf);
        if (line.find("pbs_exp: progress 0/2 points") != std::string::npos)
            sawStart = true;
        if (line.find("progress 2/2 points, done in") != std::string::npos)
            sawDone = true;
    }
    std::fclose(tmp);
    EXPECT_TRUE(sawStart);  // armHeartbeat announces the workload size
    EXPECT_TRUE(sawDone);   // the final point always reports
}

}  // namespace
