/**
 * @file
 * Tests for the experiment engine (src/exp): canonical JSON round
 * trips, point hashing, spec parsing/expansion, the content-addressed
 * result cache, and the determinism contract — the same sweep produces
 * byte-identical artifacts for --jobs 1, --jobs 4, and a warm cache,
 * and a warm-cache rerun performs zero simulation work — plus the timed
 * run (exp::timePoint) and the pbs_bench grid (src/bench) built on it.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include <gtest/gtest.h>

#include "bench/bench.hh"
#include "bpred/factory.hh"
#include "exp/artifact.hh"
#include "exp/cache.hh"
#include "exp/engine.hh"
#include "util/json.hh"
#include "exp/pareto.hh"
#include "exp/reports.hh"
#include "exp/spec.hh"
#include "sampling/checkpoint.hh"
#include "util/hash.hh"
#include "util/task_pool.hh"

namespace fs = std::filesystem;

namespace {

using namespace pbs;

/** Fresh per-test cache directory under the gtest temp dir. */
class ExpCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::path(::testing::TempDir()) /
               (std::string("pbs-exp-test-") + info->name());
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string cacheDir() const { return dir_.string(); }

    fs::path dir_;
};

exp::ExpPoint
tinyPoint(uint64_t seed = 12345, bool pbs = true)
{
    exp::ExpPoint pt;
    pt.workload = "pi";
    pt.predictor = "tage-sc-l";
    pt.functional = true;
    pt.pbs = pbs;
    pt.scale = 2000;
    pt.seed = seed;
    return pt;
}

// --- canonical JSON --------------------------------------------------

TEST(ExpJson, CanonicalDoubleRoundTrips)
{
    const double values[] = {0.0,     1.0,     -1.0,   0.5,
                             0.1,     1.0 / 3, 1e300,  -1e-300,
                             3.14159, 2e53,    123456.75};
    for (double v : values) {
        const std::string s = util::canonicalDouble(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
    EXPECT_EQ(util::canonicalDouble(2.0), "2");
    EXPECT_EQ(util::canonicalDouble(-0.0), "-0");
    EXPECT_EQ(util::canonicalDouble(0.5), "0.5");
}

TEST(ExpJson, WriterParserRoundTrip)
{
    util::JsonWriter w;
    w.beginObject();
    w.key("u64").value(uint64_t(18446744073709551615ull));
    w.key("str").value(std::string("a\"b\\c\nd\te"));
    w.key("arr").beginArray().value(1).value(true).null().endArray();
    w.key("nested").beginObject().key("x").value(0.25).endObject();
    w.endObject();

    util::JsonValue v;
    std::string err;
    ASSERT_TRUE(util::parseJson(w.str(), v, err)) << err;
    EXPECT_EQ(v.find("u64")->asU64(), 18446744073709551615ull);
    EXPECT_EQ(v.find("str")->asString(), "a\"b\\c\nd\te");
    ASSERT_EQ(v.find("arr")->items.size(), 3u);
    EXPECT_TRUE(v.find("arr")->items[2].isNull());
    EXPECT_EQ(v.find("nested")->find("x")->asDouble(), 0.25);
}

TEST(ExpJson, RejectsMalformedInput)
{
    util::JsonValue v;
    std::string err;
    EXPECT_FALSE(util::parseJson("{", v, err));
    EXPECT_FALSE(util::parseJson("{\"a\":}", v, err));
    EXPECT_FALSE(util::parseJson("[1,2", v, err));
    EXPECT_FALSE(util::parseJson("12 34", v, err));
    EXPECT_TRUE(util::parseJson("  [1, 2]  ", v, err)) << err;
}

// --- points and hashing ----------------------------------------------

TEST(ExpPoint, JsonRoundTripsAndHashesDiscriminate)
{
    exp::ExpPoint pt = tinyPoint(7);
    pt.variant = "predicated";
    pt.numBranches = 8;

    util::JsonValue v;
    std::string err;
    ASSERT_TRUE(util::parseJson(exp::pointJson(pt), v, err)) << err;
    exp::ExpPoint back;
    ASSERT_TRUE(exp::readPoint(v, back));
    EXPECT_EQ(back, pt);

    // The cache key is stable and sensitive to every axis.
    EXPECT_EQ(exp::cacheKey(pt), exp::cacheKey(pt));
    exp::ExpPoint other = pt;
    other.seed++;
    EXPECT_NE(exp::cacheKey(pt), exp::cacheKey(other));
    other = pt;
    other.pbs = !other.pbs;
    EXPECT_NE(exp::cacheKey(pt), exp::cacheKey(other));
    other = pt;
    other.inFlightLimit = 2;
    EXPECT_NE(exp::cacheKey(pt), exp::cacheKey(other));
}

// --- sweep specs -----------------------------------------------------

TEST(ExpSpec, ParsesKeyValueTextAndExpands)
{
    auto parsed = exp::parseSpecText(
        "# comment\n"
        "workload  = pi, dop\n"
        "predictor = tournament, tage_scl\n"
        "pbs       = off, on\n"
        "mode      = mpki\n"
        "scale     = 1000\n"
        "seeds     = 2\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;

    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    // 2 workloads x 2 predictors x 2 pbs x 1 scale x 2 seeds
    ASSERT_EQ(grid.points.size(), 16u);
    EXPECT_EQ(grid.points[0].workload, "pi");
    EXPECT_EQ(grid.points[0].predictor, "tournament");  // canonicalized
    EXPECT_EQ(grid.points[1].seed, 12346u);             // seed innermost
    EXPECT_TRUE(grid.points.back().pbs);
    EXPECT_EQ(grid.points.back().workload, "dop");
    for (const auto &pt : grid.points) {
        EXPECT_TRUE(pt.functional);       // mpki = SimMode::Functional
        EXPECT_EQ(pt.mode, "detailed");
        EXPECT_EQ(pt.scale, 1000u);
    }
}

TEST(ExpSpec, ExecutionModesExpandAndKeySeparately)
{
    auto parsed = exp::parseSpecText(
        "workload  = pi\n"
        "mode      = detailed, timing, mpki, functional, sampled\n"
        "sample-interval = 50000\n"
        "sample-warmup   = 5000\n"
        "sample-measure  = 2000\n"
        "scale     = 1000\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;

    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    ASSERT_EQ(grid.points.size(), 5u);
    EXPECT_EQ(grid.points[0].mode, "detailed");
    EXPECT_EQ(grid.points[1].mode, "detailed");  // timing alias
    EXPECT_EQ(grid.points[2].mode, "detailed");  // mpki fidelity
    EXPECT_EQ(grid.points[3].mode, "functional");
    EXPECT_EQ(grid.points[4].mode, "sampled");
    for (size_t i = 0; i < grid.points.size(); i++)
        EXPECT_EQ(grid.points[i].functional, i == 2);

    // Sampling parameters attach to sampled points only.
    EXPECT_EQ(grid.points[4].sampleInterval, 50000u);
    EXPECT_EQ(grid.points[4].sampleWarmup, 5000u);
    EXPECT_EQ(grid.points[4].sampleMeasure, 2000u);
    EXPECT_EQ(grid.points[0].sampleInterval, 0u);

    // The execution mode and the sampling parameters are part of the
    // canonical point JSON, so detailed, functional and sampled
    // results can never collide in the result cache.
    std::unordered_set<std::string> keys;
    for (const auto &pt : grid.points)
        keys.insert(exp::cacheKey(pt));
    EXPECT_EQ(keys.size(), 4u);  // detailed == timing, rest distinct

    exp::ExpPoint tweaked = grid.points[4];
    tweaked.sampleInterval = 60000;
    EXPECT_NE(exp::cacheKey(tweaked), exp::cacheKey(grid.points[4]));

    // Round trip through the canonical JSON preserves the new fields.
    util::JsonValue v;
    std::string err;
    ASSERT_TRUE(util::parseJson(exp::pointJson(grid.points[4]), v, err))
        << err;
    exp::ExpPoint back;
    ASSERT_TRUE(exp::readPoint(v, back));
    EXPECT_EQ(back, grid.points[4]);

    EXPECT_FALSE(exp::parseSpecText("mode = warp\n").ok);
    // The removed reference path is an unknown mode like any other,
    // and the point layer refuses unknown modes instead of running
    // them as detailed.
    auto legacy = exp::parseSpecText("mode = legacy\n");
    EXPECT_FALSE(legacy.ok);
    EXPECT_NE(legacy.error.find("'legacy'"), std::string::npos)
        << legacy.error;
    exp::ExpPoint unknown = grid.points[0];
    unknown.mode = "legacy";
    EXPECT_THROW(exp::pointCoreConfig(unknown), std::invalid_argument);
    EXPECT_FALSE(exp::parseSpecText("sample-interval = 0\n").ok);
}

TEST(ExpSpec, RejectsBadAxesAndEmptySpecs)
{
    EXPECT_FALSE(exp::parseSpecText("bogus = 1\n").ok);
    EXPECT_FALSE(exp::parseSpecText("workload pi\n").ok);
    EXPECT_FALSE(exp::parseSpecText("width = 6\n").ok);
    EXPECT_FALSE(exp::parseSpecText("pbs = maybe\n").ok);

    auto parsed = exp::parseSpecText("predictor = tage-sc-l\n");
    ASSERT_TRUE(parsed.ok);
    EXPECT_FALSE(exp::expandSpec(parsed.spec).ok);  // no workloads

    auto bad = exp::parseSpecText("workload = nonesuch\n");
    ASSERT_TRUE(bad.ok);
    EXPECT_FALSE(exp::expandSpec(bad.spec).ok);
}

TEST(ExpSpec, AllKeywordSelectsEveryBenchmark)
{
    exp::SweepSpec spec;
    spec.workloads = {"all"};
    spec.scales = {100};
    auto grid = exp::expandSpec(spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    EXPECT_EQ(grid.points.size(), workloads::allBenchmarks().size());
}

// --- result cache ----------------------------------------------------

TEST_F(ExpCacheTest, StoreLoadRoundTripsBitExactly)
{
    exp::ResultCache cache(cacheDir());
    exp::ExpPoint pt = tinyPoint();
    exp::Measurement m = exp::Engine::computePoint(pt);
    const std::string key = exp::cacheKey(pt);

    ASSERT_TRUE(cache.store(key, pt, m));
    exp::Measurement loaded;
    ASSERT_TRUE(cache.load(key, pt.kind, loaded));
    EXPECT_EQ(loaded, m);

    // Unknown keys and corrupt entries miss instead of failing; only
    // the corrupt one is a rejection.
    EXPECT_EQ(cache.load("0000", pt.kind, loaded).status,
              exp::CacheLoad::Absent);
    std::ofstream(fs::path(cacheDir()) / (key + ".json"))
        << "{not json";
    EXPECT_EQ(cache.load(key, pt.kind, loaded).status,
              exp::CacheLoad::Rejected);
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST_F(ExpCacheTest, StoreLeavesAForeignTempFileUntouched)
{
    // Another writer's in-flight temp file for the same entry survives
    // a store: writers never share a temp name, so none can truncate or
    // rename another's half-written bytes into place.
    exp::ResultCache cache(cacheDir());
    exp::ExpPoint pt = tinyPoint();
    const std::string key = exp::cacheKey(pt);
    fs::create_directories(cacheDir());
    const fs::path foreign = fs::path(cacheDir()) / (key + ".json.tmp");
    std::ofstream(foreign) << "another writer";

    exp::Measurement m = exp::Engine::computePoint(pt);
    ASSERT_TRUE(cache.store(key, pt, m));
    EXPECT_EQ(slurp(foreign), "another writer");
    exp::Measurement loaded;
    ASSERT_TRUE(cache.load(key, pt.kind, loaded));
    EXPECT_EQ(loaded, m);
}

TEST_F(ExpCacheTest, EntryUnderAnotherPointsKeyLoadsAsAMiss)
{
    exp::ResultCache cache(cacheDir());
    const exp::ExpPoint a = tinyPoint(1);
    const exp::ExpPoint b = tinyPoint(2);
    exp::Measurement m = exp::Engine::computePoint(a);
    ASSERT_TRUE(cache.store(exp::cacheKey(a), a, m));
    fs::copy_file(fs::path(cacheDir()) / (exp::cacheKey(a) + ".json"),
                  fs::path(cacheDir()) / (exp::cacheKey(b) + ".json"));
    exp::Measurement loaded;
    EXPECT_EQ(cache.load(exp::cacheKey(b), b.kind, loaded).status,
              exp::CacheLoad::Rejected);
    EXPECT_TRUE(cache.load(exp::cacheKey(a), a.kind, loaded));

    // Partials check the interval index as well as the point.
    exp::ExpPoint s = a;
    s.mode = "sampled";
    sampling::IntervalSample sample;
    sample.instructions = 42;
    sample.valid = true;
    ASSERT_TRUE(cache.storePartial(exp::partialKey(s, 0), s, 0, sample));
    const fs::path partials = fs::path(cacheDir()) / "partials";
    fs::copy_file(partials / (exp::partialKey(s, 0) + ".json"),
                  partials / (exp::partialKey(s, 1) + ".json"));
    sampling::IntervalSample got;
    EXPECT_EQ(cache.loadPartial(exp::partialKey(s, 1), got).status,
              exp::CacheLoad::Rejected);
    EXPECT_EQ(cache.loadPartial(exp::partialKey(s, 2), got).status,
              exp::CacheLoad::Absent);
    ASSERT_TRUE(cache.loadPartial(exp::partialKey(s, 0), got));
    EXPECT_EQ(got, sample);
}

TEST_F(ExpCacheTest, EntryCopiedUnderAnotherKeyIsOneRejectionAndRecomputed)
{
    auto parsed = exp::parseSpecText(
        "workload  = pi\n"
        "predictor = tournament, tage-sc-l\n"
        "mode      = mpki\n"
        "div       = 100\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    ASSERT_EQ(grid.points.size(), 2u);
    const std::string echo = exp::specJson(parsed.spec);

    auto render = [&](exp::EngineCounters &counters) {
        exp::EngineConfig cfg;
        cfg.cacheDir = cacheDir();
        exp::Engine engine(cfg);
        engine.runAll(grid.points);
        counters = engine.counters();
        return exp::sweepJson(grid.points, engine, echo);
    };

    fs::remove_all(cacheDir());
    exp::EngineCounters cold;
    const std::string want = render(cold);
    EXPECT_EQ(cold.diskRejected, 0u);

    // Point 1's entry now holds point 0's result.
    const fs::path dir(cacheDir());
    fs::copy_file(dir / (exp::cacheKey(grid.points[0]) + ".json"),
                  dir / (exp::cacheKey(grid.points[1]) + ".json"),
                  fs::copy_options::overwrite_existing);

    exp::EngineCounters copied;
    EXPECT_EQ(render(copied), want);
    EXPECT_EQ(copied.diskRejected, 1u);
    EXPECT_EQ(copied.diskHits, 1u);
    EXPECT_EQ(copied.computed, 1u);

    // The recomputed result replaced the copy.
    exp::EngineCounters warm;
    EXPECT_EQ(render(warm), want);
    EXPECT_EQ(warm.diskRejected, 0u);
    EXPECT_EQ(warm.diskHits, 2u);
}

TEST_F(ExpCacheTest, GcPrunesStaleGenerations)
{
    exp::ResultCache cache(cacheDir());
    exp::ExpPoint pt = tinyPoint();
    exp::Measurement m = exp::Engine::computePoint(pt);
    ASSERT_TRUE(cache.store(exp::cacheKey(pt), pt, m));

    // A foreign-salt entry and a stray temp file are both stale.
    std::ofstream(fs::path(cacheDir()) / "deadbeef.json")
        << "{\"salt\":\"other-version/r0/s0\",\"result\":{}}";
    std::ofstream(fs::path(cacheDir()) / "stray.json.tmp") << "x";

    auto r = cache.gc();
    EXPECT_EQ(r.kept, 1u);
    EXPECT_EQ(r.removed, 2u);

    auto all = cache.gc(/*all=*/true);
    EXPECT_EQ(all.removed, 1u);
    EXPECT_EQ(all.kept, 0u);
}

// --- engine ----------------------------------------------------------

TEST_F(ExpCacheTest, WarmCacheIsBitIdenticalAndComputesNothing)
{
    exp::ExpPoint pt = tinyPoint();

    exp::EngineConfig cfg;
    cfg.cacheDir = cacheDir();
    exp::Engine cold(cfg);
    const auto coldResult = cold.measure(pt);
    EXPECT_EQ(cold.counters().computed, 1u);
    EXPECT_EQ(cold.counters().stored, 1u);

    exp::Engine warm(cfg);
    const auto &warmResult = warm.measure(pt);
    EXPECT_EQ(warm.counters().computed, 0u);
    EXPECT_EQ(warm.counters().diskHits, 1u);

    // Bit-identical: counters and every output double.
    EXPECT_EQ(warmResult, coldResult);
    ASSERT_EQ(warmResult.outputs.size(), coldResult.outputs.size());
    for (size_t i = 0; i < coldResult.outputs.size(); i++)
        EXPECT_EQ(warmResult.outputs[i], coldResult.outputs[i]);
}

TEST_F(ExpCacheTest, SweepArtifactsAreByteIdenticalAcrossJobsAndCache)
{
    auto parsed = exp::parseSpecText(
        "workload  = pi, mc-integ\n"
        "predictor = tournament, tage-sc-l\n"
        "pbs       = off, on\n"
        "mode      = functional\n"
        "div       = 100\n"
        "seeds     = 2\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    const std::string echo = exp::specJson(parsed.spec);

    auto renderWith = [&](unsigned jobs, exp::EngineCounters *out) {
        exp::EngineConfig cfg;
        cfg.cacheDir = cacheDir();
        cfg.jobs = jobs;
        exp::Engine engine(cfg);
        engine.runAll(grid.points);
        auto json = exp::sweepJson(grid.points, engine, echo);
        auto csv = exp::sweepCsv(grid.points, engine);
        if (out)
            *out = engine.counters();
        return std::make_pair(json, csv);
    };

    fs::remove_all(cacheDir());
    exp::EngineCounters coldCounters;
    auto serial = renderWith(1, &coldCounters);
    EXPECT_EQ(coldCounters.computed, grid.points.size());

    fs::remove_all(cacheDir());
    auto parallel = renderWith(4, nullptr);

    exp::EngineCounters warmCounters;
    auto warm = renderWith(4, &warmCounters);
    EXPECT_EQ(warmCounters.computed, 0u)
        << "warm rerun must do zero simulation work";
    EXPECT_EQ(warmCounters.diskHits, grid.points.size());

    // The determinism contract: byte-identical artifacts.
    EXPECT_EQ(serial.first, parallel.first);
    EXPECT_EQ(serial.first, warm.first);
    EXPECT_EQ(serial.second, parallel.second);
    EXPECT_EQ(serial.second, warm.second);

    // And the artifact parses back.
    util::JsonValue v;
    std::string err;
    ASSERT_TRUE(util::parseJson(serial.first, v, err)) << err;
    EXPECT_EQ(v.find("schema")->asString(), "pbs-sweep-v1");
    EXPECT_EQ(v.find("points")->items.size(), grid.points.size());
}

TEST_F(ExpCacheTest, ReportRendersIdenticallyColdAndWarm)
{
    auto render = [&]() {
        exp::EngineConfig cfg;
        cfg.cacheDir = cacheDir();
        cfg.jobs = 2;
        exp::Engine engine(cfg);
        exp::ReportContext ctx{engine, 200};
        ::testing::internal::CaptureStdout();
        EXPECT_EQ(exp::runReport("fig01", ctx), 0);
        return ::testing::internal::GetCapturedStdout();
    };
    const std::string cold = render();
    const std::string warm = render();
    EXPECT_FALSE(cold.empty());
    EXPECT_EQ(cold, warm);
}

// --- sweep table -----------------------------------------------------

TEST(ExpArtifact, SweepTableRowsPerPointAndAcrossSeedLines)
{
    // Two multi-seed configurations (PBS off and on) at mpki fidelity,
    // then two sampled configurations (interval 80000 over one seed,
    // interval 40000 over two).
    auto mpki = exp::parseSpecText("workload = pi\n"
                                   "mode = mpki\n"
                                   "pbs = off, on\n"
                                   "scale = 2000\n"
                                   "seed = 500\n"
                                   "seeds = 3\n");
    auto sampled = exp::parseSpecText("workload = pi\n"
                                      "mode = sampled\n"
                                      "sample-grid = 80000/10000/5000,"
                                      " 40000/10000/5000\n"
                                      "div = 20\n"
                                      "seed = 700\n"
                                      "seeds = 2\n");
    ASSERT_TRUE(mpki.ok) << mpki.error;
    ASSERT_TRUE(sampled.ok) << sampled.error;
    auto a = exp::expandSpec(mpki.spec);
    auto b = exp::expandSpec(sampled.spec);
    ASSERT_TRUE(a.ok && b.ok);
    std::vector<exp::ExpPoint> points = a.points;
    ASSERT_EQ(b.points.size(), 4u);
    points.push_back(b.points[0]);  // interval 80000, seed 700 alone
    points.insert(points.end(), b.points.begin() + 2, b.points.end());
    ASSERT_EQ(points.size(), 9u);

    exp::Engine engine;
    engine.runAll(points);
    const std::string table = exp::sweepTable(points, engine);

    auto count = [&](const std::string &needle) {
        size_t n = 0;
        for (size_t at = table.find(needle); at != std::string::npos;
             at = table.find(needle, at + 1))
            n++;
        return n;
    };
    // One title line per configuration.
    EXPECT_EQ(count("pi, tage-sc-l, pbs off, mpki,"), 1u) << table;
    EXPECT_EQ(count("pi, tage-sc-l, pbs on, mpki,"), 1u) << table;
    EXPECT_EQ(count("sampled, marked, 4-wide"), 2u) << table;
    EXPECT_EQ(count("sample 80000/10000/5000"), 1u) << table;
    EXPECT_EQ(count("sample 40000/10000/5000"), 1u) << table;
    // Every point gets a row that opens with its seed.
    for (const char *row : {"\n500 ", "\n501 ", "\n502 "})
        EXPECT_EQ(count(row), 2u) << row << "\n" << table;
    EXPECT_EQ(count("\n700 "), 2u) << table;
    EXPECT_EQ(count("\n701 "), 1u) << table;
    // Timing-free points show cycles and the branch columns; sampled
    // points show the sample count, detail% and the 95% CI columns.
    EXPECT_EQ(count("prob-branches"), 2u) << table;
    EXPECT_EQ(count("detail%"), 2u) << table;
    EXPECT_EQ(count("+/-95%"), 4u) << table;
    // Multi-seed configurations close with their across-seed line; the
    // single-seed one does not.
    EXPECT_EQ(count("3 seeds: ipc "), 2u) << table;
    EXPECT_EQ(count("2 seeds: ipc "), 1u) << table;
    EXPECT_EQ(count("(across-seed 95% CI)"), 1u) << table;
}

// --- sample-grid axis ------------------------------------------------

TEST(ExpSpec, SampleGridMultipliesSampledPointsOnly)
{
    auto parsed = exp::parseSpecText(
        "workload = pi\n"
        "mode = detailed, sampled\n"
        "sample-grid = 100000/10000/5000, 200000/20000/10000\n"
        "scale = 1000\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;

    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    ASSERT_EQ(grid.points.size(), 3u);  // 1 detailed + 2 sampled
    EXPECT_EQ(grid.points[0].mode, "detailed");
    EXPECT_EQ(grid.points[0].sampleInterval, 0u);
    EXPECT_EQ(grid.points[1].mode, "sampled");
    EXPECT_EQ(grid.points[1].sampleInterval, 100000u);
    EXPECT_EQ(grid.points[1].sampleWarmup, 10000u);
    EXPECT_EQ(grid.points[1].sampleMeasure, 5000u);
    EXPECT_EQ(grid.points[2].sampleInterval, 200000u);

    // Distinct triples key distinct cache entries.
    EXPECT_NE(exp::cacheKey(grid.points[1]),
              exp::cacheKey(grid.points[2]));

    // Malformed and inconsistent triples are rejected at parse time.
    EXPECT_FALSE(exp::parseSpecText("sample-grid = 1000\n").ok);
    EXPECT_FALSE(exp::parseSpecText("sample-grid = 0/0/0\n").ok);
    EXPECT_FALSE(
        exp::parseSpecText("sample-grid = 1000/900/200\n").ok);
}

TEST(ExpSpec, ZeroWarmupIsRejectedNotReadAsTheDefault)
{
    // A point reads warmup 0 as "subsystem default", so a spec that
    // says 0 would silently run with the default warmup.
    exp::SweepSpec spec;
    const std::string err = exp::applySpecKey(spec, "sample-warmup", "0");
    EXPECT_NE(err.find("sample-warmup"), std::string::npos) << err;
    EXPECT_EQ(spec.sampleWarmup, 0u);
    EXPECT_FALSE(exp::parseSpecText("sample-warmup = 0\n").ok);
    EXPECT_FALSE(
        exp::parseSpecText("sample-grid = 200000/0/10000\n").ok);
    EXPECT_EQ(exp::applySpecKey(spec, "sample-warmup", "1"), "");
    EXPECT_EQ(exp::applySpecKey(spec, "sample-grid", "3/1/1"), "");
}

TEST(ExpSpec, IgnoredSampleKeyNamesTheFirstKeyWithoutASampledMode)
{
    exp::SweepSpec spec;
    spec.modes = {"detailed", "mpki"};
    EXPECT_EQ(exp::ignoredSampleKey(spec), "");
    spec.sampleGrid = {{40000, 10000, 5000}};
    EXPECT_EQ(exp::ignoredSampleKey(spec), "sample-grid");
    spec.sampleWarmup = 10000;
    EXPECT_EQ(exp::ignoredSampleKey(spec), "sample-warmup");
    spec.modes.push_back("sampled");
    EXPECT_EQ(exp::ignoredSampleKey(spec), "");

    // Unset keys resolve to the subsystem defaults.
    const cpu::SampleParams d{};
    const cpu::SampleParams sp = exp::sampleParams(spec);
    EXPECT_EQ(sp.interval, d.interval);
    EXPECT_EQ(sp.warmup, 10000u);
    EXPECT_EQ(sp.measure, d.measure);
}

// --- timed points and the pbs_bench grid -----------------------------

/** "workload predictor pbs mode" of every point, in order. */
std::vector<std::string>
gridRows(const std::vector<exp::ExpPoint> &points)
{
    std::vector<std::string> rows;
    for (const auto &pt : points)
        rows.push_back(pt.workload + " " + pt.predictor +
                       (pt.pbs ? " on " : " off ") + exp::modeName(pt));
    return rows;
}

TEST(BenchGrid, DefaultGridIsEveryPredictorPlusTageScLWithPbs)
{
    const auto grid = bench::standardGrid(bench::standardSpec());
    ASSERT_TRUE(grid.ok) << grid.error;
    const auto &preds = bpred::predictorNames();
    const auto &benches = workloads::allBenchmarks();
    ASSERT_EQ(grid.points.size(), benches.size() * (preds.size() + 1));

    size_t i = 0;
    for (const auto &b : benches) {
        for (const auto &p : preds) {
            const exp::ExpPoint &pt = grid.points[i++];
            EXPECT_EQ(pt.workload, b.name);
            EXPECT_EQ(pt.predictor, p);
            EXPECT_FALSE(pt.pbs);
            EXPECT_EQ(exp::modeName(pt), "detailed");
        }
        const exp::ExpPoint &on = grid.points[i++];
        EXPECT_EQ(on.workload, b.name);
        EXPECT_EQ(on.predictor, "tage-sc-l");
        EXPECT_TRUE(on.pbs);
        EXPECT_EQ(on.scale, exp::resolvedScale(b, 4));
        EXPECT_EQ(on.seed, 12345u);
    }
}

TEST(BenchGrid, FiltersKeepRegistryOrderAndModesStayPointMajor)
{
    exp::SweepSpec spec = bench::standardSpec();
    ASSERT_EQ(exp::applySpecKey(spec, "workload", "pi,dop"), "");
    ASSERT_EQ(exp::applySpecKey(spec, "predictor", "tage-sc-l,tournament"),
              "");
    auto grid = bench::standardGrid(spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    // The registry lists dop before pi and tournament before
    // tage-sc-l, whatever order the filters name them in.
    const std::vector<std::string> detailed = {
        "dop tournament off detailed", "dop tage-sc-l off detailed",
        "dop tage-sc-l on detailed",   "pi tournament off detailed",
        "pi tage-sc-l off detailed",   "pi tage-sc-l on detailed",
    };
    EXPECT_EQ(gridRows(grid.points), detailed);

    // All four modes, in the order given, next to each other per pair;
    // "timing" is the alias of detailed.
    ASSERT_EQ(exp::applySpecKey(spec, "mode",
                                "mpki,timing,functional,sampled"),
              "");
    grid = bench::standardGrid(spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    ASSERT_EQ(grid.points.size(), 4 * detailed.size());
    const char *modes[] = {"mpki", "detailed", "functional", "sampled"};
    const auto rows = gridRows(grid.points);
    for (size_t i = 0; i < rows.size(); i++) {
        const std::string base =
            detailed[i / 4].substr(0, detailed[i / 4].rfind(' '));
        EXPECT_EQ(rows[i], base + " " + modes[i % 4]) << i;
    }

    // Without tage-sc-l there is no PBS-on point.
    ASSERT_EQ(exp::applySpecKey(spec, "predictor", "tournament"), "");
    grid = bench::standardGrid(spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    EXPECT_EQ(grid.points.size(), 2u * 4u);
    for (const auto &pt : grid.points)
        EXPECT_FALSE(pt.pbs);

    ASSERT_EQ(exp::applySpecKey(spec, "predictor", "nonesuch"), "");
    EXPECT_FALSE(bench::standardGrid(spec).ok);
}

TEST(TimePoint, MeasuresWhatComputePointMeasures)
{
    // One point per mode: the timed run is the untimed run, and it
    // reports a wall time for each repeat.
    for (const char *mode : {"detailed", "mpki", "functional", "sampled"}) {
        exp::SweepSpec spec;
        spec.workloads = {"pi"};
        spec.predictors = {"tournament"};
        spec.pbsModes = {"on"};
        spec.modes = {mode};
        spec.sampleGrid = {{40000, 10000, 5000}};
        spec.divisor = 20;
        const auto grid = exp::expandSpec(spec);
        ASSERT_TRUE(grid.ok) << grid.error;
        ASSERT_EQ(grid.points.size(), 1u);
        const exp::ExpPoint &pt = grid.points[0];

        const exp::TimedRun run = exp::timePoint(pt, 3);
        const exp::Measurement ref = exp::Engine::computePoint(pt);
        EXPECT_EQ(run.result.stats, ref.stats) << mode;
        EXPECT_EQ(run.result, ref) << mode;
        EXPECT_GT(run.result.stats.instructions, 0u) << mode;
        EXPECT_GT(run.bestMs, 0.0) << mode;
        EXPECT_LE(run.bestMs, run.medianMs) << mode;
        EXPECT_LE(run.bestMs, run.meanMs) << mode;
        EXPECT_GT(run.mips(), 0.0) << mode;
    }
    exp::ExpPoint rand = tinyPoint();
    rand.kind = exp::PointKind::Rand;
    EXPECT_THROW(exp::timePoint(rand, 1), std::invalid_argument);
}

TEST(BenchRun, ContentHashIsEqualAtOneAndTwoJobs)
{
    bench::BenchConfig cfg;
    ASSERT_EQ(exp::applySpecKey(cfg.spec, "workload", "pi,bandit"), "");
    ASSERT_EQ(
        exp::applySpecKey(cfg.spec, "predictor", "tournament,tage-sc-l"),
        "");
    ASSERT_EQ(exp::applySpecKey(cfg.spec, "mode",
                                "detailed,mpki,functional,sampled"),
              "");
    ASSERT_EQ(exp::applySpecKey(cfg.spec, "sample-interval", "200000"),
              "");
    ASSERT_EQ(exp::applySpecKey(cfg.spec, "sample-measure", "10000"), "");
    cfg.spec.divisor = 50;
    const auto grid = bench::standardGrid(cfg.spec);
    ASSERT_TRUE(grid.ok) << grid.error;

    cfg.jobs = 1;
    const auto serial = bench::runBench(grid.points, cfg);
    cfg.jobs = 2;
    const auto parallel = bench::runBench(grid.points, cfg);
    ASSERT_EQ(serial.size(), grid.points.size());
    EXPECT_EQ(bench::contentHash(serial, cfg),
              bench::contentHash(parallel, cfg));
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].point, grid.points[i]);
        EXPECT_EQ(serial[i].run.result.stats,
                  parallel[i].run.result.stats);
    }
    // The artifact echoes the effective sampling parameters.
    const std::string json = bench::benchJson(serial, cfg);
    EXPECT_NE(json.find("\"sample_interval\":200000,\"sample_warmup\":"
                        "100000,\"sample_measure\":10000"),
              std::string::npos)
        << json.substr(0, 200);
    pool::TaskPool::instance().configure(1);
}

// --- shared work and campaigns --------------------------------------

/**
 * The reference artifact of @p points: each one run on its own by
 * Engine::computePoint (no stream, no shared checkpoint set), stored
 * in a scratch cache at @p dir and rendered through an engine that
 * only loads. @p dir is removed afterwards.
 */
std::string
computePointArtifact(const std::vector<exp::ExpPoint> &points,
                     const fs::path &dir)
{
    {
        exp::ResultCache cache(dir.string());
        for (const auto &pt : points)
            EXPECT_TRUE(cache.store(exp::cacheKey(pt), pt,
                                    exp::Engine::computePoint(pt)));
    }
    exp::EngineConfig cfg;
    cfg.cacheDir = dir.string();
    exp::Engine engine(cfg);
    const std::string json = exp::sweepJson(points, engine, "");
    EXPECT_EQ(engine.counters().computed, 0u);
    EXPECT_EQ(engine.counters().diskHits, points.size());
    fs::remove_all(dir);
    return json;
}

TEST_F(ExpCacheTest, MixedGridRunAllMatchesComputePoint)
{
    // One runAll over detailed, mpki and sampled points: the mpki
    // points of each program path share a direction stream, the
    // sampled points of each workload share a checkpoint set, and the
    // artifact must equal the one every point computed alone gives.
    auto parsed = exp::parseSpecText(
        "workload = pi, bandit\n"
        "predictor = tournament, tage-sc-l\n"
        "pbs = off, on\n"
        "mode = detailed, mpki, sampled\n"
        "sample-grid = 40000/10000/5000\n"
        "div = 20\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    auto grid = exp::expandSpec(parsed.spec);
    ASSERT_TRUE(grid.ok) << grid.error;
    ASSERT_EQ(grid.points.size(), 24u);

    const std::string reference =
        computePointArtifact(grid.points, dir_ / "reference");

    exp::EngineConfig cfg;
    cfg.jobs = 2;
    exp::Engine engine(cfg);
    engine.runAll(grid.points);
    EXPECT_EQ(exp::sweepJson(grid.points, engine, ""), reference);

    const exp::EngineCounters &c = engine.counters();
    EXPECT_EQ(c.computed, 24u);
    // 2 workloads x 2 PBS settings x (2 - 1) predictors.
    EXPECT_EQ(c.streamReplays, 4u);
    EXPECT_EQ(c.campaignGroups, 2u);
    EXPECT_EQ(c.captures, 2u);
    EXPECT_GT(c.partialComputed, 0u);
    EXPECT_EQ(c.partialStored, 0u);
}

/** A fig07-style predictor x PBS grid over one sampled workload. */
class CampaignTest : public ExpCacheTest
{
  protected:
    std::vector<exp::ExpPoint>
    grid() const
    {
        auto parsed = exp::parseSpecText(
            "workload = pi\n"
            "predictor = tournament, tage-sc-l\n"
            "pbs = off, on\n"
            "mode = sampled\n"
            "sample-grid = 40000/10000/5000\n"
            "div = 20\n");
        EXPECT_TRUE(parsed.ok) << parsed.error;
        auto expanded = exp::expandSpec(parsed.spec);
        EXPECT_TRUE(expanded.ok) << expanded.error;
        return expanded.points;
    }

    /** The grid's points each computed alone (computePointArtifact). */
    std::string
    referenceArtifact(const std::vector<exp::ExpPoint> &points) const
    {
        return computePointArtifact(points, dir_ / "reference");
    }

    /** Run the grid; return (sweep JSON, counters). */
    std::pair<std::string, exp::EngineCounters>
    run(const std::vector<exp::ExpPoint> &points, bool campaign,
        const std::string &dir, unsigned jobs = 2)
    {
        exp::EngineConfig cfg;
        cfg.cacheDir = dir;
        cfg.jobs = jobs;
        cfg.campaign = campaign;
        exp::Engine engine(cfg);
        engine.runAll(points);
        return {exp::sweepJson(points, engine, ""),
                engine.counters()};
    }
};

TEST_F(CampaignTest, CapturesOncePerStoreKeyAndMatchesPerPointPath)
{
    const auto points = grid();
    ASSERT_EQ(points.size(), 4u);

    // All four configs share one checkpoint StoreKey by construction.
    std::unordered_set<std::string> storeKeys;
    for (const auto &pt : points)
        storeKeys.insert(exp::storeSetHash(
            exp::checkpointStoreKey(pt, exp::versionSalt())));
    ASSERT_EQ(storeKeys.size(), 1u);

    // Reference: every point computed on its own.
    const std::string reference = referenceArtifact(points);

    // Campaign: one capture serves the whole grid, every interval is
    // measured exactly once per config and persisted as a partial.
    const auto [artifact, c] = run(points, true, cacheDir());
    EXPECT_EQ(artifact, reference)
        << "campaign scheduling must not change results";
    EXPECT_EQ(c.campaignGroups, storeKeys.size());
    EXPECT_EQ(c.captures, storeKeys.size())
        << "exactly one capture per distinct StoreKey";
    EXPECT_EQ(c.ckptSetLoads, 0u);
    EXPECT_EQ(c.computed, 4u);
    EXPECT_EQ(c.partialHits, 0u);
    EXPECT_GT(c.partialComputed, 0u);
    EXPECT_EQ(c.partialComputed % 4u, 0u)
        << "every config measures the same shared interval set";
    EXPECT_EQ(c.partialStored, c.partialComputed);

    // Warm rerun: everything is a disk hit, nothing is re-simulated
    // and nothing is re-captured.
    const auto [warm, w] = run(points, true, cacheDir());
    EXPECT_EQ(warm, reference);
    EXPECT_EQ(w.computed, 0u);
    EXPECT_EQ(w.captures, 0u);
    EXPECT_EQ(w.partialComputed, 0u);
    EXPECT_EQ(w.diskHits, 4u);
}

TEST_F(CampaignTest, EverySweepSharesItsSetWithoutPersistingIt)
{
    // Without --campaign the grid still captures its one set once and
    // fans every config out over it, but keeps neither the set nor
    // the per-interval samples: only the four results reach the cache.
    const auto points = grid();
    const std::string reference = referenceArtifact(points);
    for (unsigned jobs : {1u, 2u}) {
        fs::remove_all(cacheDir());
        const auto [artifact, c] = run(points, false, cacheDir(), jobs);
        EXPECT_EQ(artifact, reference) << "--jobs " << jobs;
        EXPECT_EQ(c.campaignGroups, 1u);
        EXPECT_EQ(c.captures, 1u);
        EXPECT_EQ(c.ckptSetLoads, 0u);
        EXPECT_EQ(c.partialHits, 0u);
        EXPECT_GT(c.partialComputed, 0u);
        EXPECT_EQ(c.partialComputed % 4u, 0u);
        EXPECT_EQ(c.partialStored, 0u);
        EXPECT_EQ(c.computed, 4u);
        EXPECT_EQ(c.stored, 4u);
        EXPECT_FALSE(fs::exists(fs::path(cacheDir()) / "ckpt"));
        EXPECT_FALSE(fs::exists(fs::path(cacheDir()) / "partials"));
    }
}

TEST_F(CampaignTest, EveryPointOfASetIsValidated)
{
    // The measure length is not part of the checkpoint set, so a point
    // whose warmup + measure overruns its interval joins a valid
    // point's group. It is refused as computePoint() refuses it alone,
    // instead of measuring across the next interval's checkpoint.
    auto points = grid();
    points[1].sampleMeasure = 35000;  // 10000 + 35000 > 40000
    ASSERT_EQ(exp::storeSetHash(exp::checkpointStoreKey(
                  points[0], exp::versionSalt())),
              exp::storeSetHash(exp::checkpointStoreKey(
                  points[1], exp::versionSalt())));
    EXPECT_THROW(exp::Engine::computePoint(points[1]),
                 std::invalid_argument);
    for (bool campaign : {false, true}) {
        exp::EngineConfig cfg;
        cfg.cacheDir = cacheDir();
        cfg.campaign = campaign;
        exp::Engine engine(cfg);
        EXPECT_THROW(engine.runAll(points), std::invalid_argument)
            << "campaign " << campaign;
    }
}

TEST_F(CampaignTest, LoneMeasurePublishesItsSetAndPartials)
{
    // A lone measure() runs its sampled point as a one-point group
    // through the sweep's runner, so a campaign engine persists the
    // set and every interval, and a later engine assembles the result
    // from them alone.
    const exp::ExpPoint pt = grid().front();
    exp::EngineConfig cfg;
    cfg.cacheDir = cacheDir();
    cfg.campaign = true;
    exp::Measurement first;
    {
        exp::Engine engine(cfg);
        first = engine.measure(pt);
        const exp::EngineCounters &c = engine.counters();
        EXPECT_EQ(c.captures, 1u);
        EXPECT_GT(c.partialStored, 0u);
        EXPECT_EQ(c.partialStored, c.partialComputed);
    }
    EXPECT_EQ(first, exp::Engine::computePoint(pt));
    const fs::path set =
        fs::path(cacheDir()) / "ckpt" /
        (exp::storeSetHash(exp::checkpointStoreKey(pt, exp::versionSalt())) +
         ".pbsckpts");
    EXPECT_TRUE(fs::exists(set));
    EXPECT_FALSE(fs::is_empty(fs::path(cacheDir()) / "partials"));

    // Drop the result: only the set and the partials remain.
    for (const auto &e : fs::directory_iterator(cacheDir()))
        if (e.is_regular_file())
            fs::remove(e.path());
    exp::Engine engine(cfg);
    EXPECT_EQ(engine.measure(pt), first);
    const exp::EngineCounters &c = engine.counters();
    EXPECT_EQ(c.diskHits, 0u);
    EXPECT_EQ(c.ckptSetLoads, 1u);
    EXPECT_EQ(c.captures, 0u);
    EXPECT_EQ(c.partialComputed, 0u);
    EXPECT_GT(c.partialHits, 0u);
}

TEST_F(CampaignTest, ResumesInterruptedRunWithZeroResimulation)
{
    const auto points = grid();

    // Single-shot cold campaign: the document to reproduce.
    const auto [reference, cold] = run(points, true, cacheDir());
    ASSERT_GT(cold.partialStored, 4u);

    // "Kill" the campaign partway: final results never landed and
    // only some partials survived (delete every other one).
    for (const auto &e : fs::directory_iterator(cacheDir()))
        if (e.is_regular_file())
            fs::remove(e.path());
    size_t kept = 0, dropped = 0;
    {
        std::vector<fs::path> partials;
        for (const auto &e :
             fs::directory_iterator(fs::path(cacheDir()) / "partials"))
            partials.push_back(e.path());
        std::sort(partials.begin(), partials.end());
        for (size_t i = 0; i < partials.size(); i++) {
            if (i % 2) {
                fs::remove(partials[i]);
                dropped++;
            } else {
                kept++;
            }
        }
    }
    ASSERT_GT(kept, 0u);
    ASSERT_GT(dropped, 0u);

    // Resume: byte-identical document, zero re-captures, full reuse
    // of every surviving partial.
    const auto [resumed, c] = run(points, true, cacheDir());
    EXPECT_EQ(resumed, reference)
        << "an interrupted-then-resumed campaign must reproduce the "
           "single-shot document byte-identically";
    EXPECT_EQ(c.captures, 0u) << "zero re-captures on resume";
    EXPECT_EQ(c.ckptSetLoads, 1u);
    EXPECT_EQ(c.partialHits, kept) << "100% reuse of kept partials";
    EXPECT_EQ(c.partialComputed, dropped);
    EXPECT_EQ(c.computed, 4u);
}

TEST_F(CampaignTest, ShardsFillTheCacheAndTheFinalRunAssemblesIt)
{
    // The cross-process fan-out, in-process: shards 1/2 and 2/2 measure
    // complementary interval slices into one shared cache, then an
    // unsharded campaign over that cache assembles the artifact
    // without simulating anything.
    const auto points = grid();
    const std::string reference = referenceArtifact(points);

    const exp::ExpPoint &pt0 = points.front();
    const size_t intervals =
        sampling::captureCheckpoints(
            workloads::benchmarkByName(pt0.workload)
                .build(exp::pointParams(pt0), workloads::Variant::Marked),
            exp::pointCoreConfig(pt0))
            .checkpoints.size();
    ASSERT_GE(intervals, 3u);

    auto shard = [&](unsigned k) {
        exp::EngineConfig cfg;
        cfg.cacheDir = cacheDir();
        cfg.jobs = 2;
        cfg.campaign = true;
        cfg.shardIndex = k;
        cfg.shardCount = 2;
        exp::Engine engine(cfg);
        engine.runAll(points);
        const exp::EngineCounters c = engine.counters();
        // A shard has no result to give a lone measure().
        EXPECT_THROW(engine.measure(points.front()), std::logic_error);
        return c;
    };
    const exp::EngineCounters s1 = shard(1);
    const exp::EngineCounters s2 = shard(2);

    // Shard k measures exactly the intervals i with i mod 2 == k-1, for
    // every configuration, and aggregates nothing.
    EXPECT_EQ(s1.partialComputed, points.size() * ((intervals + 1) / 2));
    EXPECT_EQ(s2.partialComputed, points.size() * (intervals / 2));
    EXPECT_EQ(s1.partialStored, s1.partialComputed);
    EXPECT_EQ(s2.partialStored, s2.partialComputed);
    EXPECT_EQ(s1.computed + s2.computed, 0u);
    EXPECT_EQ(s1.captures, 1u);
    EXPECT_EQ(s2.captures, 0u) << "shard 2 reuses the set shard 1 stored";

    const auto [artifact, c] = run(points, true, cacheDir());
    EXPECT_EQ(artifact, reference)
        << "the assembled artifact must equal the per-point run's";
    EXPECT_EQ(c.captures, 0u);
    EXPECT_EQ(c.partialComputed, 0u) << "zero re-simulation";
    EXPECT_EQ(c.partialHits, s1.partialComputed + s2.partialComputed);
    EXPECT_EQ(c.computed, points.size());  // aggregated, then stored
}

TEST_F(CampaignTest, InvariantsHoldUnderStealingAndJitter)
{
    // pointCost is now only a placement hint for the work-stealing
    // scheduler — under heavy steal-order perturbation at --jobs 8
    // the campaign contract must hold unchanged: byte-identical
    // artifact, one capture per distinct StoreKey, every partial
    // stored.
    const auto points = grid();
    std::unordered_set<std::string> storeKeys;
    for (const auto &pt : points)
        storeKeys.insert(exp::storeSetHash(
            exp::checkpointStoreKey(pt, exp::versionSalt())));

    const auto [reference, refC] = run(points, true, cacheDir(), 1);

    pool::TaskPool::instance().setStealJitter(99, 100);
    fs::remove_all(cacheDir());
    const auto [jittered, c] = run(points, true, cacheDir(), 8);
    pool::TaskPool::instance().setStealJitter(0, 0);
    pool::TaskPool::instance().configure(1);

    EXPECT_EQ(jittered, reference);
    EXPECT_EQ(c.captures, storeKeys.size())
        << "capture-once must survive steal scheduling";
    EXPECT_EQ(c.campaignGroups, storeKeys.size());
    EXPECT_EQ(c.computed, refC.computed);
    EXPECT_EQ(c.partialComputed, refC.partialComputed);
    EXPECT_EQ(c.partialStored, c.partialComputed);
}

TEST_F(CampaignTest, ResumeSurvivesStealJitter)
{
    // The interrupted-resume path, re-run with the steal order
    // perturbed: surviving partials must still be reused 1:1 and the
    // resumed document must reproduce the cold one byte-for-byte.
    const auto points = grid();
    const auto [reference, cold] = run(points, true, cacheDir(), 8);
    ASSERT_GT(cold.partialStored, 4u);

    for (const auto &e : fs::directory_iterator(cacheDir()))
        if (e.is_regular_file())
            fs::remove(e.path());
    size_t kept = 0, dropped = 0;
    {
        std::vector<fs::path> partials;
        for (const auto &e :
             fs::directory_iterator(fs::path(cacheDir()) / "partials"))
            partials.push_back(e.path());
        std::sort(partials.begin(), partials.end());
        for (size_t i = 0; i < partials.size(); i++) {
            if (i % 2) {
                fs::remove(partials[i]);
                dropped++;
            } else {
                kept++;
            }
        }
    }
    ASSERT_GT(kept, 0u);
    ASSERT_GT(dropped, 0u);

    pool::TaskPool::instance().setStealJitter(7, 150);
    const auto [resumed, c] = run(points, true, cacheDir(), 8);
    pool::TaskPool::instance().setStealJitter(0, 0);
    pool::TaskPool::instance().configure(1);

    EXPECT_EQ(resumed, reference);
    EXPECT_EQ(c.captures, 0u);
    EXPECT_EQ(c.partialHits, kept);
    EXPECT_EQ(c.partialComputed, dropped);
}

TEST_F(ExpCacheTest, PointCostReflectsSampleParameters)
{
    exp::ExpPoint detailed;
    detailed.workload = "pi";
    detailed.mode = "detailed";
    detailed.scale = 1'000'000;

    exp::ExpPoint dense = detailed;
    dense.mode = "sampled";  // defaults: 500k interval, 160k detailed

    exp::ExpPoint sparse = dense;
    sparse.sampleInterval = 2'000'000;
    sparse.sampleWarmup = 100'000;
    sparse.sampleMeasure = 60'000;

    // A sparse-interval Pareto point simulates far fewer detailed
    // instructions than the default config and must cost less, and
    // both must undercut full detailed timing.
    EXPECT_LT(exp::pointCost(sparse), exp::pointCost(dense));
    EXPECT_LT(exp::pointCost(dense), exp::pointCost(detailed));

    // More measured instructions per interval -> more cost.
    exp::ExpPoint heavy = dense;
    heavy.sampleMeasure = 300'000;
    EXPECT_GT(exp::pointCost(heavy), exp::pointCost(dense));
}

TEST_F(ExpCacheTest, StoreFailureWarnsOnceAndCounts)
{
    // Occupy the cache path with a regular file: every store fails.
    std::ofstream(dir_) << "not a directory";

    exp::EngineConfig cfg;
    cfg.cacheDir = cacheDir();
    exp::Engine engine(cfg);

    ::testing::internal::CaptureStderr();
    engine.measure(tinyPoint(1));
    engine.measure(tinyPoint(2));
    const std::string err = ::testing::internal::GetCapturedStderr();

    EXPECT_EQ(engine.counters().computed, 2u);
    EXPECT_EQ(engine.counters().stored, 0u);
    EXPECT_EQ(engine.counters().storeFailed, 2u);

    // Warn once, not per failure.
    const std::string needle = "failed to write";
    size_t first = err.find(needle);
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find(needle, first + 1), std::string::npos) << err;
}

TEST_F(ExpCacheTest, GcGraceSparesFreshEntriesOfEveryKind)
{
    exp::ResultCache cache(cacheDir());
    exp::ExpPoint pt = tinyPoint();
    ASSERT_TRUE(
        cache.store(exp::cacheKey(pt), pt, exp::Measurement{}));
    exp::ExpPoint sampled = pt;
    sampled.mode = "sampled";
    const exp::StoreKey live =
        exp::checkpointStoreKey(sampled, exp::versionSalt());
    ASSERT_TRUE(cache.storeCheckpointSet(live, sampling::CheckpointSet{}));

    // Freshly-written stale-salt state of all three kinds, as an
    // in-flight campaign under older code would leave behind, plus a
    // checkpoint-set directory of the retired per-file layout.
    const fs::path root(cacheDir());
    fs::create_directories(root / "partials");
    std::ofstream(root / "deadbeef.json")
        << "{\"salt\":\"other-version/r0/s0\"}";
    std::ofstream(root / "partials" / "cafe.json")
        << "{\"salt\":\"other-version/r0/s0\"}";
    std::ofstream(root / "ckpt" / "ffff.pbsckpts")
        << "{\"salt\":\"other-version/r0/s0\"}\nPBSCKPT1";
    fs::create_directories(root / "ckpt" / "eeee");
    std::ofstream(root / "ckpt" / "eeee" / "manifest.json")
        << "{\"key\":{\"salt\":\"other-version/r0/s0\"}}";

    // Within the grace window nothing may be deleted — a concurrent
    // writer could still be mid-campaign.
    auto graced = cache.gc(false, /*graceSeconds=*/3600);
    EXPECT_EQ(graced.removed, 0u);
    EXPECT_EQ(graced.kept, 6u);
    // Even --all respects the grace window.
    EXPECT_EQ(cache.gc(true, 3600).removed, 0u);

    // Without grace the stale generations go and the live entries stay.
    auto r = cache.gc(false, 0);
    EXPECT_EQ(r.removed, 4u);
    EXPECT_EQ(r.kept, 2u);
    EXPECT_FALSE(fs::exists(root / "ckpt" / "eeee"));
    exp::Measurement m;
    EXPECT_TRUE(cache.load(exp::cacheKey(pt), pt.kind, m));
    sampling::CheckpointSet set;
    EXPECT_TRUE(cache.loadCheckpointSet(live, set));
}

// --- checkpoint sets -------------------------------------------------

/** A checkpoint set captured once, stored in a per-test cache. */
class CheckpointSetTest : public ExpCacheTest
{
  protected:
    /** The small sampled configuration the set is captured under. */
    static cpu::CoreConfig
    sampledConfig()
    {
        cpu::CoreConfig cfg;
        cfg.sample.interval = 40000;
        cfg.sample.warmup = 10000;
        cfg.sample.measure = 5000;
        return cfg;
    }

    static isa::Program
    program()
    {
        const auto &b = workloads::benchmarkByName("pi");
        workloads::WorkloadParams p;
        p.seed = 5;
        p.scale = b.defaultScale / 20;
        return b.build(p, workloads::Variant::Marked);
    }

    /** The key matching sampledConfig() on program(). */
    static exp::StoreKey
    storeKey()
    {
        exp::StoreKey key;
        key.workload = "pi";
        key.scale = workloads::benchmarkByName("pi").defaultScale / 20;
        key.seed = 5;
        key.maxInstructions = cpu::CoreConfig{}.maxInstructions;
        key.interval = 40000;
        key.warmup = 10000;
        key.salt = "test-salt/r1/s1";
        return key;
    }

    /** Every checkpoint's PBSCKPT1 bytes plus the totals: set identity. */
    static std::string
    setBytes(const sampling::CheckpointSet &set)
    {
        std::string out;
        for (const auto &state : set.checkpoints) {
            const auto blob = sampling::Checkpoint{state}.serialize();
            out.append(blob.begin(), blob.end());
        }
        const auto blob = sampling::Checkpoint{set.finalState}.serialize();
        out.append(blob.begin(), blob.end());
        return out + "|" + std::to_string(set.totals.instructions) + "|" +
               std::to_string(set.totals.branches) + "|" +
               std::to_string(set.totals.probBranches);
    }

    void
    SetUp() override
    {
        ExpCacheTest::SetUp();
        set_ = sampling::captureCheckpoints(program(), sampledConfig());
        ASSERT_GE(set_.checkpoints.size(), 2u);
        ASSERT_TRUE(cache().storeCheckpointSet(storeKey(), set_));
    }

    exp::ResultCache cache() const { return exp::ResultCache(cacheDir()); }

    fs::path
    setPath(const exp::StoreKey &key) const
    {
        return fs::path(cacheDir()) / "ckpt" /
               (exp::storeSetHash(key) + ".pbsckpts");
    }

    bool
    loads(const exp::StoreKey &key) const
    {
        sampling::CheckpointSet out;
        return cache().loadCheckpointSet(key, out);
    }

    sampling::CheckpointSet set_;
};

TEST_F(CheckpointSetTest, SaveLoadRoundTripsBitExactly)
{
    sampling::CheckpointSet loaded;
    ASSERT_TRUE(cache().loadCheckpointSet(storeKey(), loaded));
    EXPECT_EQ(setBytes(loaded), setBytes(set_));
    EXPECT_TRUE(loaded.totals == set_.totals);

    // A run over the loaded set is bit-identical to one that captures:
    // a campaign engine finds it under the point's own key.
    exp::ExpPoint pt;
    pt.workload = "pi";
    pt.mode = "sampled";
    pt.seed = 5;
    pt.scale = workloads::benchmarkByName("pi").defaultScale / 20;
    pt.sampleInterval = 40000;
    pt.sampleWarmup = 10000;
    pt.sampleMeasure = 5000;
    ASSERT_TRUE(cache().storeCheckpointSet(
        exp::checkpointStoreKey(pt, exp::versionSalt()), loaded));
    exp::EngineConfig cfg;
    cfg.cacheDir = cacheDir();
    cfg.campaign = true;
    exp::Engine engine(cfg);
    EXPECT_EQ(engine.measure(pt), exp::Engine::computePoint(pt));
    EXPECT_EQ(engine.counters().ckptSetLoads, 1u);
    EXPECT_EQ(engine.counters().captures, 0u);
}

TEST_F(CheckpointSetTest, MissingSetAndDisabledCacheMiss)
{
    exp::StoreKey other = storeKey();
    other.seed = 6;
    EXPECT_FALSE(loads(other));
    sampling::CheckpointSet out;
    EXPECT_FALSE(exp::ResultCache("").loadCheckpointSet(storeKey(), out));
    EXPECT_FALSE(exp::ResultCache("").storeCheckpointSet(storeKey(), set_));
}

TEST_F(CheckpointSetTest, SetCopiedUnderAnotherHashMisses)
{
    exp::StoreKey other = storeKey();
    other.seed = 6;
    sampling::CheckpointSet out;
    EXPECT_EQ(cache().loadCheckpointSet(other, out).status,
              exp::CacheLoad::Absent);
    fs::copy_file(setPath(storeKey()), setPath(other));
    EXPECT_EQ(cache().loadCheckpointSet(other, out).status,
              exp::CacheLoad::Rejected);
    EXPECT_TRUE(loads(storeKey()));
}

TEST_F(CheckpointSetTest, HeaderEditsMiss)
{
    struct Case
    {
        const char *what;
        std::vector<std::pair<std::string, std::string>> edits;
    };
    const std::vector<Case> cases = {
        {"unreadable header", {{"{", "{broken"}}},
        {"stale salt",
         {{"\"salt\":\"test-salt/r1/s1\"", "\"salt\":\"other/r1/s1\""}}},
        {"stale arch version",
         {{"\"arch_version\":1", "\"arch_version\":999"}}},
        {"key field differs",
         {{"\"interval\":40000", "\"interval\":50000"}}},
        // Rejected before anything is allocated.
        {"a blob claims 2^60 bytes",
         {{"\"blobs\":[", "\"blobs\":[1152921504606846976,"}}},
        {"lengths wrap around to the payload size",
         {{"\"blobs\":[", "\"blobs\":[18446744073709551615,"},
          {"],\"hash\"", ",1],\"hash\""}}},
    };
    const std::string original = slurp(setPath(storeKey()));
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        std::string text = original;
        for (const auto &[from, to] : c.edits) {
            const size_t at = text.find(from);
            ASSERT_NE(at, std::string::npos) << from;
            text.replace(at, from.size(), to);
        }
        std::ofstream(setPath(storeKey()), std::ios::binary) << text;
        sampling::CheckpointSet out;
        EXPECT_EQ(cache().loadCheckpointSet(storeKey(), out).status,
                  exp::CacheLoad::Rejected);
    }
}

TEST_F(CheckpointSetTest, PayloadDamageMisses)
{
    const std::string original = slurp(setPath(storeKey()));
    const size_t body = original.find('\n') + 1;
    auto payloadHash = [&](const std::string &text) {
        return util::fnv1a128Hex(text.data() + body, text.size() - body);
    };
    auto expectMiss = [&](const std::string &text, const char *what) {
        SCOPED_TRACE(what);
        std::ofstream(setPath(storeKey()), std::ios::binary) << text;
        EXPECT_FALSE(loads(storeKey()));
    };

    expectMiss(original.substr(0, original.size() - 1), "truncated");

    std::string flipped = original;
    flipped[flipped.size() / 2] ^= 0x5a;
    expectMiss(flipped, "flipped payload byte");

    // Break the first blob's magic and re-hash the payload, so only
    // Checkpoint::deserialize can reject it.
    std::string undecodable = original;
    undecodable[body] ^= 0x5a;
    const std::string oldHash = payloadHash(original);
    undecodable.replace(undecodable.find(oldHash), oldHash.size(),
                        payloadHash(undecodable));
    expectMiss(undecodable, "undecodable blob");
}

TEST_F(CheckpointSetTest, ConcurrentRestoresNeverTearALoad)
{
    // One writer re-stores the set in a loop while this thread loads
    // it: every load must see one complete set, never a torn file.
    const std::string expected = setBytes(set_);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> restores{0};
    std::thread writer([&] {
        while (!stop.load()) {
            if (cache().storeCheckpointSet(storeKey(), set_))
                restores++;
        }
    });
    unsigned misses = 0, mismatches = 0;
    for (int i = 0; i < 1000; i++) {
        sampling::CheckpointSet loaded;
        if (!cache().loadCheckpointSet(storeKey(), loaded))
            misses++;
        else if (setBytes(loaded) != expected)
            mismatches++;
    }
    stop = true;
    writer.join();
    EXPECT_GT(restores.load(), 0u);
    EXPECT_EQ(misses, 0u);
    EXPECT_EQ(mismatches, 0u);
}

}  // namespace
