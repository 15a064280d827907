/**
 * @file
 * The benchmark's own tests: order statistics and the rule of ten,
 * failure counting, oracle mismatch detection, span self time, and a
 * quick-scale smoke of every workload and of the traced run.
 *
 * The smoke tests need the benchmark binary and the stored oracle; they
 * read their paths from PERFBENCH_BIN and PERFBENCH_ORACLE (set by
 * `python3 perfbench/run.py --self-test`) and skip otherwise.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include <unistd.h>

#include "jobs.hh"
#include "oracle.hh"
#include "pace.hh"
#include "runner.hh"
#include "stats.hh"
#include "trace.hh"
#include "util/json.hh"

using namespace perfbench;

namespace {

void
expectQuartiles(std::vector<double> v, double q1, double q2, double q3)
{
    const Quartiles q = quartiles(std::move(v));
    EXPECT_DOUBLE_EQ(q.q1, q1);
    EXPECT_DOUBLE_EQ(q.q2, q2);
    EXPECT_DOUBLE_EQ(q.q3, q3);
}

}  // namespace

TEST(Stats, MedianAndNearestRankPercentile)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    std::vector<double> v;
    for (int i = 1; i <= 60; i++)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 30);
    EXPECT_DOUBLE_EQ(percentile(v, 80), 48);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 60);
    EXPECT_DOUBLE_EQ(percentile({7}, 80), 7);
}

TEST(Stats, RuleOfTenSamplesBeyond)
{
    EXPECT_EQ(highestPercentileWithTail(50, 10), 80u);
    EXPECT_EQ(highestPercentileWithTail(60, 10), 83u);
    EXPECT_EQ(highestPercentileWithTail(64, 10), 84u);
    EXPECT_EQ(highestPercentileWithTail(80, 10), 87u);
    EXPECT_EQ(highestPercentileWithTail(10, 10), 0u);
    // Every job has enough points for the p80 it reports.
    for (const std::string &name : jobNames()) {
        const Job job = makeJob(name, 0);
        EXPECT_GE(highestPercentileWithTail(job.points.size(), 10), 80u)
            << name;
        std::vector<double> idx;
        for (size_t i = 0; i < job.points.size(); i++)
            idx.push_back(double(i));
        const double p80 = percentile(idx, 80);
        EXPECT_GE(job.points.size() - size_t(p80) - 1, 10u) << name;
    }
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    // statistics.quantiles(data, n=4) on the same data.
    expectQuartiles({1, 2}, 0.75, 1.5, 2.25);
    expectQuartiles({1, 2, 3, 4}, 1.25, 2.5, 3.75);
    expectQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25);
    expectQuartiles({5, 1, 9, 3, 7}, 2, 5, 8);
    EXPECT_DOUBLE_EQ(quartiles({2, 2, 2}).spread(), 0.0);
}

TEST(Stats, FailedFracCounting)
{
    FailTally t;
    t.addPass({true, true, true, true}, 0);
    EXPECT_EQ(t.attempted, 4u);
    EXPECT_EQ(t.failed, 0u);
    EXPECT_DOUBLE_EQ(t.failedFrac(), 0.0);
    EXPECT_DOUBLE_EQ(t.okFrac(), 1.0);

    t.addPass({true, false, true, true}, 0);
    EXPECT_EQ(t.failed, 1u);
    // A warm rerun that recomputed two points fails two more...
    t.addPass({true, true, true, true}, 2);
    EXPECT_EQ(t.failed, 3u);
    // ...but a point fails at most once per pass.
    t.addPass({false, false, true, true}, 5);
    EXPECT_EQ(t.failed, 7u);
    EXPECT_EQ(t.attempted, 16u);
    EXPECT_DOUBLE_EQ(t.failedFrac(), 7.0 / 16.0);
    EXPECT_DOUBLE_EQ(t.okFrac(), 9.0 / 16.0);
    EXPECT_DOUBLE_EQ(FailTally{}.failedFrac(), 0.0);
}

TEST(Pace, RescalesByTheSamplesAroundAUnit)
{
    Pace p;
    EXPECT_DOUBLE_EQ(p.rescale(10, 0), 10);  // no samples: unchanged
    p.record(kReferenceNs);
    EXPECT_DOUBLE_EQ(p.rescale(10, 0), 10);  // no sample after unit 0
    p.record(3 * kReferenceNs);
    // Unit 0: median of the samples 1, 3 (x kReferenceNs) is 2.
    EXPECT_DOUBLE_EQ(p.rescale(10, 0), 5);
    p.record(2 * kReferenceNs);
    p.record(2 * kReferenceNs);
    p.record(kReferenceNs / 2);
    // Unit 0 now sees 1, 3, 2: median 2. Unit 2 sees 3, 2, 2, 0.5:
    // median 2, so the 0.5 outlier does not move it.
    EXPECT_DOUBLE_EQ(p.rescale(10, 0), 5);
    EXPECT_DOUBLE_EQ(p.rescale(8, 2), 4);
    // The last unit sees 2, 2, 0.5: median 2.
    EXPECT_DOUBLE_EQ(p.rescale(8, 3), 4);
    EXPECT_DOUBLE_EQ(p.rescale(8, 4), 8);  // no sample after unit 4
    EXPECT_DOUBLE_EQ(p.medianNs(), 2 * kReferenceNs);
    EXPECT_GT(referenceKernelNs(), 0u);
}

TEST(Oracle, DetectsPerturbedRecords)
{
    pbs::exp::Measurement m;
    m.stats.instructions = 1000;
    m.stats.cycles = 800;
    m.stats.branches = 100;
    m.stats.mispredicts = 7;
    m.stats.steeredBranches = 3;
    m.outputs = {3.14159, 2.5};
    m.hasSampling = true;
    m.sampling.intervals = 4;
    m.sampling.ipc = 1.25;
    m.sampling.ipcCi95 = 0.01;
    m.sampling.mpki = 7.0;
    const Record want = recordOf(m);
    EXPECT_EQ(diffRecord(want, recordOf(m)), "");

    pbs::exp::Measurement bad = m;
    bad.stats.cycles++;
    EXPECT_NE(diffRecord(want, recordOf(bad)).find("cycles"),
              std::string::npos);
    bad = m;
    bad.stats.steeredBranches--;
    EXPECT_NE(diffRecord(want, recordOf(bad)).find("steered"),
              std::string::npos);
    bad = m;
    bad.outputs[1] = std::nextafter(2.5, 3.0);
    EXPECT_NE(diffRecord(want, recordOf(bad)).find("outputs"),
              std::string::npos);
    bad = m;
    bad.sampling.ipc = std::nextafter(1.25, 2.0);
    EXPECT_NE(diffRecord(want, recordOf(bad)).find("ipc"),
              std::string::npos);
    bad = m;
    bad.hasSampling = false;
    EXPECT_NE(diffRecord(want, recordOf(bad)), "");
}

TEST(Oracle, SaveLoadRoundTripIsExact)
{
    pbs::exp::Measurement m;
    m.stats.instructions = 123456789012ull;
    m.outputs = {0.1, 1e-300};
    m.hasSampling = true;
    m.sampling.ipc = 0.1 + 0.2;
    m.sampling.mpkiCi95 = 1.0 / 3.0;
    Oracle o;
    Record r = recordOf(m);
    r.hasReference = true;
    r.reference.cycles = 42;
    o[oracleKey("sampled-campaign", "pi|tage-sc-l|pbs|7")] = r;
    o[oracleKey("zoo-mpki", "pi|loop|-|7")] = recordOf(pbs::exp::Measurement{});

    const auto dir = std::filesystem::temp_directory_path() /
                     ("perfbench-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "o.jsonl").string();
    ASSERT_TRUE(saveOracle(path, o));
    Oracle back;
    std::string err;
    ASSERT_TRUE(loadOracle(path, back, err)) << err;
    std::filesystem::remove_all(dir);
    ASSERT_EQ(back.size(), 2u);
    const Record &b = back.at(oracleKey("sampled-campaign",
                                        "pi|tage-sc-l|pbs|7"));
    EXPECT_EQ(diffRecord(r, b), "");
    EXPECT_TRUE(b.hasReference);
    EXPECT_EQ(b.reference.cycles, 42u);
}

TEST(Jobs, ShapesMatchThePaperJobs)
{
    const Job fig = makeJob("fig07-detailed", 0);
    EXPECT_EQ(fig.points.size(), 60u);
    EXPECT_EQ(fig.jobs, 1u);
    const Job zoo = makeJob("zoo-mpki", 3);
    EXPECT_EQ(zoo.points.size(), 80u);
    const Job smp = makeJob("sampled-campaign", 3);
    EXPECT_EQ(smp.points.size(), 64u);
    EXPECT_EQ(smp.groups.size(), 16u);
    EXPECT_EQ(smp.jobs, 2u);
    std::set<uint64_t> seeds;
    for (const auto &pt : smp.points)
        seeds.insert(pt.seed);
    EXPECT_EQ(seeds.size(), 2u);
    EXPECT_EQ(seeds.count(12345), 0u);
    EXPECT_EQ(seeds.count(kCampaignAnchorSeed), 1u);
    EXPECT_EQ(seeds.count(programSeed(3, 0)), 1u);
    // Input set 0 is the paper harness's seeds.
    EXPECT_EQ(programSeed(0, 0), 12345u);
    EXPECT_EQ(programSeed(0, 3), 3u);
    EXPECT_EQ(makeJob("fig07-detailed", 5).keys,
              makeJob("fig07-detailed", 5).keys);
    EXPECT_NE(programSeed(1, 0), programSeed(2, 0));
    EXPECT_EQ(poolIndex(17), 1u);
    EXPECT_THROW(makeJob("nope", 0), std::invalid_argument);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren)
{
    std::vector<SpanRecord> s(4);
    s[0] = {"root", 0, 100, -1, 1};
    s[1] = {"a", 10, 40, 0, 1};
    s[2] = {"b", 30, 60, 0, 1};   // overlaps a (another worker)
    s[3] = {"c", 20, 30, 1, 1};
    const std::vector<uint64_t> self = selfTimes(s);
    EXPECT_EQ(self[0], 50u);  // 100 - |[10, 60]|
    EXPECT_EQ(self[1], 20u);
    EXPECT_EQ(self[2], 30u);
    EXPECT_EQ(self[3], 10u);
}

TEST(Accuracy, MeanErrorsAndCoverage)
{
    Record a, b;
    a.reference.instructions = 1000;
    a.reference.cycles = 1000;  // IPC 1
    a.reference.mispredicts = 10;
    a.estimate.ipc = 1.1;
    a.estimate.ipcCi95 = 0.2;
    a.estimate.mpki = 12;
    b = a;
    b.estimate.ipc = 0.95;
    b.estimate.ipcCi95 = 0.01;
    b.estimate.mpki = 10;
    const Accuracy acc = accuracyOf({a, b});
    EXPECT_NEAR(acc.ipcErrPct, 7.5, 1e-9);
    EXPECT_NEAR(acc.mpkiAbsErr, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(acc.coverage, 0.5);
}

// ---------------------------------------------------------------------
// Quick-scale smoke of the benchmark binary.
// ---------------------------------------------------------------------

namespace {

struct Smoke
{
    int status = -1;
    pbs::util::JsonValue result;
};

Smoke
runBench(const std::string &args)
{
    Smoke s;
    const char *bin = std::getenv("PERFBENCH_BIN");
    const char *oracle = std::getenv("PERFBENCH_ORACLE");
    const auto scratch = std::filesystem::temp_directory_path() /
                         ("perfbench-smoke-" + std::to_string(::getpid()));
    std::filesystem::create_directories(scratch);
    const std::string cmd = std::string(bin) + " " + args +
                            " --quick --oracle-dir " + oracle +
                            " --scratch-dir " + scratch.string() +
                            " 2>/dev/null";
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return s;
    std::string out, last;
    char buf[4096];
    while (fgets(buf, sizeof buf, p))
        out += buf;
    s.status = pclose(p);
    std::filesystem::remove_all(scratch);
    size_t end = out.find_last_not_of('\n');
    size_t start = out.rfind('\n', end);
    last = out.substr(start == std::string::npos ? 0 : start + 1,
                      end == std::string::npos ? 0 : end + 1 -
                          (start == std::string::npos ? 0 : start + 1));
    std::string err;
    pbs::util::parseJson(last, s.result, err);
    return s;
}

bool
smokeAvailable()
{
    return std::getenv("PERFBENCH_BIN") && std::getenv("PERFBENCH_ORACLE");
}

std::set<std::string>
metricNames(const pbs::util::JsonValue &result)
{
    std::set<std::string> names;
    if (const auto *m = result.find("metrics"))
        for (const auto &[k, v] : m->members)
            names.insert(k);
    return names;
}

}  // namespace

TEST(Smoke, EveryWorkloadAtQuickScale)
{
    if (!smokeAvailable())
        GTEST_SKIP() << "PERFBENCH_BIN / PERFBENCH_ORACLE not set";
    for (const std::string &name : jobNames()) {
        const Smoke s = runBench("--workload " + name +
                                  " --seed 0 --seconds 1 --trace 0");
        ASSERT_EQ(s.status, 0) << name;
        ASSERT_TRUE(s.result.find("correct")) << name;
        EXPECT_TRUE(s.result.find("correct")->asBool()) << name;
        EXPECT_EQ(s.result.find("failed")->asU64(), 0u) << name;
        EXPECT_GE(s.result.find("attempted")->asU64(), 1u) << name;
        const auto names = metricNames(s.result);
        EXPECT_EQ(names.size(), 10u) << name;
        for (const char *k : {"setup_s", "job_wall_s", "sim_mips",
                              "inst_ns_p50", "inst_ns_p80", "peak_rss_mb",
                              "ok_frac", "sampled_ipc_err_pct",
                              "sampled_mpki_abs_err", "ci95_coverage"}) {
            ASSERT_TRUE(names.count(k)) << name << " " << k;
            EXPECT_GT(s.result.find("metrics")->find(k)->find("value")
                          ->asDouble(), 0.0)
                << name << " " << k;
        }
    }
}

TEST(Smoke, TracedRunPassesItsChecks)
{
    if (!smokeAvailable())
        GTEST_SKIP() << "PERFBENCH_BIN / PERFBENCH_ORACLE not set";
    const Smoke s = runBench(
        "--workload sampled-campaign --seed 0 --seconds 1 --trace 1");
    ASSERT_EQ(s.status, 0);
    EXPECT_TRUE(s.result.find("correct")->asBool());
    const auto names = metricNames(s.result);
    for (const char *k :
         {"workloads.build_ms", "isa.decode_ms", "sampling.func_ns_per_inst",
          "cpu.timing_ns_per_inst", "bpred.tage-sc-l.ns_per_branch",
          "mem.l2_miss_rate", "sampling.warmup_frac", "exp.captures",
          "util.pool_busy_frac", "trace.overhead_s"})
        EXPECT_TRUE(names.count(k)) << k;
    const auto *m = s.result.find("metrics");
    EXPECT_DOUBLE_EQ(m->find("exp.disk_hit_frac")->find("value")->asDouble(),
                     1.0);
    EXPECT_DOUBLE_EQ(m->find("exp.captures")->find("value")->asDouble(),
                     16.0);
}
