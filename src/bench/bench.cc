#include "bench/bench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "bpred/factory.hh"
#include "cpu/core.hh"
#include "exp/json.hh"
#include "exp/point.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "sampling/functional.hh"
#include "sampling/sampled.hh"
#include "util/hash.hh"
#include "util/task_pool.hh"
#include "workloads/common.hh"

namespace pbs::bench {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** The experiment point a bench point measures (4-wide core, the
 *  paper's baseline). */
exp::ExpPoint
expPointFor(const BenchPoint &p, const BenchConfig &bench)
{
    exp::ExpPoint pt;
    pt.workload = p.workload;
    pt.predictor = p.predictor;
    pt.pbs = p.pbs;
    if (p.mode == "mpki")
        pt.functional = true;
    else
        pt.mode = p.mode;
    if (pt.mode == "sampled") {
        pt.sampleInterval = bench.sample.interval;
        pt.sampleWarmup = bench.sample.warmup;
        pt.sampleMeasure = bench.sample.measure;
    }
    pt.scale = exp::resolvedScale(
        workloads::benchmarkByName(p.workload), std::max(1u, bench.divisor));
    pt.seed = bench.seed;
    return pt;
}

const char *const kBenchModes[] = {"detailed", "functional", "sampled",
                                   "mpki"};

bool
knownMode(const std::string &m)
{
    for (const char *k : kBenchModes) {
        if (m == k)
            return true;
    }
    return false;
}

/**
 * Emit the deterministic prefix shared by the content-hash body and
 * the artifact: schema tag + config members. One emitter for both so
 * the hash contract cannot drift from the artifact.
 */
void
writeHeaderFields(exp::JsonWriter &w, const BenchConfig &cfg)
{
    w.key("schema").value("pbs-bench-v2");
    w.key("config").beginObject();
    w.key("divisor").value(cfg.divisor);
    w.key("seed").value(cfg.seed);
    w.key("sample_interval").value(cfg.sample.interval);
    w.key("sample_warmup").value(cfg.sample.warmup);
    w.key("sample_measure").value(cfg.sample.measure);
    w.endObject();
}

/** Emit one point's deterministic members (hashed; no wall times). */
void
writePointFields(exp::JsonWriter &w, const BenchResult &r)
{
    w.key("workload").value(r.point.workload);
    w.key("predictor").value(r.point.predictor);
    w.key("pbs").value(r.point.pbs);
    w.key("mode").value(r.point.mode);
    w.key("instructions").value(r.metrics.instructions);
    w.key("cycles").value(r.metrics.cycles);
    w.key("branches").value(r.metrics.branches);
    w.key("mispredicts").value(r.metrics.mispredicts);
    w.key("steered").value(r.metrics.steered);
}

/** The deterministic body that contentHash covers. */
std::string
deterministicBody(const std::vector<BenchResult> &results,
                  const BenchConfig &cfg)
{
    exp::JsonWriter w;
    w.beginObject();
    writeHeaderFields(w, cfg);
    w.key("points").beginArray();
    for (const auto &r : results) {
        w.beginObject();
        writePointFields(w, r);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

}  // namespace

std::vector<BenchPoint>
standardPoints()
{
    std::vector<BenchPoint> points;
    const auto &preds = bpred::predictorNames();
    for (const auto &b : workloads::allBenchmarks()) {
        for (const auto &p : preds)
            points.push_back({b.name, p, false});
        points.push_back({b.name, "tage-sc-l", true});
    }
    return points;
}

std::vector<BenchPoint>
filterPoints(const std::vector<BenchPoint> &points,
             const std::string &workloads, const std::string &predictors)
{
    auto splitCsv = [](const std::string &s) {
        std::vector<std::string> out;
        size_t start = 0;
        while (start <= s.size()) {
            size_t comma = s.find(',', start);
            if (comma == std::string::npos)
                comma = s.size();
            if (comma > start)
                out.push_back(s.substr(start, comma - start));
            start = comma + 1;
        }
        return out;
    };
    auto contains = [](const std::vector<std::string> &v,
                       const std::string &x) {
        return std::find(v.begin(), v.end(), x) != v.end();
    };

    const auto ws = splitCsv(workloads);
    std::vector<std::string> ps;
    for (const auto &p : splitCsv(predictors)) {
        std::string canon = bpred::canonicalPredictor(p);
        if (canon.empty())
            throw std::invalid_argument("unknown predictor: " + p);
        ps.push_back(canon);
    }
    for (const auto &w : ws)
        workloads::benchmarkByName(w);  // throws on unknown names

    std::vector<BenchPoint> out;
    for (const auto &pt : points) {
        if (!ws.empty() && !contains(ws, pt.workload))
            continue;
        if (!ps.empty() && !contains(ps, pt.predictor))
            continue;
        out.push_back(pt);
    }
    return out;
}

std::vector<BenchPoint>
expandModes(const std::vector<BenchPoint> &points,
            const std::string &modes)
{
    std::vector<std::string> list;
    size_t start = 0;
    while (start <= modes.size()) {
        size_t comma = modes.find(',', start);
        if (comma == std::string::npos)
            comma = modes.size();
        if (comma > start) {
            std::string m = modes.substr(start, comma - start);
            if (!knownMode(m))
                throw std::invalid_argument("unknown mode: " + m);
            list.push_back(m);
        }
        start = comma + 1;
    }
    if (list.empty())
        list.push_back("detailed");

    std::vector<BenchPoint> out;
    out.reserve(points.size() * list.size());
    for (const auto &pt : points) {
        for (const auto &m : list) {
            BenchPoint p = pt;
            p.mode = m;
            out.push_back(p);
        }
    }
    return out;
}

std::vector<BenchResult>
runBench(const std::vector<BenchPoint> &points, const BenchConfig &cfg)
{
    // Bench points and any sampled point's nested interval fan-out
    // share the scheduler. Note the consequence for timing: a sampled
    // point's wall_ms measures the whole sampled run, which can now
    // borrow idle workers — simulated MIPS for sampled mode is a
    // throughput figure for the *scheduled* run, not a single-thread
    // figure (the statistics fields stay byte-identical regardless).
    pool::TaskPool::instance().configure(std::max(1u, cfg.jobs));

    std::vector<BenchResult> results(points.size());
    pool::TaskPool::instance().parallelFor(
        points.size(),
        [&](size_t i) {
            const BenchPoint &pt = points[i];
            const auto &b = workloads::benchmarkByName(pt.workload);
            const exp::ExpPoint ept = expPointFor(pt, cfg);
            const cpu::CoreConfig coreCfg = exp::pointCoreConfig(ept);

            BenchResult r;
            r.point = pt;
            obs::Span span("point", pt.workload + " " + pt.predictor +
                                        " " + pt.mode);
            std::vector<double> repMs;
            repMs.reserve(std::max(1u, cfg.repeats));
            for (unsigned rep = 0;
                 rep < std::max(1u, cfg.repeats); rep++) {
                // Simulated-MIPS measures *simulation*: program
                // emission, predecode and table construction happen
                // outside the timed region (they are per-point
                // constants, not per-instruction costs), so the figure
                // tracks the hot loop the tests guard. Sampled mode is
                // the exception: its per-sample core construction and
                // checkpointing are intrinsic per-run costs, so its
                // timed region is the whole sampled simulation.
                isa::Program prog = b.build(exp::pointParams(ept),
                                            workloads::Variant::Marked);
                double ms;
                cpu::CoreStats s;
                cpu::DispatchCounts dc;
                if (coreCfg.execMode == cpu::ExecMode::Functional) {
                    sampling::FunctionalEngine engine(prog);
                    auto t0 = Clock::now();
                    engine.run();
                    ms = elapsedMs(t0, Clock::now());
                    s = engine.stats();
                    dc = engine.dispatchCounts();
                } else if (coreCfg.execMode == cpu::ExecMode::Sampled) {
                    auto t0 = Clock::now();
                    sampling::SampledRun sr =
                        sampling::runSampled(prog, coreCfg);
                    ms = elapsedMs(t0, Clock::now());
                    s = sr.stats;
                } else {
                    cpu::Core core(prog, coreCfg);
                    auto t0 = Clock::now();
                    core.run();
                    ms = elapsedMs(t0, Clock::now());
                    s = core.stats();
                    dc = core.dispatchCounts();
                }
                repMs.push_back(ms);
                obs::counterAdd("cpu.block_insts", dc.blockInsts);
                obs::counterAdd("cpu.stepped_insts", dc.steppedInsts);

                r.metrics.instructions = s.instructions;
                r.metrics.cycles = s.cycles;
                r.metrics.branches = s.branches;
                r.metrics.mispredicts = s.mispredicts;
                r.metrics.steered = s.steeredBranches;
            }
            // Min is the noise-robust point estimate (and the one the
            // baseline gate compares); median and mean ride along in
            // the unhashed timing fields so noisy CI runners can be
            // diagnosed from the artifact.
            std::sort(repMs.begin(), repMs.end());
            const size_t n = repMs.size();
            r.wallMs = repMs.front();
            r.wallMsMedian = (n % 2)
                ? repMs[n / 2]
                : 0.5 * (repMs[n / 2 - 1] + repMs[n / 2]);
            double sum = 0.0;
            for (double ms : repMs)
                sum += ms;
            r.wallMsMean = sum / double(n);
            r.mips = r.wallMs > 0.0
                ? double(r.metrics.instructions) / r.wallMs / 1000.0
                : 0.0;
            results[i] = r;
        },
        "bench");
    return results;
}

std::string
contentHash(const std::vector<BenchResult> &results,
            const BenchConfig &cfg)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      util::fnv1a64(deterministicBody(results, cfg))));
    return buf;
}

double
geomeanMips(const std::vector<BenchResult> &results)
{
    if (results.empty())
        return 0.0;
    double logsum = 0.0;
    unsigned n = 0;
    for (const auto &r : results) {
        if (r.mips > 0.0) {
            logsum += std::log(r.mips);
            n++;
        }
    }
    return n ? std::exp(logsum / n) : 0.0;
}

std::string
benchJson(const std::vector<BenchResult> &results,
          const BenchConfig &cfg)
{
    // The artifact interleaves the deterministic fields with the
    // volatile timing fields per point, but the hash covers only the
    // deterministic body (recomputable from the artifact by dropping
    // `wall_ms`, `mips` and `timing`).
    exp::JsonWriter w;
    w.beginObject();
    writeHeaderFields(w, cfg);
    w.key("points").beginArray();
    for (const auto &r : results) {
        w.newline();
        w.beginObject();
        writePointFields(w, r);
        w.key("wall_ms").value(r.wallMs);
        w.key("wall_ms_median").value(r.wallMsMedian);
        w.key("wall_ms_mean").value(r.wallMsMean);
        w.key("mips").value(r.mips);
        w.endObject();
    }
    w.endArray();
    w.key("timing").beginObject();
    w.key("geomean_mips").value(geomeanMips(results));
    double total = 0.0;
    for (const auto &r : results)
        total += r.wallMs;
    w.key("total_wall_ms").value(total);
    w.endObject();
    w.key("content_hash").value(contentHash(results, cfg));
    w.endObject();
    return w.str() + "\n";
}

unsigned
compareBaseline(const std::vector<BenchResult> &results,
                const std::string &baselineJson, double maxRegress,
                std::string &report)
{
    exp::JsonValue root;
    std::string err;
    if (!exp::parseJson(baselineJson, root, err))
        throw std::invalid_argument("baseline: malformed JSON: " + err);
    const exp::JsonValue *schema = root.find("schema");
    if (!schema || schema->asString() != "pbs-bench-v2")
        throw std::invalid_argument("baseline: not a pbs-bench-v2 file");
    const exp::JsonValue *points = root.find("points");
    if (!points)
        throw std::invalid_argument("baseline: missing points");

    auto baselineMips = [&](const BenchPoint &pt) -> double {
        for (const auto &p : points->items) {
            const auto *w = p.find("workload");
            const auto *pr = p.find("predictor");
            const auto *pb = p.find("pbs");
            const auto *m = p.find("mips");
            const auto *md = p.find("mode");
            if (w && pr && pb && m && md && w->asString() == pt.workload &&
                pr->asString() == pt.predictor &&
                pb->asBool() == pt.pbs && md->asString() == pt.mode) {
                return m->asDouble();
            }
        }
        return 0.0;
    };

    unsigned regressions = 0;
    char line[160];
    for (const auto &r : results) {
        double base = baselineMips(r.point);
        if (base <= 0.0)
            continue;  // point not in the baseline
        double ratio = r.mips / base;
        bool bad = r.mips < base * (1.0 - maxRegress);
        std::snprintf(line, sizeof(line),
                      "%-10s %-12s pbs=%d %-10s %8.2f -> %8.2f MIPS "
                      "(%+5.1f%%)%s\n",
                      r.point.workload.c_str(),
                      r.point.predictor.c_str(), r.point.pbs ? 1 : 0,
                      r.point.mode.c_str(), base, r.mips,
                      (ratio - 1.0) * 100.0, bad ? "  REGRESSED" : "");
        report += line;
        if (bad)
            regressions++;
    }
    return regressions;
}

}  // namespace pbs::bench
