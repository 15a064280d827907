#include "bench/bench.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bpred/factory.hh"
#include "obs/obs.hh"
#include "util/hash.hh"
#include "util/json.hh"
#include "util/task_pool.hh"
#include "workloads/common.hh"

namespace pbs::bench {

namespace {

/**
 * Emit the deterministic prefix shared by the content-hash body and
 * the artifact: schema tag + config members. One emitter for both so
 * the hash contract cannot drift from the artifact.
 */
void
writeHeaderFields(util::JsonWriter &w, const BenchConfig &cfg)
{
    w.key("schema").value("pbs-bench-v2");
    w.key("config").beginObject();
    const cpu::SampleParams sample = exp::sampleParams(cfg.spec);
    w.key("divisor").value(cfg.spec.divisor);
    w.key("seed").value(cfg.spec.seed);
    w.key("sample_interval").value(sample.interval);
    w.key("sample_warmup").value(sample.warmup);
    w.key("sample_measure").value(sample.measure);
    w.endObject();
}

/** Emit one point's deterministic members (hashed; no wall times). */
void
writePointFields(util::JsonWriter &w, const BenchResult &r)
{
    const cpu::CoreStats &s = r.run.result.stats;
    w.key("workload").value(r.point.workload);
    w.key("predictor").value(r.point.predictor);
    w.key("pbs").value(r.point.pbs);
    // Only a --pbs grid has the ablation settings; the standard grid's
    // points (and so its content hash) keep the plain on/off flag.
    const std::string setting = exp::pbsSetting(r.point);
    if (setting != "off" && setting != "on")
        w.key("pbs_setting").value(setting);
    w.key("mode").value(exp::modeName(r.point));
    w.key("instructions").value(s.instructions);
    w.key("cycles").value(s.cycles);
    w.key("branches").value(s.branches);
    w.key("mispredicts").value(s.mispredicts);
    w.key("steered").value(s.steeredBranches);
}

/** The deterministic body that contentHash covers. */
std::string
deterministicBody(const std::vector<BenchResult> &results,
                  const BenchConfig &cfg)
{
    util::JsonWriter w;
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

exp::SweepSpec
standardSpec()
{
    exp::SweepSpec spec;
    spec.workloads = {"all"};
    spec.predictors = bpred::predictorNames();
    spec.divisor = 4;
    return spec;
}

exp::ExpandResult
standardGrid(exp::SweepSpec spec, bool pbsAxis)
{
    const std::vector<std::string> pbsModes = spec.pbsModes;
    // Expanding the spec as given validates every axis value and
    // resolves "all" and predictor aliases.
    const exp::ExpandResult selected = exp::expandSpec(spec);
    if (!selected.ok)
        return selected;
    auto picked = [&](std::string exp::ExpPoint::*axis,
                      const std::string &name) {
        return std::any_of(selected.points.begin(), selected.points.end(),
                           [&](const exp::ExpPoint &pt) {
                               return pt.*axis == name;
                           });
    };
    std::vector<std::string> predictors;
    for (const auto &p : bpred::predictorNames()) {
        if (picked(&exp::ExpPoint::predictor, p))
            predictors.push_back(p);
    }

    exp::ExpandResult grid;
    grid.ok = true;
    auto append = [&](const std::string &workload,
                      std::vector<std::string> preds,
                      std::vector<std::string> pbs) {
        spec.workloads = {workload};
        spec.predictors = std::move(preds);
        spec.pbsModes = std::move(pbs);
        const auto part = exp::expandSpec(spec).points;
        grid.points.insert(grid.points.end(), part.begin(), part.end());
    };
    for (const auto &b : workloads::allBenchmarks()) {
        if (!picked(&exp::ExpPoint::workload, b.name))
            continue;
        if (pbsAxis) {
            append(b.name, predictors, pbsModes);
            continue;
        }
        append(b.name, predictors, {"off"});
        if (picked(&exp::ExpPoint::predictor, "tage-sc-l"))
            append(b.name, {"tage-sc-l"}, {"on"});
    }
    return grid;
}

std::vector<BenchResult>
runBench(const std::vector<exp::ExpPoint> &points, const BenchConfig &cfg)
{
    // Bench points and any sampled point's nested interval fan-out
    // share the scheduler. Note the consequence for timing: a sampled
    // point's wall_ms measures the whole sampled run, which can
    // borrow idle workers — simulated MIPS for sampled mode is a
    // throughput figure for the *scheduled* run, not a single-thread
    // figure (the statistics fields stay byte-identical regardless).
    pool::TaskPool::instance().configure(std::max(1u, cfg.jobs));

    std::vector<BenchResult> results(points.size());
    pool::TaskPool::instance().parallelFor(
        points.size(),
        [&](size_t i) {
            const exp::ExpPoint &pt = points[i];
            obs::Span span("point", pt.workload + " " + pt.predictor +
                                        " " + exp::modeName(pt));
            results[i] = {pt, exp::timePoint(pt, cfg.repeats)};
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
        if (r.run.mips() > 0.0) {
            logsum += std::log(r.run.mips());
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
    util::JsonWriter w;
    w.beginObject();
    writeHeaderFields(w, cfg);
    w.key("points").beginArray();
    for (const auto &r : results) {
        w.newline();
        w.beginObject();
        writePointFields(w, r);
        w.key("wall_ms").value(r.run.bestMs);
        w.key("wall_ms_median").value(r.run.medianMs);
        w.key("wall_ms_mean").value(r.run.meanMs);
        w.key("mips").value(r.run.mips());
        w.endObject();
    }
    w.endArray();
    w.key("timing").beginObject();
    w.key("geomean_mips").value(geomeanMips(results));
    double total = 0.0;
    for (const auto &r : results)
        total += r.run.bestMs;
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
    util::JsonValue root;
    std::string err;
    if (!util::parseJson(baselineJson, root, err))
        throw std::invalid_argument("baseline: malformed JSON: " + err);
    const util::JsonValue *schema = root.find("schema");
    if (!schema || schema->asString() != "pbs-bench-v2")
        throw std::invalid_argument("baseline: not a pbs-bench-v2 file");
    const util::JsonValue *points = root.find("points");
    if (!points)
        throw std::invalid_argument("baseline: missing points");

    auto baselineMips = [&](const exp::ExpPoint &pt) -> double {
        for (const auto &p : points->items) {
            const auto *w = p.find("workload");
            const auto *pr = p.find("predictor");
            const auto *pb = p.find("pbs");
            const auto *m = p.find("mips");
            const auto *md = p.find("mode");
            if (w && pr && pb && m && md && w->asString() == pt.workload &&
                pr->asString() == pt.predictor &&
                pb->asBool() == pt.pbs &&
                md->asString() == exp::modeName(pt)) {
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
        const double mips = r.run.mips();
        double ratio = mips / base;
        bool bad = mips < base * (1.0 - maxRegress);
        std::snprintf(line, sizeof(line),
                      "%-10s %-12s pbs=%d %-10s %8.2f -> %8.2f MIPS "
                      "(%+5.1f%%)%s\n",
                      r.point.workload.c_str(),
                      r.point.predictor.c_str(), r.point.pbs ? 1 : 0,
                      exp::modeName(r.point).c_str(), base, mips,
                      (ratio - 1.0) * 100.0, bad ? "  REGRESSED" : "");
        report += line;
        if (bad)
            regressions++;
    }
    return regressions;
}

}  // namespace pbs::bench
