#include "driver/runner.hh"

#include "driver/reports.hh"
#include "exp/cache.hh"
#include "exp/engine.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace pbs::driver {

std::vector<exp::ExpPoint>
batchPoints(const DriverOptions &opts)
{
    const auto &b = workloads::benchmarkByName(opts.workload);
    exp::ExpPoint pt;
    pt.workload = opts.workload;
    pt.predictor = opts.predictor;
    pt.variant = exp::variantName(opts.variant);
    pt.wide = opts.wide;
    pt.mode = opts.mode;
    pt.functional = opts.functional;
    pt.pbs = opts.pbs;
    pt.sampleInterval = opts.sampleInterval;
    pt.sampleWarmup = opts.sampleWarmup;
    pt.sampleMeasure = opts.sampleMeasure;
    pt.stallOnBusy = !opts.noStall;
    pt.contextSupport = !opts.noContext;
    pt.constValGuard = !opts.noGuard;
    pt.scale = opts.scale ? opts.scale
                          : exp::resolvedScale(b, opts.divisor);

    std::vector<exp::ExpPoint> points(opts.seeds, pt);
    for (unsigned i = 0; i < opts.seeds; i++)
        points[i].seed = opts.seed + i;
    return points;
}

std::vector<exp::Measurement>
measureBatch(const DriverOptions &opts)
{
    exp::EngineConfig ecfg;
    ecfg.jobs = opts.jobs;
    exp::Engine engine(ecfg);

    const std::vector<exp::ExpPoint> points = batchPoints(opts);
    engine.runAll(points);
    std::vector<exp::Measurement> runs;
    runs.reserve(points.size());
    for (const auto &pt : points)
        runs.push_back(engine.measure(pt));
    return runs;
}

namespace {

/** Batch table for sampled-mode runs: estimates with their CIs. */
std::string
formatSampledBatch(const DriverOptions &opts,
                   const std::vector<exp::Measurement> &runs)
{
    stats::TextTable table;
    table.header({"seed", "instructions", "samples", "detail%",
                  "ipc", "+/-95%", "mpki", "+/-95%", "output[0]"});

    stats::RunningStat ipc, mpki;
    for (size_t i = 0; i < runs.size(); i++) {
        const auto &s = runs[i].stats;
        const auto &e = runs[i].sampling;
        double detailPct = s.instructions
            ? 100.0 * double(e.detailedInstructions) /
                  double(s.instructions)
            : 0.0;
        ipc.push(e.ipc);
        mpki.push(e.mpki);
        table.row({std::to_string(opts.seed + i),
                   std::to_string(s.instructions),
                   e.exact ? "exact" : std::to_string(e.intervals),
                   stats::TextTable::num(detailPct, 1),
                   stats::TextTable::num(e.ipc, 3),
                   stats::TextTable::num(e.ipcCi95, 3),
                   stats::TextTable::num(e.mpki, 2),
                   stats::TextTable::num(e.mpkiCi95, 2),
                   runs[i].outputs.empty()
                       ? "-"
                       : stats::TextTable::num(runs[i].outputs[0], 5)});
    }

    std::string out = table.render();
    if (runs.size() > 1) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\n%zu seeds: ipc %.3f +/- %.3f, mpki %.2f +/- "
                      "%.2f (across-seed 95%% CI)\n",
                      runs.size(), ipc.mean(), ipc.ci95HalfWidth(),
                      mpki.mean(), mpki.ci95HalfWidth());
        out += buf;
    }
    return out;
}

/** The batch `config` object: the options with every default resolved. */
void
writeBatchConfig(exp::JsonWriter &w, const DriverOptions &opts,
                 const exp::ExpPoint &pt)
{
    w.beginObject();
    w.key("workload").value(opts.workload);
    w.key("predictor").value(opts.predictor);
    w.key("variant").value(pt.variant);
    w.key("wide").value(opts.wide);
    w.key("mode").value(opts.mode);
    w.key("functional").value(opts.functional);
    w.key("pbs").value(opts.pbs);
    if (opts.mode == "sampled") {
        // Echo the *effective* parameters (defaults resolved), so the
        // run is reproducible from the artifact alone.
        const cpu::SampleParams sp = exp::pointCoreConfig(pt).sample;
        w.key("sample_interval").value(sp.interval);
        w.key("sample_warmup").value(sp.warmup);
        w.key("sample_measure").value(sp.measure);
        w.key("sample_max").value(sp.maxSamples);
        if (opts.seeds == 1) {
            w.key("ckpt_set").value(exp::storeSetHash(
                exp::checkpointStoreKey(pt, exp::versionSalt())));
        }
    }
    w.key("stall").value(!opts.noStall);
    w.key("context").value(!opts.noContext);
    w.key("guard").value(!opts.noGuard);
    w.key("scale").value(pt.scale);
    w.key("div").value(opts.divisor);
    w.key("seed").value(opts.seed);
    w.key("seeds").value(opts.seeds);
    w.endObject();
}

}  // namespace

std::string
formatBatch(const DriverOptions &opts,
            const std::vector<exp::Measurement> &runs)
{
    if (!runs.empty() && runs.front().hasSampling)
        return formatSampledBatch(opts, runs);

    stats::TextTable table;
    table.header({"seed", "instructions", "cycles", "ipc", "mpki",
                  "prob-branches", "steered", "output[0]"});

    stats::RunningStat ipc, mpki, steered;
    for (size_t i = 0; i < runs.size(); i++) {
        const auto &s = runs[i].stats;
        double steeredFrac = s.probBranches
            ? double(s.steeredBranches) / double(s.probBranches) : 0.0;
        ipc.push(s.ipc());
        mpki.push(s.mpki());
        steered.push(steeredFrac);
        table.row({std::to_string(opts.seed + i),
                   std::to_string(s.instructions),
                   std::to_string(s.cycles),
                   stats::TextTable::num(s.ipc(), 3),
                   stats::TextTable::num(s.mpki(), 2),
                   std::to_string(s.probBranches),
                   stats::TextTable::pct(steeredFrac),
                   runs[i].outputs.empty()
                       ? "-"
                       : stats::TextTable::num(runs[i].outputs[0], 5)});
    }

    std::string out = table.render();
    if (runs.size() > 1) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\n%zu seeds: ipc %.3f +/- %.3f, mpki %.2f +/- "
                      "%.2f, steered %.1f%%\n",
                      runs.size(), ipc.mean(), ipc.ci95HalfWidth(),
                      mpki.mean(), mpki.ci95HalfWidth(),
                      steered.mean() * 100.0);
        out += buf;
    }
    return out;
}

std::string
batchJson(const DriverOptions &opts,
          const std::vector<exp::Measurement> &runs)
{
    exp::JsonWriter w;
    w.beginObject();
    w.key("schema").value("pbs-batch-v2");

    w.key("config");
    writeBatchConfig(w, opts, batchPoints(opts).front());

    w.key("runs").beginArray();
    for (size_t i = 0; i < runs.size(); i++) {
        w.newline();
        w.beginObject();
        w.key("seed").value(opts.seed + i);
        w.key("result");
        exp::writeMeasurement(w, exp::PointKind::Sim, runs[i]);
        w.key("derived").beginObject();
        w.key("ipc").value(runs[i].stats.ipc());
        w.key("mpki").value(runs[i].stats.mpki());
        w.endObject();
        w.endObject();
    }
    w.newline();
    w.endArray();
    w.endObject();
    w.newline();
    return w.str();
}

void
runWorkload(const DriverOptions &opts)
{
    char title[128];
    std::snprintf(title, sizeof(title),
                  "pbs_sim: %s, %s%s, %s%s", opts.workload.c_str(),
                  opts.predictor.c_str(), opts.pbs ? "+pbs" : "",
                  opts.functional ? "mpki" : opts.mode.c_str(),
                  opts.wide ? ", 8-wide" : "");
    banner(title, opts.divisor);

    std::printf("%s\n", formatBatch(opts, measureBatch(opts)).c_str());
}

}  // namespace pbs::driver
