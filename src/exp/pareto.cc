#include "exp/pareto.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "exp/engine.hh"
#include "exp/point.hh"
#include "stats/table.hh"

namespace pbs::exp {

namespace {

/** Mark the error-vs-speed frontier within [begin, end). */
void
markFrontier(std::vector<ParetoRow> &rows, size_t begin, size_t end)
{
    for (size_t i = begin; i < end; i++) {
        ParetoRow &r = rows[i];
        if (r.exact)
            continue;  // the fallback is not a sampling configuration
        const double err = std::max(r.ipcErrPct, r.mpkiErrPct);
        bool dominated = false;
        for (size_t j = begin; j < end && !dominated; j++) {
            if (j == i || rows[j].exact)
                continue;
            const double oErr =
                std::max(rows[j].ipcErrPct, rows[j].mpkiErrPct);
            dominated = oErr <= err &&
                        rows[j].sampledMips >= r.sampledMips &&
                        (oErr < err ||
                         rows[j].sampledMips > r.sampledMips);
        }
        r.frontier = !dominated;
    }
}

}  // namespace

const std::vector<SampleTriple> &
defaultSampleGrid()
{
    // Speed-leaning to accuracy-leaning around the subsystem defaults
    // (500k/100k/60k); every triple keeps warmup + measure <= interval.
    static const std::vector<SampleTriple> grid = {
        {2'000'000, 100'000, 50'000},
        {1'000'000, 100'000, 50'000},
        {500'000, 100'000, 60'000},
        {500'000, 50'000, 30'000},
        {250'000, 50'000, 30'000},
        {125'000, 25'000, 15'000},
    };
    return grid;
}

std::vector<ParetoRow>
runParetoSweep(const ParetoConfig &cfg)
{
    SweepSpec spec = cfg.spec;
    spec.modes = {"detailed"};
    if (spec.seeds != 1) {
        throw std::invalid_argument(
            "pareto: multi-seed sweeps are not supported; run one "
            "sweep per seed");
    }
    if (spec.sampleGrid.empty()) {
        if (spec.sampleInterval || spec.sampleWarmup ||
            spec.sampleMeasure) {
            // Scalar sample-* keys form a one-triple grid (defaults
            // resolved), so explicitly requested parameters are never
            // silently replaced by the built-in grid.
            const cpu::SampleParams sp = sampleParams(spec);
            spec.sampleGrid = {{sp.interval, sp.warmup, sp.measure}};
        } else {
            spec.sampleGrid = defaultSampleGrid();
        }
    }

    // Expand the detailed grid once; each point is one reference run
    // whose triples ride along.
    auto expanded = expandSpec(spec);
    if (!expanded.ok)
        throw std::invalid_argument(expanded.error);

    std::vector<ParetoRow> rows;
    size_t done = 0;
    const size_t totalRuns =
        expanded.points.size() * (1 + spec.sampleGrid.size());
    for (const ExpPoint &ref : expanded.points) {
        const TimedRun det = timePoint(ref, cfg.repeats);
        const double detIpc = det.result.stats.ipc();
        const double detMpki = det.result.stats.mpki();
        const double detMips = det.mips();
        if (cfg.progress) {
            std::fprintf(stderr,
                         "[%zu/%zu] %s %s%s detailed: %.1f MIPS\n",
                         ++done, totalRuns, ref.workload.c_str(),
                         ref.predictor.c_str(), ref.pbs ? "+pbs" : "",
                         detMips);
        }

        const size_t groupBegin = rows.size();
        for (const SampleTriple &t : spec.sampleGrid) {
            ExpPoint pt = ref;
            pt.mode = "sampled";
            pt.sampleInterval = t.interval;
            pt.sampleWarmup = t.warmup;
            pt.sampleMeasure = t.measure;

            const TimedRun timed = timePoint(pt, cfg.repeats);
            const Measurement &smp = timed.result;

            ParetoRow r;
            r.workload = ref.workload;
            r.predictor = ref.predictor;
            r.pbs = ref.pbs;
            r.interval = t.interval;
            r.warmup = t.warmup;
            r.measure = t.measure;
            r.exact = smp.sampling.exact;
            r.intervals = smp.sampling.intervals;
            r.detailPct = smp.stats.instructions
                ? 100.0 * double(smp.sampling.detailedInstructions) /
                      double(smp.stats.instructions)
                : 0.0;
            r.ipcErrPct = detIpc > 0.0
                ? 100.0 * std::fabs(smp.sampling.ipc - detIpc) / detIpc
                : 0.0;
            // MPKI error relative to max(detailed, 1.0): near-zero
            // references would otherwise blow up the percentage (the
            // same guard CI's accuracy gate uses).
            r.mpkiErrPct = 100.0 *
                std::fabs(smp.sampling.mpki - detMpki) /
                std::max(detMpki, 1.0);
            r.detailedMips = detMips;
            r.sampledMips = timed.mips();
            r.speedup =
                detMips > 0.0 ? r.sampledMips / detMips : 0.0;
            rows.push_back(r);

            if (cfg.progress) {
                std::fprintf(
                    stderr,
                    "[%zu/%zu] %s %s%s %llu/%llu/%llu: %.1f MIPS, "
                    "ipc err %.2f%%\n",
                    ++done, totalRuns, r.workload.c_str(),
                    r.predictor.c_str(), r.pbs ? "+pbs" : "",
                    (unsigned long long)t.interval,
                    (unsigned long long)t.warmup,
                    (unsigned long long)t.measure, r.sampledMips,
                    r.ipcErrPct);
            }
        }
        markFrontier(rows, groupBegin, rows.size());
    }
    return rows;
}

std::string
paretoTable(const std::vector<ParetoRow> &rows)
{
    stats::TextTable table;
    table.header({"workload", "predictor", "pbs", "interval", "warmup",
                  "measure", "samples", "detail%", "ipc-err%",
                  "mpki-err%", "mips", "speedup", "pareto"});
    for (const ParetoRow &r : rows) {
        table.row({r.workload, r.predictor, r.pbs ? "on" : "off",
                   std::to_string(r.interval),
                   std::to_string(r.warmup),
                   std::to_string(r.measure),
                   r.exact ? "exact" : std::to_string(r.intervals),
                   stats::TextTable::num(r.detailPct, 1),
                   stats::TextTable::num(r.ipcErrPct, 2),
                   stats::TextTable::num(r.mpkiErrPct, 2),
                   stats::TextTable::num(r.sampledMips, 1),
                   stats::TextTable::num(r.speedup, 2),
                   r.frontier ? "*" : ""});
    }
    return table.render();
}

std::string
paretoCsv(const std::vector<ParetoRow> &rows)
{
    std::string out =
        "workload,predictor,pbs,interval,warmup,measure,exact,"
        "samples,detail_pct,ipc_err_pct,mpki_err_pct,detailed_mips,"
        "sampled_mips,speedup,pareto\n";
    char buf[64];
    for (const ParetoRow &r : rows) {
        out += r.workload + ',' + r.predictor + ',';
        out += r.pbs ? "1," : "0,";
        auto u64 = [&](uint64_t v) {
            std::snprintf(buf, sizeof(buf), "%llu",
                          (unsigned long long)v);
            out += buf;
            out += ',';
        };
        u64(r.interval);
        u64(r.warmup);
        u64(r.measure);
        out += r.exact ? "1," : "0,";
        u64(r.intervals);
        auto dbl = [&](double v) {
            std::snprintf(buf, sizeof(buf), "%.4f", v);
            out += buf;
            out += ',';
        };
        dbl(r.detailPct);
        dbl(r.ipcErrPct);
        dbl(r.mpkiErrPct);
        dbl(r.detailedMips);
        dbl(r.sampledMips);
        dbl(r.speedup);
        out += r.frontier ? "1\n" : "0\n";
    }
    return out;
}

}  // namespace pbs::exp
