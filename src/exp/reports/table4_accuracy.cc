/**
 * @file
 * Section VII-D: correctness of the output under PBS.
 *
 * Paper results: zero relative error for DOP, Greeks, Swaptions,
 * MC-integ and PI (at 1.3-17 G instructions); overlapping success-rate
 * confidence intervals for Genetic; 3.9% average RMS error for Photon;
 * zero reward/regret error for Bandit.
 *
 * At this reproduction's reduced scales the Monte-Carlo accumulators
 * show the (bounded) bootstrap perturbation instead of exact zeros; the
 * error shrinks as 1/iterations.
 */

#include <algorithm>

#include "exp/reports.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace pbs::exp {

namespace {

/** Genetic's operating point: a 6-generation budget (paper Sec VII-D). */
exp::ExpPoint
geneticTrialPoint(const workloads::BenchmarkDesc &b, unsigned div,
                  uint64_t seed)
{
    exp::ExpPoint pt = functionalPoint(b, "tage-sc-l", true, div, seed);
    pt.scale = 6;
    return pt;
}

}  // namespace

int
reportTable4(ReportContext &ctx)
{
    const unsigned div = ctx.divisor;
    banner("Sec. VII-D: output accuracy under PBS", div);

    std::vector<exp::ExpPoint> grid;
    for (const auto &b : workloads::allBenchmarks()) {
        if (b.name == "genetic") {
            for (uint64_t seed = 1; seed <= 100; seed++)
                grid.push_back(geneticTrialPoint(b, div, seed));
        } else {
            grid.push_back(functionalPoint(b, "tage-sc-l", true, div));
        }
    }
    ctx.engine.runAll(grid);

    stats::TextTable table;
    table.header({"benchmark", "metric", "original", "pbs", "deviation",
                  "paper"});

    for (const auto &b : workloads::allBenchmarks()) {
        auto p = paramsFor(b, div);

        if (b.name == "genetic") {
            // Success rate over 100 trials with a 6-generation budget
            // (tuned so the original code succeeds ~20% of the time,
            // the paper's operating point), 95% CIs on the rate.
            stats::RunningStat orig, pbs_s;
            for (uint64_t seed = 1; seed <= 100; seed++) {
                auto tp = paramsFor(b, div, seed);
                tp.scale = 6;
                orig.push(b.nativeOutput(tp)[0]);
                const auto &r = ctx.engine.measure(
                    geneticTrialPoint(b, div, seed));
                pbs_s.push(r.outputs[0]);
            }
            bool overlap = stats::intervalsOverlap(
                orig.ci95Lo(), orig.ci95Hi(), pbs_s.ci95Lo(),
                pbs_s.ci95Hi());
            char buf[96];
            std::snprintf(buf, sizeof(buf), "%.3f [%.2f,%.2f]",
                          orig.mean(), orig.ci95Lo(), orig.ci95Hi());
            std::string o = buf;
            std::snprintf(buf, sizeof(buf), "%.3f [%.2f,%.2f]",
                          pbs_s.mean(), pbs_s.ci95Lo(), pbs_s.ci95Hi());
            table.row({b.name, "success-rate CI", o, buf,
                       overlap ? "CIs overlap" : "CIs DISJOINT",
                       "CIs overlap"});
            continue;
        }

        auto ref = b.nativeOutput(p);
        const auto &r = ctx.engine.measure(
            functionalPoint(b, "tage-sc-l", true, div));

        if (b.name == "photon") {
            double rms = stats::normalizedRmsError(r.outputs, ref);
            table.row({b.name, "normalized RMS", "-", "-",
                       stats::TextTable::pct(rms), "3.9% RMS"});
            continue;
        }

        double max_err = 0.0;
        for (size_t i = 0; i < ref.size(); i++) {
            max_err = std::max(
                max_err, stats::relativeError(r.outputs[i], ref[i]));
        }
        table.row({b.name, "max rel. error",
                   stats::TextTable::num(ref[0], 5),
                   stats::TextTable::num(r.outputs[0], 5),
                   stats::TextTable::pct(max_err, 3),
                   b.name == "bandit" ? "0 (reward/regret)" : "0"});
    }
    std::printf("%s\n", table.render().c_str());
    return 0;
}

}  // namespace pbs::exp
