/**
 * @file
 * Figure 6: MPKI reduction through PBS for the tournament and
 * TAGE-SC-L predictors.
 *
 * Paper numbers: 29.9% average (up to 99%) for tournament; 44.8%
 * average for TAGE-SC-L — the better predictor benefits more because a
 * larger share of its remaining misses is probabilistic.
 */

#include "exp/reports.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace pbs::exp {

int
reportFig06(ReportContext &ctx)
{
    const unsigned div = ctx.divisor;
    banner("Figure 6: MPKI reduction through PBS", div);

    // Genetic averages 8 seeds because its trajectory (and therefore
    // run length) diverges between runs (paper Sec. VI-A).
    auto pointsOf = [&](const workloads::BenchmarkDesc &b,
                        const char *pred, bool pbs) {
        std::vector<exp::ExpPoint> pts;
        if (b.name == "genetic") {
            for (uint64_t seed = 1; seed <= 8; seed++)
                pts.push_back(functionalPoint(b, pred, pbs, div, seed));
        } else {
            pts.push_back(functionalPoint(b, pred, pbs, div));
        }
        return pts;
    };

    std::vector<exp::ExpPoint> grid;
    for (const auto &b : workloads::allBenchmarks()) {
        for (const char *pred : {"tournament", "tage-sc-l"}) {
            for (bool pbs : {false, true}) {
                auto pts = pointsOf(b, pred, pbs);
                grid.insert(grid.end(), pts.begin(), pts.end());
            }
        }
    }
    ctx.engine.runAll(grid);

    auto mpki = [&](const workloads::BenchmarkDesc &b, const char *pred,
                    bool pbs) {
        stats::RunningStat s;
        for (const auto &pt : pointsOf(b, pred, pbs))
            s.push(ctx.engine.measure(pt).stats.mpki());
        return s.mean();
    };

    stats::TextTable table;
    table.header({"benchmark", "tour-mpki", "tour+pbs", "reduction",
                  "tage-mpki", "tage+pbs", "reduction"});

    std::vector<double> red_tour, red_tage;
    for (const auto &b : workloads::allBenchmarks()) {
        double t0 = mpki(b, "tournament", false);
        double t1 = mpki(b, "tournament", true);
        double g0 = mpki(b, "tage-sc-l", false);
        double g1 = mpki(b, "tage-sc-l", true);

        double rt = t0 > 0 ? 1.0 - t1 / t0 : 0.0;
        double rg = g0 > 0 ? 1.0 - g1 / g0 : 0.0;
        red_tour.push_back(rt);
        red_tage.push_back(rg);
        table.row({b.name, stats::TextTable::num(t0, 2),
                   stats::TextTable::num(t1, 2),
                   stats::TextTable::pct(rt),
                   stats::TextTable::num(g0, 2),
                   stats::TextTable::num(g1, 2),
                   stats::TextTable::pct(rg)});
    }
    table.row({"average", "", "", stats::TextTable::pct(
                   stats::mean(red_tour)),
               "", "", stats::TextTable::pct(stats::mean(red_tage))});
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper: 29.9%% avg (up to 99%%) for tournament, 44.8%% "
                "avg for TAGE-SC-L.\n");
    return 0;
}

}  // namespace pbs::exp
