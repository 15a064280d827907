/**
 * @file
 * Figures 7 and 8: normalized IPC for four configurations (tournament,
 * TAGE-SC-L, tournament+PBS, TAGE-SC-L+PBS, normalized to the
 * tournament baseline) on the 4-wide / 168-ROB core (Fig. 7) and the
 * 8-wide / 256-ROB core (Fig. 8).
 *
 * Paper numbers, 4-wide: +9% avg (up to 26%) for tournament+PBS over
 * tournament; +6.7% avg (up to 17%) for TAGE-SC-L+PBS over TAGE-SC-L;
 * tournament+PBS outperforms plain TAGE-SC-L. The wider pipeline
 * amplifies the misprediction cost, so PBS gains grow (8-wide: +13.8%
 * tournament+PBS, +10.8% TAGE-SC-L+PBS).
 *
 * Genetic is averaged over 8 random seeds (paper Sec. VI-A).
 */

#include "exp/reports.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace pbs::exp {

namespace {

/** The grid points behind one benchmark/config cell. */
std::vector<exp::ExpPoint>
cellPoints(const workloads::BenchmarkDesc &b, unsigned div,
           const char *pred, bool pbs, bool wide)
{
    std::vector<exp::ExpPoint> pts;
    if (b.name == "genetic") {
        for (uint64_t seed = 1; seed <= 8; seed++)
            pts.push_back(timingPoint(b, pred, pbs, wide, div, seed));
    } else {
        pts.push_back(timingPoint(b, pred, pbs, wide, div));
    }
    return pts;
}

int
normalizedIpc(ReportContext &ctx, bool wide)
{
    const unsigned div = ctx.divisor;
    banner(wide ? "Figure 8: normalized IPC, 8-wide / 256-entry ROB"
                : "Figure 7: normalized IPC, 4-wide / 168-entry ROB",
           div);

    std::vector<exp::ExpPoint> grid;
    for (const auto &b : workloads::allBenchmarks()) {
        for (const char *pred : {"tournament", "tage-sc-l"}) {
            for (bool pbs : {false, true}) {
                auto pts = cellPoints(b, div, pred, pbs, wide);
                grid.insert(grid.end(), pts.begin(), pts.end());
            }
        }
    }
    ctx.engine.runAll(grid);

    /** IPC for one benchmark/config (genetic: mean over 8 seeds). */
    auto ipcOf = [&](const workloads::BenchmarkDesc &b, const char *pred,
                     bool pbs) {
        stats::RunningStat s;
        for (const auto &pt : cellPoints(b, div, pred, pbs, wide))
            s.push(ctx.engine.measure(pt).stats.ipc());
        return s.mean();
    };

    stats::TextTable table;
    table.header({"benchmark", "tournament", "tage-sc-l", "tour+pbs",
                  "tage+pbs"});
    std::vector<double> gain_tour, gain_tage, tage_norm, tourpbs_norm;
    for (const auto &b : workloads::allBenchmarks()) {
        double base = ipcOf(b, "tournament", false);
        double tage = ipcOf(b, "tage-sc-l", false);
        double tpbs = ipcOf(b, "tournament", true);
        double gpbs = ipcOf(b, "tage-sc-l", true);
        gain_tour.push_back(tpbs / base);
        gain_tage.push_back(gpbs / tage);
        tage_norm.push_back(tage / base);
        tourpbs_norm.push_back(tpbs / base);
        table.row({b.name, "1.000",
                   stats::TextTable::num(tage / base, 3),
                   stats::TextTable::num(tpbs / base, 3),
                   stats::TextTable::num(gpbs / base, 3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("geomean speedup tour+PBS over tour:      %+.1f%%\n",
                (stats::geomean(gain_tour) - 1.0) * 100.0);
    std::printf("geomean speedup tage+PBS over tage:      %+.1f%%\n",
                (stats::geomean(gain_tage) - 1.0) * 100.0);
    std::printf("geomean tour+PBS vs plain tage-sc-l:     %+.1f%%\n",
                (stats::geomean(tourpbs_norm) /
                 stats::geomean(tage_norm) - 1.0) * 100.0);
    std::printf("Paper (%s): %s\n", wide ? "8-wide" : "4-wide",
                wide ? "+13.8% tour+PBS, +10.8% tage+PBS"
                     : "+9% tour+PBS, +6.7% tage+PBS; tour+PBS beats "
                       "plain TAGE-SC-L");
    return 0;
}

}  // namespace

int
reportFig07(ReportContext &ctx)
{
    return normalizedIpc(ctx, false);
}

int
reportFig08(ReportContext &ctx)
{
    return normalizedIpc(ctx, true);
}

}  // namespace pbs::exp
