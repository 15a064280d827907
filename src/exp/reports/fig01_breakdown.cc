/**
 * @file
 * Figure 1: probabilistic vs regular branches — share of dynamic
 * branches, and share of mispredictions under the 1 KB tournament and
 * 8 KB TAGE-SC-L predictors (PBS off).
 *
 * Paper shape: probabilistic branches are a small fraction of dynamic
 * branches but a disproportionally large fraction of mispredictions,
 * and their share of mispredictions *grows* under the better predictor.
 */

#include "exp/reports.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace pbs::exp {

int
reportFig01(ReportContext &ctx)
{
    const unsigned div = ctx.divisor;
    banner("Figure 1: probabilistic vs regular branch breakdown", div);

    // Sweep: every benchmark under both predictors, PBS off.
    std::vector<exp::ExpPoint> pts;
    for (const auto &b : workloads::allBenchmarks()) {
        pts.push_back(functionalPoint(b, "tournament", false, div));
        pts.push_back(functionalPoint(b, "tage-sc-l", false, div));
    }
    ctx.engine.runAll(pts);

    stats::TextTable table;
    table.header({"benchmark", "prob/dyn-branches", "miss-share(tour)",
                  "miss-share(tage-sc-l)"});

    std::vector<double> share_tour, share_tage;
    for (const auto &b : workloads::allBenchmarks()) {
        const auto &tour = ctx.engine.measure(
            functionalPoint(b, "tournament", false, div));
        const auto &tage = ctx.engine.measure(
            functionalPoint(b, "tage-sc-l", false, div));

        double dyn_frac = double(tour.stats.probBranches) /
                          double(tour.stats.branches);
        double mt = tour.stats.mispredicts
            ? double(tour.stats.probMispredicts) /
              double(tour.stats.mispredicts) : 0.0;
        double mg = tage.stats.mispredicts
            ? double(tage.stats.probMispredicts) /
              double(tage.stats.mispredicts) : 0.0;
        share_tour.push_back(mt);
        share_tage.push_back(mg);
        table.row({b.name, stats::TextTable::pct(dyn_frac),
                   stats::TextTable::pct(mt),
                   stats::TextTable::pct(mg)});
    }
    table.row({"average", "",
               stats::TextTable::pct(stats::mean(share_tour)),
               stats::TextTable::pct(stats::mean(share_tage))});
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper shape check: probabilistic branches are rare but "
                "cause an outsized\nfraction of mispredictions, larger "
                "under TAGE-SC-L than under tournament.\n");
    return 0;
}

}  // namespace pbs::exp
