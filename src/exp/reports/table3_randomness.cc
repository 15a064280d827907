/**
 * @file
 * Table III: randomness of the value stream as perceived by the
 * algorithm — original consumption order vs PBS consumption order.
 *
 * Protocol (paper Sec. VII-E): for each uniform-value benchmark and
 * each of 7 seeds, record the probabilistic values in generation order
 * (original code) and in the order they are consumed under PBS, run the
 * 114-instance randomness battery on both streams, and report 95%
 * confidence intervals of the PASS/WEAK/FAIL counts. DOP and Greeks are
 * excluded (Gaussian-controlled), as in the paper.
 *
 * The battery runs are PointKind::Rand sweep points: the engine records
 * the consumption trace, extracts the stream, and caches the tallies.
 *
 * Expectation: the intervals of the two orders overlap — PBS does not
 * significantly affect the randomness seen by the algorithm.
 */

#include <algorithm>

#include "exp/reports.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace pbs::exp {

namespace {

std::string
ciRange(const stats::RunningStat &s)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.0f-%.0f",
                  std::max(0.0, s.ci95Lo()), s.ci95Hi());
    return buf;
}

}  // namespace

int
reportTable3(ReportContext &ctx)
{
    const unsigned div = ctx.divisor;
    banner("Table III: randomness tests (114 instances), original vs "
           "PBS order", div);

    std::vector<exp::ExpPoint> grid;
    for (const auto &b : workloads::allBenchmarks()) {
        if (b.uniformsPerInstance == 0)
            continue;  // Gaussian-controlled: excluded, as in the paper
        for (uint64_t seed = 1; seed <= 7; seed++) {
            grid.push_back(randPoint(b, false, div, seed));
            grid.push_back(randPoint(b, true, div, seed));
        }
    }
    ctx.engine.runAll(grid);

    stats::TextTable table;
    table.header({"benchmark", "orig PASS", "orig WEAK", "orig FAIL",
                  "pbs PASS", "pbs WEAK", "pbs FAIL", "overlap"});

    for (const auto &b : workloads::allBenchmarks()) {
        if (b.uniformsPerInstance == 0)
            continue;

        stats::RunningStat op, ow, of, pp, pw, pf;
        for (uint64_t seed = 1; seed <= 7; seed++) {
            const auto &orig =
                ctx.engine.measure(randPoint(b, false, div, seed));
            const auto &pbs_t =
                ctx.engine.measure(randPoint(b, true, div, seed));
            op.push(orig.randPass);
            ow.push(orig.randWeak);
            of.push(orig.randFail);
            pp.push(pbs_t.randPass);
            pw.push(pbs_t.randWeak);
            pf.push(pbs_t.randFail);
        }
        bool overlap =
            stats::intervalsOverlap(op.ci95Lo(), op.ci95Hi(),
                                    pp.ci95Lo(), pp.ci95Hi()) &&
            stats::intervalsOverlap(of.ci95Lo(), of.ci95Hi(),
                                    pf.ci95Lo(), pf.ci95Hi());
        table.row({b.name, ciRange(op), ciRange(ow), ciRange(of),
                   ciRange(pp), ciRange(pw), ciRange(pf),
                   overlap ? "yes" : "NO"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper: the PASS/WEAK/FAIL confidence intervals of the "
                "original and PBS\nstreams overlap significantly for "
                "all benchmarks — PBS does not alter the\nperceived "
                "randomness.\n");
    return 0;
}

}  // namespace pbs::exp
