/**
 * @file
 * Table I: applicability of predication and CFD per benchmark, plus a
 * performance comparison on the benchmarks where the comparators do
 * apply (extends the paper's table with measured IPC, cf. Sec. IV's
 * qualitative discussion of CFD overhead vs PBS).
 */

#include "exp/reports.hh"
#include "stats/table.hh"

namespace pbs::exp {

namespace {

exp::ExpPoint
variantPoint(const workloads::BenchmarkDesc &b, unsigned div,
             const char *variant)
{
    exp::ExpPoint pt = timingPoint(b, "tage-sc-l", false,
                                   /*wide=*/false, div);
    pt.variant = variant;
    return pt;
}

}  // namespace

int
reportTable1(ReportContext &ctx)
{
    const unsigned div = ctx.divisor;
    banner("Table I: applicability of predication and CFD", div);

    std::vector<exp::ExpPoint> grid;
    for (const auto &b : workloads::allBenchmarks()) {
        grid.push_back(timingPoint(b, "tage-sc-l", false, false, div));
        grid.push_back(timingPoint(b, "tage-sc-l", true, false, div));
        if (b.predicationOk)
            grid.push_back(variantPoint(b, div, "predicated"));
        if (b.cfdOk)
            grid.push_back(variantPoint(b, div, "cfd"));
    }
    ctx.engine.runAll(grid);

    stats::TextTable table;
    table.header({"benchmark", "predication", "CFD", "ipc(tage)",
                  "ipc(pred)", "ipc(cfd)", "ipc(tage+pbs)"});
    for (const auto &b : workloads::allBenchmarks()) {
        const auto &base = ctx.engine.measure(
            timingPoint(b, "tage-sc-l", false, false, div));
        const auto &pbs_run = ctx.engine.measure(
            timingPoint(b, "tage-sc-l", true, false, div));

        std::string ipc_pred = "-", ipc_cfd = "-";
        if (b.predicationOk) {
            const auto &r =
                ctx.engine.measure(variantPoint(b, div, "predicated"));
            ipc_pred = stats::TextTable::num(r.stats.ipc(), 3);
        }
        if (b.cfdOk) {
            const auto &r =
                ctx.engine.measure(variantPoint(b, div, "cfd"));
            ipc_cfd = stats::TextTable::num(r.stats.ipc(), 3);
        }
        table.row({b.name, b.predicationOk ? "yes" : "x",
                   b.cfdOk ? "yes" : "x",
                   stats::TextTable::num(base.stats.ipc(), 3), ipc_pred,
                   ipc_cfd,
                   stats::TextTable::num(pbs_run.stats.ipc(), 3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper: predication applies to 3/8 (GNU C fails to "
                "if-convert the rest);\nCFD applies to 5/8 (fails on "
                "non-separable / non-inlinable cases). PBS applies\nto "
                "all eight. CFD pays queue push/pop overhead; "
                "predication pays both-paths\nexecution.\n");
    return 0;
}

}  // namespace pbs::exp
