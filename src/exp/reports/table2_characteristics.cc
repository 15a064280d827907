/**
 * @file
 * Table II: benchmark characteristics — probabilistic/static branch
 * counts, category, and simulated instruction counts.
 */

#include "exp/reports.hh"
#include "stats/table.hh"

namespace pbs::exp {

int
reportTable2(ReportContext &ctx)
{
    const unsigned div = ctx.divisor;
    banner("Table II: benchmarks and their characteristics", div);

    std::vector<exp::ExpPoint> grid;
    for (const auto &b : workloads::allBenchmarks())
        grid.push_back(functionalPoint(b, "bimodal", false, div));
    ctx.engine.runAll(grid);

    stats::TextTable table;
    table.header({"benchmark", "prob/static-branches", "category",
                  "simulated-insns"});
    for (const auto &b : workloads::allBenchmarks()) {
        // Static counts come from the program image itself (cheap to
        // build; not a simulation, so not a sweep point).
        auto p = paramsFor(b, div);
        isa::Program prog = b.build(p, workloads::Variant::Marked);
        const auto &r = ctx.engine.measure(
            functionalPoint(b, "bimodal", false, div));
        table.row({b.name,
                   std::to_string(prog.staticProbBranchCount()) + "/" +
                       std::to_string(prog.staticBranchCount()),
                   std::to_string(b.category),
                   std::to_string(r.stats.instructions)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper: instruction counts were 1.3-17 G on full inputs; "
                "this reproduction\nruns inputs scaled down ~100-1000x "
                "(rate metrics are scale-free).\n");
    return 0;
}

}  // namespace pbs::exp
