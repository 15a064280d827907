#include "exp/reports.hh"

#include <cstdio>

namespace pbs::exp {

const std::vector<Report> &
allReports()
{
    static const std::vector<Report> reports = {
        {"fig01", "probabilistic vs regular branch breakdown",
         reportFig01},
        {"fig06", "MPKI reduction through PBS", reportFig06},
        {"fig07", "normalized IPC, 4-wide / 168-entry ROB", reportFig07},
        {"fig08", "normalized IPC, 8-wide / 256-entry ROB", reportFig08},
        {"fig09", "predictor interference from probabilistic branches",
         reportFig09},
        {"table1", "applicability of predication and CFD", reportTable1},
        {"table2", "benchmark characteristics", reportTable2},
        {"table3", "randomness: original vs PBS consumption order",
         reportTable3},
        {"table4", "output accuracy under PBS", reportTable4},
        {"ablation", "PBS table capacities and context support",
         reportAblation},
    };
    return reports;
}

int
runReport(const std::string &name, ReportContext &ctx)
{
    for (const auto &r : allReports()) {
        if (r.name == name)
            return r.fn(ctx);
    }
    std::fprintf(stderr, "unknown report: %s\n", name.c_str());
    return 2;
}

exp::ExpPoint
timingPoint(const workloads::BenchmarkDesc &b,
            const std::string &predictor, bool pbs, bool wide,
            unsigned divisor, uint64_t seed)
{
    exp::ExpPoint pt;
    pt.workload = b.name;
    pt.predictor = predictor;
    pt.pbs = pbs;
    pt.wide = wide;
    pt.scale = exp::resolvedScale(b, divisor);
    pt.seed = seed;
    return pt;
}

exp::ExpPoint
functionalPoint(const workloads::BenchmarkDesc &b,
                const std::string &predictor, bool pbs,
                unsigned divisor, uint64_t seed)
{
    exp::ExpPoint pt =
        timingPoint(b, predictor, pbs, /*wide=*/false, divisor, seed);
    pt.functional = true;
    return pt;
}

exp::ExpPoint
randPoint(const workloads::BenchmarkDesc &b, bool pbs, unsigned divisor,
          uint64_t seed)
{
    // The Table III protocol runs the functional engine with the
    // bimodal predictor and records the value-consumption trace.
    exp::ExpPoint pt = functionalPoint(b, "bimodal", pbs, divisor, seed);
    pt.kind = exp::PointKind::Rand;
    return pt;
}

}  // namespace pbs::exp
