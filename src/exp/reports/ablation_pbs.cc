/**
 * @file
 * Ablations of the PBS design choices that DESIGN.md calls out (beyond
 * the paper's headline results, cf. Sec. V-C2's scalability
 * discussion):
 *
 *  - Prob-BTB capacity (1/2/4/8 entries)
 *  - in-flight limit (1/2/4/8 outstanding instances)
 *  - context support on/off
 *
 * Metric: fraction of dynamic probabilistic branches steered (steered
 * branches never mispredict) and resulting MPKI.
 */

#include "exp/reports.hh"
#include "stats/table.hh"

namespace pbs::exp {

namespace {

double
steeredFrac(const exp::Measurement &r)
{
    return r.stats.probBranches
        ? double(r.stats.steeredBranches) / double(r.stats.probBranches)
        : 0.0;
}

exp::ExpPoint
btbPoint(const workloads::BenchmarkDesc &b, unsigned div,
         unsigned entries)
{
    exp::ExpPoint pt = functionalPoint(b, "tage-sc-l", true, div);
    // The hardware default stays at the 0 sentinel so the paper-config
    // column shares its cache entry with every non-ablation sweep.
    pt.numBranches =
        entries == core::PbsConfig{}.numBranches ? 0 : entries;
    return pt;
}

exp::ExpPoint
inFlightPoint(const workloads::BenchmarkDesc &b, unsigned div,
              unsigned limit)
{
    exp::ExpPoint pt = functionalPoint(b, "tage-sc-l", true, div);
    pt.inFlightLimit =
        limit == core::PbsConfig{}.inFlightLimit ? 0 : limit;
    return pt;
}

exp::ExpPoint
contextPoint(const workloads::BenchmarkDesc &b, unsigned div, bool on)
{
    exp::ExpPoint pt = functionalPoint(b, "tage-sc-l", true, div);
    pt.contextSupport = on;
    return pt;
}

exp::ExpPoint
pressurePoint(const workloads::BenchmarkDesc &b, unsigned div, bool pbs,
              bool stall)
{
    exp::ExpPoint pt =
        timingPoint(b, "tage-sc-l", pbs, /*wide=*/false, div);
    pt.stallOnBusy = stall;
    return pt;
}

}  // namespace

int
reportAblation(ReportContext &ctx)
{
    unsigned div = ctx.divisor * 2;
    banner("PBS ablations: table capacities and context support", div);

    const char *names[] = {"dop", "greeks", "swaptions", "photon", "pi"};

    std::vector<exp::ExpPoint> grid;
    for (const char *name : names) {
        const auto &b = workloads::benchmarkByName(name);
        for (unsigned x : {1u, 2u, 4u, 8u}) {
            grid.push_back(btbPoint(b, div, x));
            grid.push_back(inFlightPoint(b, div, x));
        }
    }
    for (const char *name : {"pi", "mc-integ", "dop"}) {
        const auto &b = workloads::benchmarkByName(name);
        grid.push_back(pressurePoint(b, div, false, true));
        grid.push_back(pressurePoint(b, div, true, true));
        grid.push_back(pressurePoint(b, div, true, false));
    }
    for (const auto &b : workloads::allBenchmarks()) {
        grid.push_back(contextPoint(b, div, true));
        grid.push_back(contextPoint(b, div, false));
    }
    ctx.engine.runAll(grid);

    std::printf("--- Prob-BTB capacity (in-flight limit fixed at 4) "
                "---\n");
    stats::TextTable t1;
    t1.header({"benchmark", "1 entry", "2", "4 (paper)", "8"});
    for (const char *name : names) {
        const auto &b = workloads::benchmarkByName(name);
        std::vector<std::string> row{name};
        for (unsigned entries : {1u, 2u, 4u, 8u}) {
            row.push_back(stats::TextTable::pct(steeredFrac(
                ctx.engine.measure(btbPoint(b, div, entries)))));
        }
        t1.row(row);
    }
    std::printf("%s\n", t1.render().c_str());

    std::printf("--- In-flight limit (Prob-BTB fixed at 4 entries) "
                "---\n");
    stats::TextTable t2;
    t2.header({"benchmark", "1", "2", "4 (paper)", "8"});
    for (const char *name : names) {
        const auto &b = workloads::benchmarkByName(name);
        std::vector<std::string> row{name};
        for (unsigned limit : {1u, 2u, 4u, 8u}) {
            row.push_back(stats::TextTable::pct(steeredFrac(
                ctx.engine.measure(inFlightPoint(b, div, limit)))));
        }
        t2.row(row);
    }
    std::printf("%s\n", t2.render().c_str());

    std::printf("--- In-flight pressure policy: stall fetch vs treat "
                "as regular ---\n");
    std::printf("(timing model; tight loops exceed 4 outstanding "
                "instances)\n");
    stats::TextTable tp;
    tp.header({"benchmark", "ipc(no pbs)", "ipc(stall)", "ipc(regular)",
               "mpki(stall)", "mpki(regular)"});
    for (const char *name : {"pi", "mc-integ", "dop"}) {
        const auto &b = workloads::benchmarkByName(name);
        const auto &base =
            ctx.engine.measure(pressurePoint(b, div, false, true));
        const auto &stall =
            ctx.engine.measure(pressurePoint(b, div, true, true));
        const auto &fall =
            ctx.engine.measure(pressurePoint(b, div, true, false));
        tp.row({name, stats::TextTable::num(base.stats.ipc(), 3),
                stats::TextTable::num(stall.stats.ipc(), 3),
                stats::TextTable::num(fall.stats.ipc(), 3),
                stats::TextTable::num(stall.stats.mpki(), 2),
                stats::TextTable::num(fall.stats.mpki(), 2)});
    }
    std::printf("%s\n", tp.render().c_str());

    std::printf("--- Context support (Sec. V-C1) ---\n");
    stats::TextTable t3;
    t3.header({"benchmark", "steered(ctx on)", "steered(ctx off)",
               "mpki(ctx on)", "mpki(ctx off)"});
    for (const auto &b : workloads::allBenchmarks()) {
        const auto &on = ctx.engine.measure(contextPoint(b, div, true));
        const auto &off =
            ctx.engine.measure(contextPoint(b, div, false));
        t3.row({b.name, stats::TextTable::pct(steeredFrac(on)),
                stats::TextTable::pct(steeredFrac(off)),
                stats::TextTable::num(on.stats.mpki(), 2),
                stats::TextTable::num(off.stats.mpki(), 2)});
    }
    std::printf("%s\n", t3.render().c_str());
    std::printf("Shape: 4 Prob-BTB entries and 4 in-flight instances "
                "(the paper's 193-byte\nconfiguration) capture nearly "
                "all of the benefit for these workloads.\n");
    return 0;
}

}  // namespace pbs::exp
