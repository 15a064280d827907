/**
 * @file
 * `pbs_bench`: the simulated-MIPS throughput harness (flags: --help or
 * docs/cli.md).
 *
 * Measures the standard grid (bench::standardGrid: every registered
 * workload x predictor pair plus tage-sc-l with PBS on), cut by
 * --workloads/--predictors and crossed with --modes (pbs_exp's spec
 * keys and vocabulary: --modes detailed,functional,sampled prints each
 * pair's detailed, functional and sampled MIPS next to each other);
 * --pbs replaces the PBS rule with every selected predictor under each
 * given PBS setting, which times the PBS engine against PBS-off on one
 * predictor (--predictors perfect --pbs off,on leaves no predictor
 * cost to confound it),
 * and emits the canonical `pbs-bench-v2` JSON artifact (see
 * src/bench/bench.hh for the determinism contract). With --baseline,
 * exits non-zero when any point regresses more than --max-regress
 * (default 0.20) below the baseline MIPS.
 *
 * Refreshing the checked-in baseline after an intentional perf change:
 *   ./build/pbs_bench --quick --write-baseline bench/baseline.json
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench.hh"
#include "exp/cli.hh"
#include "exp/spec.hh"
#include "obs/manifest.hh"

namespace {

using namespace pbs;

int
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "pbs_bench: %s\n", msg);
    std::fprintf(stderr,
        "usage: pbs_bench [--quick] [--jobs N] [--repeats N] [--div N]\n"
        "                 [--workloads W1,W2] [--predictors P1,P2]\n"
        "                 [--modes M1,M2] [--pbs S1,S2]\n"
        "                 [--sample-interval N]\n"
        "                 [--sample-warmup N] [--sample-measure N]\n"
        "                 [--seed S] [--out FILE] [--baseline FILE]\n"
        "                 [--max-regress F] [--write-baseline FILE]\n"
        "                 [--trace FILE] [--metrics FILE]\n"
        "                 [--manifest FILE] [--telemetry FILE]\n"
        "                 [--telemetry-interval MS] [--list]\n"
        "modes: detailed (default; timing is an alias), functional,\n"
        "       sampled, mpki\n"
        "pbs settings: off, on, no-stall, no-context, no-guard\n");
    return msg ? 2 : 0;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary);
    os << content;
    return os.good();
}

}  // namespace

int
main(int argc, char **argv)
{
    obs::manifestBegin("pbs_bench", argc, argv);
    bench::BenchConfig cfg;
    std::string out, baseline, writeBaseline;
    exp::ObsFlags obsFlags;
    double maxRegress = 0.20;
    bool quick = false;
    bool list = false;
    bool divisorSet = false;
    bool pbsSet = false;
    bool maxRegressSet = false;
    // Flags that only shape a measuring run, in command-line order.
    std::vector<std::string> runFlags;

    // Grid flags map straight onto pbs_exp's spec keys.
    const std::pair<const char *, const char *> specFlags[] = {
        {"--workloads", "workload"},
        {"--predictors", "predictor"},
        {"--modes", "mode"},
        {"--mode", "mode"},
        {"--pbs", "pbs"},
        {"--div", "div"},
        {"--seed", "seed"},
        {"--sample-interval", "sample-interval"},
        {"--sample-warmup", "sample-warmup"},
        {"--sample-measure", "sample-measure"},
    };
    const std::pair<const char *, std::string *> fileFlags[] = {
        {"--out", &out},
        {"--baseline", &baseline},
        {"--write-baseline", &writeBaseline},
    };
    const std::pair<const char *, unsigned *> countFlags[] = {
        {"--jobs", &cfg.jobs},
        {"--repeats", &cfg.repeats},
    };

    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); i++) {
        const std::string arg = args[i];
        const std::string flag = arg.substr(0, arg.find('='));
        std::string v, err;
        auto take = [&](const char *name, std::string &value) {
            return exp::takeOptionValue(args, i, name, value);
        };
        int r;
        if ((r = obsFlags.take(args, i, err))) {
            if (r < 0)
                return usage(err.c_str());
            runFlags.push_back(flag);
            continue;
        }
        if (arg == "--quick" || arg == "--list") {
            (arg == "--list" ? list : quick) = true;
            continue;
        }
        if (arg == "--help" || arg == "-h")
            return usage();
        if ((r = take("--max-regress", v))) {
            char *end = nullptr;
            maxRegress = r > 0 ? std::strtod(v.c_str(), &end) : 0.0;
            if (r < 0 || !end || *end != '\0' || v.empty() ||
                maxRegress < 0.0 || maxRegress >= 1.0) {
                return usage("--max-regress: bad value (want a fraction "
                             "in [0, 1))");
            }
            maxRegressSet = true;
            runFlags.push_back(flag);
            continue;
        }
        bool matched = false;
        for (const auto &[name, key] : specFlags) {
            if (matched || !(r = take(name, v)))
                continue;
            matched = true;
            if (r < 0)
                return usage((flag + " needs a value").c_str());
            err = exp::applySpecKey(cfg.spec, key, v);
            if (!err.empty())
                return usage((flag + ": " + err).c_str());
            divisorSet = divisorSet || flag == "--div";
            pbsSet = pbsSet || flag == "--pbs";
        }
        for (const auto &[name, file] : fileFlags) {
            if (matched || !(r = take(name, *file)))
                continue;
            matched = true;
            if (r < 0)
                return usage((flag + " needs a value").c_str());
            runFlags.push_back(flag);
        }
        for (const auto &[name, count] : countFlags) {
            if (matched || !(r = take(name, v)))
                continue;
            matched = true;
            if (r < 0 || !exp::parseUnsignedArg(v, *count) || *count == 0)
                return usage((flag + ": bad value (want >= 1)").c_str());
            runFlags.push_back(flag);
        }
        if (!matched)
            return usage(("unknown option: " + arg).c_str());
    }

    // Reject what the chosen action would silently ignore.
    if (list && !runFlags.empty())
        return usage((runFlags.front() + " has no effect with --list "
                      "(it only prints the grid)").c_str());
    if (maxRegressSet && baseline.empty())
        return usage("--max-regress applies only with --baseline");
    const std::string sampleKey = exp::ignoredSampleKey(cfg.spec);
    if (!sampleKey.empty())
        return usage(("--" + sampleKey + " applies only to sampled "
                      "points (no sampled mode in --modes)").c_str());

    // --quick picks the CI-fast scale unless --div was given explicitly.
    if (quick && !divisorSet)
        cfg.spec.divisor = 50;

    if (pbsSet) {
        const auto &modes = cfg.spec.modes;
        for (const auto &setting : cfg.spec.pbsModes) {
            if (setting != "off" &&
                std::find(modes.begin(), modes.end(), "functional") !=
                    modes.end())
                return usage(("--pbs: '" + setting + "' has no effect in "
                              "functional mode (architectural execution, "
                              "PBS-off semantics); use mpki, detailed or "
                              "sampled").c_str());
        }
    }

    const exp::ExpandResult grid = bench::standardGrid(cfg.spec, pbsSet);
    if (!grid.ok)
        return usage(grid.error.c_str());
    const std::vector<exp::ExpPoint> &points = grid.points;
    if (list) {
        for (const auto &p : points)
            std::printf("%s %s pbs=%s %s\n", p.workload.c_str(),
                        p.predictor.c_str(),
                        pbsSet ? exp::pbsSetting(p) : p.pbs ? "1" : "0",
                        exp::modeName(p).c_str());
        return 0;
    }

    obsFlags.start("pbs_bench");

    std::fprintf(stderr,
                 "pbs_bench: %zu points, div %u, %u job(s), %u repeat(s)\n",
                 points.size(), cfg.spec.divisor, cfg.jobs, cfg.repeats);

    const auto results = bench::runBench(points, cfg);

    // Human-readable summary on stdout.
    std::printf("%-10s %-16s %-10s %-10s %14s %10s %10s\n", "workload",
                "predictor", "pbs", "mode", "instructions", "wall_ms",
                "mips");
    for (const auto &r : results) {
        std::printf("%-10s %-16s %-10s %-10s %14llu %10.2f %10.2f\n",
                    r.point.workload.c_str(), r.point.predictor.c_str(),
                    exp::pbsSetting(r.point),
                    exp::modeName(r.point).c_str(),
                    static_cast<unsigned long long>(
                        r.run.result.stats.instructions),
                    r.run.bestMs, r.run.mips());
    }
    std::printf("geomean: %.2f MIPS\n", bench::geomeanMips(results));

    const std::string artifact = bench::benchJson(results, cfg);
    bool written = true;
    for (const std::string &path : {out, writeBaseline}) {
        if (path.empty())
            continue;
        if (!writeFile(path, artifact)) {
            std::fprintf(stderr, "pbs_bench: cannot write %s\n",
                         path.c_str());
            written = false;
            continue;
        }
        obs::manifestAddArtifact(path, artifact, "pbs-bench-v2");
    }
    obsFlags.finish("pbs_bench");
    if (!written)
        return 1;

    if (!baseline.empty()) {
        std::ifstream is(baseline, std::ios::binary);
        if (!is) {
            std::fprintf(stderr, "pbs_bench: cannot read %s\n",
                         baseline.c_str());
            return 1;
        }
        std::ostringstream ss;
        ss << is.rdbuf();
        std::string report;
        unsigned regressions = 0;
        try {
            regressions = bench::compareBaseline(results, ss.str(),
                                                 maxRegress, report);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "pbs_bench: %s\n", e.what());
            return 1;
        }
        std::printf("\nbaseline comparison (max regress %.0f%%):\n%s",
                    maxRegress * 100.0, report.c_str());
        if (regressions) {
            std::fprintf(stderr,
                         "pbs_bench: %u point(s) regressed beyond "
                         "%.0f%%\n", regressions, maxRegress * 100.0);
            return 1;
        }
        std::printf("baseline comparison OK\n");
    }
    return 0;
}
