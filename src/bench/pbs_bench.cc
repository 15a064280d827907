/**
 * @file
 * `pbs_bench`: the simulated-MIPS throughput harness.
 *
 * Usage:
 *   pbs_bench [--quick] [--jobs N] [--repeats N] [--div N] [--seed S]
 *             [--modes M1,M2] [--sample-interval N] [--sample-warmup N]
 *             [--sample-measure N] [--out FILE] [--baseline FILE]
 *             [--max-regress F] [--write-baseline FILE] [--list]
 *
 * Measures every registered workload x predictor pair (plus PBS-on
 * points), optionally crossed with execution modes (--modes
 * detailed,functional,sampled prints each pair's detailed, functional
 * and sampled MIPS next to each other), and emits the canonical
 * `pbs-bench-v2` JSON artifact (see src/bench/bench.hh for the
 * determinism contract). With --baseline, exits non-zero when any
 * point regresses more than --max-regress (default 0.20) below the
 * baseline MIPS.
 *
 * Refreshing the checked-in baseline after an intentional perf change:
 *   ./build/pbs_bench --quick --write-baseline bench/baseline.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench.hh"
#include "exp/cli.hh"
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
        "                 [--modes M1,M2] [--sample-interval N]\n"
        "                 [--sample-warmup N] [--sample-measure N]\n"
        "                 [--seed S] [--out FILE] [--baseline FILE]\n"
        "                 [--max-regress F] [--write-baseline FILE]\n"
        "                 [--trace FILE] [--metrics FILE]\n"
        "                 [--manifest FILE] [--telemetry FILE]\n"
        "                 [--telemetry-interval MS] [--list]\n"
        "modes: detailed (default), functional, functional-switch,\n"
        "       sampled, mpki\n");
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
    std::string workloads, predictors, modes;
    double maxRegress = 0.20;
    bool list = false;
    bool divisorExplicit = false;

    using exp::parseU64Arg;
    using exp::parseUnsignedArg;
    using exp::takeOptionValue;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); i++) {
        std::string v, err;
        int r;
        if ((r = obsFlags.take(args, i, err))) {
            if (r < 0)
                return usage(err.c_str());
        } else if (args[i] == "--quick") {
            cfg.quick = true;
        } else if (args[i] == "--list") {
            list = true;
        } else if (args[i] == "--help" || args[i] == "-h") {
            return usage();
        } else if ((r = takeOptionValue(args, i, "--jobs", v))) {
            if (r < 0 || !parseUnsignedArg(v, cfg.jobs))
                return usage("bad --jobs");
        } else if ((r = takeOptionValue(args, i, "--repeats", v))) {
            if (r < 0 || !parseUnsignedArg(v, cfg.repeats))
                return usage("bad --repeats");
        } else if ((r = takeOptionValue(args, i, "--div", v))) {
            if (r < 0 || !parseUnsignedArg(v, cfg.divisor))
                return usage("bad --div");
            divisorExplicit = true;
        } else if ((r = takeOptionValue(args, i, "--seed", v))) {
            uint64_t seed;
            if (r < 0 || !parseU64Arg(v, seed))
                return usage("bad --seed");
            cfg.seed = seed;
        } else if ((r = takeOptionValue(args, i, "--workloads", v))) {
            if (r < 0)
                return usage("bad --workloads");
            workloads = v;
        } else if ((r = takeOptionValue(args, i, "--predictors", v))) {
            if (r < 0)
                return usage("bad --predictors");
            predictors = v;
        } else if ((r = takeOptionValue(args, i, "--modes", v)) ||
                   (r = takeOptionValue(args, i, "--mode", v))) {
            if (r < 0)
                return usage("bad --modes");
            modes = v;
        } else if ((r = takeOptionValue(args, i, "--sample-interval",
                                        v))) {
            if (r < 0 || !parseU64Arg(v, cfg.sample.interval) ||
                cfg.sample.interval == 0) {
                return usage("bad --sample-interval");
            }
        } else if ((r = takeOptionValue(args, i, "--sample-warmup",
                                        v))) {
            // 0 is not a warmup length: an ExpPoint reads it as
            // "subsystem default".
            if (r < 0 || !parseU64Arg(v, cfg.sample.warmup) ||
                cfg.sample.warmup == 0) {
                return usage("bad --sample-warmup");
            }
        } else if ((r = takeOptionValue(args, i, "--sample-measure",
                                        v))) {
            if (r < 0 || !parseU64Arg(v, cfg.sample.measure) ||
                cfg.sample.measure == 0) {
                return usage("bad --sample-measure");
            }
        } else if ((r = takeOptionValue(args, i, "--out", v))) {
            if (r < 0)
                return usage("bad --out");
            out = v;
        } else if ((r = takeOptionValue(args, i, "--baseline", v))) {
            if (r < 0)
                return usage("bad --baseline");
            baseline = v;
        } else if ((r = takeOptionValue(args, i, "--write-baseline",
                                        v))) {
            if (r < 0)
                return usage("bad --write-baseline");
            writeBaseline = v;
        } else if ((r = takeOptionValue(args, i, "--max-regress", v))) {
            char *end = nullptr;
            maxRegress = r > 0 ? std::strtod(v.c_str(), &end) : 0.0;
            if (r < 0 || !end || *end != '\0' || v.empty() ||
                maxRegress < 0.0 || maxRegress >= 1.0) {
                return usage("bad --max-regress (want a fraction in "
                             "[0, 1))");
            }
        } else {
            return usage(("unknown option: " + args[i]).c_str());
        }
    }

    // --quick picks the CI-fast scale unless --div was given explicitly.
    if (cfg.quick && !divisorExplicit)
        cfg.divisor = 50;

    // Sampling parameters only shape sampled-mode points.
    const cpu::SampleParams defaults{};
    if (!(cfg.sample == defaults) &&
        modes.find("sampled") == std::string::npos) {
        return usage("--sample-* options require sampled in --modes");
    }

    std::vector<bench::BenchPoint> points;
    try {
        points = bench::expandModes(
            bench::filterPoints(bench::standardPoints(), workloads,
                                predictors),
            modes);
    } catch (const std::exception &e) {
        return usage(e.what());
    }
    if (points.empty())
        return usage("no points match the filters");
    if (list) {
        for (const auto &p : points)
            std::printf("%s %s pbs=%d %s\n", p.workload.c_str(),
                        p.predictor.c_str(), p.pbs ? 1 : 0,
                        p.mode.c_str());
        return 0;
    }

    obsFlags.start("pbs_bench");

    std::fprintf(stderr,
                 "pbs_bench: %zu points, div %u, %u job(s), %u repeat(s)\n",
                 points.size(), cfg.divisor, cfg.jobs,
                 std::max(1u, cfg.repeats));

    const auto results = bench::runBench(points, cfg);

    // Human-readable summary on stdout.
    std::printf("%-10s %-16s %-4s %-10s %14s %10s %10s\n", "workload",
                "predictor", "pbs", "mode", "instructions", "wall_ms",
                "mips");
    for (const auto &r : results) {
        std::printf("%-10s %-16s %-4d %-10s %14llu %10.2f %10.2f\n",
                    r.point.workload.c_str(), r.point.predictor.c_str(),
                    r.point.pbs ? 1 : 0, r.point.mode.c_str(),
                    static_cast<unsigned long long>(
                        r.metrics.instructions),
                    r.wallMs, r.mips);
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
