/**
 * @file
 * pbs_perfbench: the repository benchmark binary.
 *
 *   pbs_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   pbs_perfbench --regen-oracle [--quick]
 *
 * A run prints a human-readable summary and, as its last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. --trace 0
 * reports the end-to-end metrics, --trace 1 the per-layer ones. Run it
 * from the repository root (perfbench/run.py builds it first).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "jobs.hh"
#include "runner.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: pbs_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--quick]\n"
                 "       pbs_perfbench --regen-oracle [--quick]\n"
                 "options: --oracle-dir DIR (default perfbench/oracle), "
                 "--scratch-dir DIR (default .bench_build)\n"
                 "workloads:");
    for (const std::string &n : perfbench::jobNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseU64(const char *s, uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return end && *end == '\0' && *s != '\0' && *s != '-';
}

}  // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    bool regen = false;
    uint64_t trace = 0, seed = 0;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;

    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        auto needValue = [&] {
            if (!v) {
                std::fprintf(stderr, "pbs_perfbench: %s needs a value\n",
                             a.c_str());
                return false;
            }
            i++;
            return true;
        };
        if (a == "--regen-oracle") {
            regen = true;
        } else if (a == "--quick") {
            opts.divisor = 20;
        } else if (a == "--workload") {
            if (!needValue())
                return usage();
            opts.workload = v;
        } else if (a == "--seed") {
            if (!needValue() || !parseU64(v, seed))
                return usage();
            haveSeed = true;
        } else if (a == "--seconds") {
            uint64_t s = 0;
            if (!needValue() || !parseU64(v, s) || s == 0)
                return usage();
            opts.seconds = double(s);
            haveSeconds = true;
        } else if (a == "--trace") {
            if (!needValue() || !parseU64(v, trace) || trace > 1)
                return usage();
            haveTrace = true;
        } else if (a == "--oracle-dir") {
            if (!needValue())
                return usage();
            opts.oracleDir = v;
        } else if (a == "--scratch-dir") {
            if (!needValue())
                return usage();
            opts.scratchDir = v;
        } else {
            std::fprintf(stderr, "pbs_perfbench: unknown argument %s\n",
                         a.c_str());
            return usage();
        }
    }

    try {
        if (regen) {
            return perfbench::regenOracle(opts.oracleDir, opts.divisor != 1);
        }
        if (opts.workload.empty() || !haveSeed || !haveSeconds ||
            !haveTrace)
            return usage();
        opts.seed = seed;
        opts.trace = trace == 1;
        perfbench::makeJob(opts.workload, 0);  // validates the name
        const perfbench::RunResult r = opts.trace
                                           ? perfbench::runTraced(opts)
                                           : perfbench::runTimed(opts);
        std::printf("%s\n", perfbench::resultJson(r).c_str());
        return r.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pbs_perfbench: %s\n", e.what());
        return 1;
    }
}
