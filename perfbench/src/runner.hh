/**
 * @file
 * The benchmark's runs: the timed run (tracing off; end-to-end
 * metrics), the traced run (spans, fidelity ladder and replays;
 * per-layer metrics) and oracle regeneration.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/point.hh"
#include "jobs.hh"
#include "oracle.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;

    /** Scale divisor: 1 for the benchmark, larger for the quick smoke. */
    unsigned divisor = 1;
    std::string oracleDir = "perfbench/oracle";
    /** Where result caches and span files go (inside the checkout). */
    std::string scratchDir = ".bench_build";
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct RunResult
{
    bool correct = false;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/**
 * Timed run: a fixed number of closed-loop passes over the job, one per
 * 5 s of opts.seconds (at least one).
 */
RunResult runTimed(const Options &opts);

/** Traced run: one untraced and one traced pass, then the ledger. */
RunResult runTraced(const Options &opts);

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const RunResult &r);

/**
 * Recompute and store the oracle of every input set (quick: set 0 at
 * the quick scale only) on up to 4 threads. @return exit code.
 */
int regenOracle(const std::string &dir, bool quick);

/** Simulator accuracy of sampled points against their references. */
struct Accuracy
{
    double ipcErrPct = 0;   ///< mean |IPC error|, percent
    double mpkiAbsErr = 0;  ///< mean |MPKI error|, MPKI
    double coverage = 0;    ///< share of references inside the 95% CI
    size_t points = 0;
};

/** @p records must carry an estimate and a reference each. */
Accuracy accuracyOf(const std::vector<Record> &records);

/**
 * Fig. 7 geomean PBS speedups (IPC with PBS over without, genetic
 * averaged over its seeds) for tournament and TAGE-SC-L.
 */
std::pair<double, double>
fig07Gains(const Job &job, const std::vector<pbs::cpu::CoreStats> &stats);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_HH
