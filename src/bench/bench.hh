/**
 * @file
 * The throughput-benchmark subsystem behind `pbs_bench`: times
 * simulated-MIPS for workload x predictor x mode points over the
 * deterministic thread pool and renders the canonical `pbs-bench-v2`
 * artifact (per-point `mode` field). Every point is an exp::ExpPoint cut
 * from a SweepSpec and timed by exp::timePoint, the same run and timed
 * region the Pareto sweep uses.
 *
 * Determinism contract (mirrors the experiment engine's rules): the
 * artifact's *content-hashed body* contains only deterministic
 * simulation data — the schema tag, the resolved configuration, and
 * each point's architectural metrics (instructions, cycles,
 * mispredictions...). Monotonic-clock wall times and the derived MIPS
 * figures are emitted *outside* the hashed body, so two runs of the
 * same code on the same spec always agree on `content_hash` even
 * though their timings differ. CI compares MIPS against a checked-in
 * baseline (`bench/baseline.json`) and fails on a >20% regression.
 */

#ifndef PBS_BENCH_BENCH_HH
#define PBS_BENCH_BENCH_HH

#include <string>
#include <vector>

#include "exp/engine.hh"
#include "exp/spec.hh"

namespace pbs::bench {

/** The default axes: every workload and predictor, detailed, div 4. */
exp::SweepSpec standardSpec();

/** Benchmark-run configuration. */
struct BenchConfig
{
    /** The axes the grid is cut from: workloads, predictors, modes,
     *  div, seed and the sampled-mode parameters, the ones pbs_bench
     *  sets and the artifact's config echoes. */
    exp::SweepSpec spec = standardSpec();
    unsigned jobs = 1;
    /** Timing repetitions per point; the best (minimum) wall time is
     *  reported, which is the standard noise-robust estimator. */
    unsigned repeats = 1;
};

/**
 * The standard measurement grid cut from @p spec: for each selected
 * workload in registry order, every selected predictor in registry
 * order with PBS off, then tage-sc-l with PBS on when it is selected;
 * each crossed with the spec's modes in their given order (point-major,
 * so a pair's modes print next to each other). The spec's PBS axis is
 * ignored unless @p pbsAxis: then each workload's points are every
 * selected predictor crossed with the modes and then with the spec's
 * PBS settings, in their given order. Unknown names fail the result as
 * expandSpec does.
 */
exp::ExpandResult standardGrid(exp::SweepSpec spec, bool pbsAxis = false);

/** One measured point: its deterministic result plus wall times. */
struct BenchResult
{
    exp::ExpPoint point;
    exp::TimedRun run;
};

/**
 * Measure @p points on a deterministic thread pool (results are
 * ordered by point index regardless of worker interleaving; the
 * simulations themselves are bit-deterministic, only wall times vary).
 */
std::vector<BenchResult> runBench(const std::vector<exp::ExpPoint> &points,
                                  const BenchConfig &cfg);

/**
 * FNV-1a hash (hex) of the deterministic body of a result set: schema,
 * config, and per-point metrics. Wall times and MIPS are excluded.
 */
std::string contentHash(const std::vector<BenchResult> &results,
                        const BenchConfig &cfg);

/** Render the canonical `pbs-bench-v2` JSON artifact. */
std::string benchJson(const std::vector<BenchResult> &results,
                      const BenchConfig &cfg);

/**
 * Compare @p results against a `pbs-bench-v2` baseline artifact.
 * A point regresses when its MIPS falls below (1 - maxRegress) x the
 * baseline MIPS of the same (workload, predictor, pbs, mode) point;
 * points missing from the baseline are skipped.
 *
 * @param report human-readable comparison table appended here
 * @return number of regressed points (0 = pass)
 */
unsigned compareBaseline(const std::vector<BenchResult> &results,
                         const std::string &baselineJson,
                         double maxRegress, std::string &report);

/** Geometric mean of the per-point MIPS figures (0 when empty). */
double geomeanMips(const std::vector<BenchResult> &results);

}  // namespace pbs::bench

#endif  // PBS_BENCH_BENCH_HH
