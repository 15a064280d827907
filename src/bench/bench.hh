/**
 * @file
 * The throughput-benchmark subsystem behind `pbs_bench`: times
 * simulated-MIPS for workload x predictor x mode points over the
 * deterministic thread pool and renders the canonical `pbs-bench-v2`
 * artifact (per-point `mode` field). Each point's core configuration
 * comes from the exp::ExpPoint it describes (exp::pointCoreConfig), the
 * same mapping every sweep uses.
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

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core_config.hh"

namespace pbs::bench {

/** One measured configuration. */
struct BenchPoint
{
    std::string workload;
    std::string predictor;  ///< canonical name
    bool pbs = false;

    /** Execution mode: detailed | functional | sampled | mpki (see
     *  README "Simulation modes"). */
    std::string mode = "detailed";
};

/** Benchmark-run configuration. */
struct BenchConfig
{
    /** Workload scale divisor (quick mode raises it). */
    unsigned divisor = 4;
    uint64_t seed = 12345;
    unsigned jobs = 1;
    /** Timing repetitions per point; the best (minimum) wall time is
     *  reported, which is the standard noise-robust estimator. */
    unsigned repeats = 1;
    bool quick = false;  ///< --quick: divisor 50, for CI

    /** Sampled-mode parameters (points with mode == "sampled"; the
     *  fan-out runs sequentially inside the timed region so sampled
     *  MIPS stays comparable across --jobs counts). */
    cpu::SampleParams sample{};
};

/** Deterministic simulation metrics of one point (content-hashed). */
struct BenchMetrics
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    uint64_t steered = 0;
};

/** One measured result: metrics plus (volatile) timing. */
struct BenchResult
{
    BenchPoint point;
    BenchMetrics metrics;
    double wallMs = 0.0;        ///< best-of-repeats simulation wall time
    double wallMsMedian = 0.0;  ///< median across --repeats
    double wallMsMean = 0.0;    ///< mean across --repeats
    double mips = 0.0;          ///< instructions / wallMs / 1000
};

/**
 * The standard measurement grid: every registered workload crossed
 * with every direction predictor (PBS off), plus every workload with
 * the paper's default predictor and PBS on.
 */
std::vector<BenchPoint> standardPoints();

/**
 * Filter @p points to the given comma-separated workload / predictor
 * lists (empty string = no filtering on that axis). Unknown names are
 * rejected with std::invalid_argument.
 */
std::vector<BenchPoint> filterPoints(const std::vector<BenchPoint> &points,
                                     const std::string &workloads,
                                     const std::string &predictors);

/**
 * Cross @p points with a comma-separated list of execution modes
 * (point-major: each pair's modes stay adjacent, so detailed,
 * functional and sampled MIPS print next to each other). Unknown
 * modes are rejected with std::invalid_argument.
 */
std::vector<BenchPoint> expandModes(const std::vector<BenchPoint> &points,
                                    const std::string &modes);

/**
 * Measure @p points on a deterministic thread pool (results are
 * ordered by point index regardless of worker interleaving; the
 * simulations themselves are bit-deterministic, only wall times vary).
 */
std::vector<BenchResult> runBench(const std::vector<BenchPoint> &points,
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
