/**
 * @file
 * Sampling-parameter Pareto sweep: how much accuracy does each
 * (interval, warmup, measure) point buy per unit of simulation speed?
 *
 * For every (workload, predictor, pbs) combination of a spec, the
 * sweep first times one *detailed* reference run, then one *sampled*
 * run per sample-grid triple, and reports each triple's IPC/MPKI error
 * against the reference next to its simulated-MIPS throughput and the
 * detailed-instruction fraction. Rows that no other row beats on both
 * error and speed are flagged as the Pareto frontier — the defensible
 * parameter choices.
 *
 * Timing is wall-clock (monotonic, best-of-repeats, sequential) through
 * exp::timePoint, the same timed run as pbs_bench's: program build and
 * core construction are left out, so MIPS and speedup columns are
 * machine-specific simulation throughput; the error columns are
 * bit-deterministic. Points deliberately bypass the result cache: a
 * Pareto sweep is a throughput experiment, and cached wall times would
 * be meaningless.
 */

#ifndef PBS_EXP_PARETO_HH
#define PBS_EXP_PARETO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/spec.hh"

namespace pbs::exp {

/** Pareto-sweep configuration. */
struct ParetoConfig
{
    /**
     * Workloads, predictors, pbs modes, div/scales and seed are
     * honored; modes are ignored (the sweep pins detailed + sampled
     * itself). An empty spec.sampleGrid selects defaultSampleGrid().
     */
    SweepSpec spec;

    /** Wall-time repetitions per point (best, i.e. minimum, is kept). */
    unsigned repeats = 1;

    /** Per-point progress lines through the log sink (obs::logLinef). */
    bool progress = false;
};

/** The built-in grid: speed-leaning to accuracy-leaning. */
const std::vector<SampleTriple> &defaultSampleGrid();

/** One sampled configuration measured against its detailed reference. */
struct ParetoRow
{
    std::string workload;
    std::string predictor;
    bool pbs = false;

    uint64_t interval = 0;
    uint64_t warmup = 0;
    uint64_t measure = 0;

    /** Program too short for this interval: exact fallback ran. */
    bool exact = false;

    uint64_t intervals = 0;   ///< measured intervals
    double detailPct = 0.0;   ///< detailed insts / total insts, %

    double ipcErrPct = 0.0;   ///< |sampled - detailed| / detailed, %
    double mpkiErrPct = 0.0;  ///< vs max(detailed mpki, 1.0), %

    double detailedMips = 0.0;
    double sampledMips = 0.0;
    double speedup = 0.0;     ///< sampledMips / detailedMips

    /** On the per-(workload, predictor, pbs) error-vs-MIPS frontier. */
    bool frontier = false;
};

/**
 * Run the sweep (sequential, timed). Rows come out grid-ordered:
 * workload-major, then predictor, pbs mode, and triple.
 * @throws std::invalid_argument / std::runtime_error on bad specs.
 */
std::vector<ParetoRow> runParetoSweep(const ParetoConfig &cfg);

/** Human-readable table (frontier rows marked with '*'). */
std::string paretoTable(const std::vector<ParetoRow> &rows);

/** CSV artifact (one header + one row per measured configuration). */
std::string paretoCsv(const std::vector<ParetoRow> &rows);

}  // namespace pbs::exp

#endif  // PBS_EXP_PARETO_HH
