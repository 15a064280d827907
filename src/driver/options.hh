/**
 * @file
 * Command-line options for the unified `pbs_sim` driver.
 *
 * One CLI selects the workload (from workloads::registry), the direction
 * predictor, the core width and simulation fidelity, the scale, and the
 * seed(s); `--seeds N --jobs M` batch-runs N consecutive seeds on an
 * M-thread pool. The parsed options expand into one exp::ExpPoint per
 * seed (driver/runner.hh), so `pbs_sim` and `pbs_exp` share one config
 * type and one runner. The fig/table reports live behind
 * `pbs_exp --report`.
 */

#ifndef PBS_DRIVER_OPTIONS_HH
#define PBS_DRIVER_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/common.hh"

namespace pbs::driver {

/** Everything `pbs_sim` can be told to do. */
struct DriverOptions
{
    // What to run.
    std::string workload;            ///< benchmark name (registry)
    bool list = false;               ///< print workloads/predictors
    bool help = false;

    // Simulated machine.
    std::string predictor = "tage-sc-l";
    bool wide = false;               ///< 8-wide / 256-entry ROB

    /**
     * Execution mode: detailed | functional | sampled (the
     * CLI also accepts "mpki", which sets `functional`).
     */
    std::string mode = "detailed";

    /** The mpki fidelity: SimMode::Functional on the detailed core
     *  (predictor/PBS updates without timing; `--mode mpki`). */
    bool functional = false;
    bool pbs = false;                ///< Probabilistic Branch Support
    bool noStall = false;            ///< pbs.stallOnBusy = false
    bool noContext = false;          ///< pbs.contextSupport = false
    bool noGuard = false;            ///< pbs.constValGuard = false

    // Sampling parameters (mode == "sampled"; 0 = subsystem default).
    uint64_t sampleInterval = 0;     ///< insts between measurements
    uint64_t sampleWarmup = 0;       ///< detailed warmup per sample
    uint64_t sampleMeasure = 0;      ///< measured insts per sample

    // Workload parameters.
    workloads::Variant variant = workloads::Variant::Marked;
    uint64_t scale = 0;              ///< 0 = workload default
    unsigned divisor = 1;            ///< divide the default scale
    uint64_t seed = 12345;

    // Batch control.
    unsigned seeds = 1;              ///< run seeds seed..seed+N-1
    unsigned jobs = 1;               ///< worker threads for the batch

    // Output control.
    std::string format = "text";     ///< "text" | "json" (batch runs)

    // Observability artifacts (src/obs; empty = collector disabled).
    std::string traceFile;           ///< pbs-trace-v1 span timeline
    std::string metricsFile;         ///< pbs-metrics-v1 snapshot
    std::string manifestFile;        ///< pbs-run-v1 run manifest
    std::string telemetryFile;       ///< pbs-timeseries-v1 sampler
    uint64_t telemetryIntervalMs = 1000;  ///< sampler tick period
};

/** Outcome of parsing an argv vector. */
struct ParseResult
{
    bool ok = false;
    std::string error;               ///< set when !ok (may be empty)
    DriverOptions opts;
};

/**
 * Scan "--key value" / "--key=value" at position @p i of @p args.
 * @return 1 = matched (@p value filled; @p i advanced past a separate
 *         value argument), 0 = a different option, -1 = the key is
 *         present but missing its value.
 */
int takeOptionValue(const std::vector<std::string> &args, size_t &i,
                    const char *key, std::string &value);

/** Parse an unsigned 64-bit option value (rejects signs and junk). */
bool parseU64Arg(const std::string &s, uint64_t &out);

/** Parse an unsigned 32-bit option value. */
bool parseUnsignedArg(const std::string &s, unsigned &out);

/** Parse `pbs_sim` arguments (argv[0] is skipped). */
ParseResult parseArgs(int argc, const char *const *argv);

/** Convenience overload for tests. */
ParseResult parseArgs(const std::vector<std::string> &args);

/** The full usage text. */
std::string usageText();

/**
 * Canonicalize a predictor name: lower-cased, '_' -> '-', and common
 * aliases resolved (e.g. "tage_scl" and "tage-scl" -> "tage-sc-l").
 * @return the canonical name, or the empty string when unknown.
 */
std::string canonicalPredictor(const std::string &name);

/** All predictor names accepted by bpred::makePredictor. */
const std::vector<std::string> &predictorNames();

}  // namespace pbs::driver

#endif  // PBS_DRIVER_OPTIONS_HH
