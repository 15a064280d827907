/**
 * @file
 * Command-line plumbing shared by the `pbs_exp` and `pbs_bench` CLIs:
 * option-value scanning, strict unsigned parsers, and the
 * observability flags (`--trace`, `--metrics`, `--manifest`,
 * `--telemetry`, `--telemetry-interval`) together with the collector
 * lifecycle behind them.
 */

#ifndef PBS_EXP_CLI_HH
#define PBS_EXP_CLI_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pbs::exp {

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

/** The observability flags of one CLI invocation (empty = off). */
struct ObsFlags
{
    std::string traceFile;           ///< pbs-trace-v1 span timeline
    std::string metricsFile;         ///< pbs-metrics-v1 snapshot
    std::string manifestFile;        ///< pbs-run-v1 run manifest
    std::string telemetryFile;       ///< pbs-timeseries-v1 sampler
    uint64_t telemetryIntervalMs = 1000;  ///< sampler tick period

    /**
     * Consume args[i] when it is an observability flag.
     * @return 1 = consumed, 0 = a different option, -1 = a bad or
     *         missing value (@p error then opens with the flag).
     */
    int take(const std::vector<std::string> &args, size_t &i,
             std::string &error);

    /**
     * Enable the requested collectors and start the telemetry
     * sampler; @p prog prefixes the warning when its file cannot be
     * opened. Call once, before the run.
     */
    void start(const char *prog) const;

    /**
     * Write the requested artifacts after the run, in the one order
     * that keeps the manifest complete: fold the pool statistics into
     * the metrics, stop the telemetry sampler (its final sample must be
     * registered before the manifest hashes the artifact list), write
     * the trace and the metrics snapshot, and write the manifest last.
     * Failures are warnings on stderr, prefixed with @p prog.
     */
    void finish(const char *prog) const;
};

}  // namespace pbs::exp

#endif  // PBS_EXP_CLI_HH
