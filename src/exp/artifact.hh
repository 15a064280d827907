/**
 * @file
 * Artifact export: canonical JSON and CSV renderings of sweep results
 * and the volatile run summary.
 *
 * Artifacts contain only deterministic simulation data — never wall
 * times or cache counters — so the same sweep produces byte-identical
 * files for any jobs count and for cold vs warm caches. Volatile run
 * information (hit/computed counters, elapsed time) lives in the
 * separate run summary that `pbs_exp` prints to stdout.
 */

#ifndef PBS_EXP_ARTIFACT_HH
#define PBS_EXP_ARTIFACT_HH

#include <string>
#include <vector>

#include "exp/engine.hh"
#include "exp/point.hh"

namespace pbs::exp {

/**
 * JSON artifact of a sweep: schema tag, optional spec echo, and one
 * entry per point (config + metrics), in grid-expansion order.
 * Every point must already be measurable through @p engine.
 */
std::string sweepJson(const std::vector<ExpPoint> &points,
                      Engine &engine,
                      const std::string &specEcho = "");

/** CSV artifact: one header row + one row per point. */
std::string sweepCsv(const std::vector<ExpPoint> &points, Engine &engine);

/** Volatile run summary (counters, timings) for stdout/CI. */
std::string runSummaryJson(const EngineCounters &counters,
                           size_t points, uint64_t elapsedMs,
                           const std::string &out,
                           const std::string &csv);

}  // namespace pbs::exp

#endif  // PBS_EXP_ARTIFACT_HH
