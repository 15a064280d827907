/**
 * @file
 * The `pbs_sim` front end over the experiment engine: a parsed options
 * set expands into one exp::ExpPoint per seed, an exp::Engine measures
 * them on its `--jobs` pool (in-memory only, no result cache), and the
 * resulting Measurements render as the per-seed text table or the
 * `pbs-batch-v2` document. There is no second runner: a `pbs_sim` run
 * and the same point in a `pbs_exp` sweep are one computation.
 */

#ifndef PBS_DRIVER_RUNNER_HH
#define PBS_DRIVER_RUNNER_HH

#include <string>
#include <vector>

#include "driver/options.hh"
#include "exp/point.hh"

namespace pbs::driver {

/**
 * The points a batch describes: seeds opts.seed .. opts.seed +
 * opts.seeds - 1 of opts.workload, in seed order, with the scale
 * resolved (--scale, else the workload default over --div).
 */
std::vector<exp::ExpPoint> batchPoints(const DriverOptions &opts);

/**
 * Measure every point of batchPoints(opts) through an exp::Engine with
 * opts.jobs workers. Results are in seed order regardless of the
 * schedule, so a batch is bit-identical across jobs counts.
 */
std::vector<exp::Measurement> measureBatch(const DriverOptions &opts);

/** Render the per-seed + aggregate table `pbs_sim` prints for a batch. */
std::string formatBatch(const DriverOptions &opts,
                        const std::vector<exp::Measurement> &runs);

/**
 * The `pbs_sim --format json` document (`pbs-batch-v2`): the resolved
 * configuration plus per-seed metrics in the sweep artifacts' metric
 * schema. Single-seed sampled configurations also carry `ckpt_set`,
 * the content hash of the checkpoint set the run corresponds to (the
 * identity campaign mode stores it under).
 */
std::string batchJson(const DriverOptions &opts,
                      const std::vector<exp::Measurement> &runs);

/** Print the banner and batch table of a `pbs_sim --workload` run. */
void runWorkload(const DriverOptions &opts);

}  // namespace pbs::driver

#endif  // PBS_DRIVER_RUNNER_HH
