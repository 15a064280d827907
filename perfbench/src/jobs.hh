/**
 * @file
 * The benchmark's three closed-loop batch jobs. Each is a fixed list of
 * experiment points driven from one process with no arrival rate: the
 * next point (or checkpoint-set group) starts only when the previous
 * one has finished.
 *
 *  - fig07-detailed: the Fig. 7 grid (`pbs_exp --report fig07`), 60
 *    detailed 4-wide points at default scale, 1 job, cache off.
 *  - zoo-mpki: the Fig. 6 / Table IV predictor zoo at mpki fidelity,
 *    80 points at default scale, 1 job.
 *  - sampled-campaign: 64 sampled points at twice the default scale
 *    over two workload seeds (the input set's and kCampaignAnchorSeed),
 *    run in campaign mode on 2 jobs against a fresh result cache,
 *    followed by a warm rerun from the same cache.
 *
 * The benchmark seed selects one of kOraclePool stored input sets; the
 * simulated programs only ever see the derived workload seeds.
 */

#ifndef PERFBENCH_JOBS_HH
#define PERFBENCH_JOBS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/point.hh"

namespace perfbench {

/** Number of input sets the stored oracle covers. */
inline constexpr unsigned kOraclePool = 16;

/**
 * The sampled campaign's second workload seed, the same in every input
 * set: half of its points, and of the sampled accuracy figures, do not
 * change from one benchmark seed to the next.
 */
inline constexpr uint64_t kCampaignAnchorSeed = 9;

/** The oracle input set a benchmark seed selects. */
unsigned poolIndex(uint64_t benchSeed);

/**
 * Workload seed @p slot of input set @p pool. Set 0 reproduces the
 * paper harness (seed 12345; genetic's 8 seeds are slots 1..8).
 */
uint64_t programSeed(unsigned pool, unsigned slot);

/** One batch job: its points and how they are scheduled. */
struct Job
{
    std::string name;
    unsigned jobs = 1;        ///< worker threads
    bool campaign = false;    ///< exp::Engine campaign mode + result cache

    std::vector<pbs::exp::ExpPoint> points;
    std::vector<std::string> keys;  ///< oracle key per point

    /**
     * Units of closed-loop work, as point indices. A campaign group is
     * one checkpoint set (every configuration of one workload and
     * seed); every other job runs one point per group.
     */
    std::vector<std::vector<size_t>> groups;
};

/** The job names, in the order the benchmark lists them. */
const std::vector<std::string> &jobNames();

/**
 * Build job @p name over input set @p pool. @p divisor scales every
 * workload down (1 = the benchmark; larger values give the quick
 * smoke-test scale).
 * @throws std::invalid_argument for an unknown job name.
 */
Job makeJob(const std::string &name, unsigned pool, unsigned divisor = 1);

/** Oracle key of a point: workload|predictor|pbs|seed. */
std::string pointKey(const pbs::exp::ExpPoint &pt);

/** The full detailed run a sampled point estimates. */
pbs::exp::ExpPoint detailedReference(const pbs::exp::ExpPoint &pt);

/** The eight predictors of the zoo, "perfect" last. */
const std::vector<std::string> &zooPredictors();

}  // namespace perfbench

#endif  // PERFBENCH_JOBS_HH
