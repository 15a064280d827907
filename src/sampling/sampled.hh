/**
 * @file
 * SMARTS-style systematic sampling over the detailed core (Wunderlich
 * et al., ISCA'03, adapted to this simulator): the program runs
 * start-to-finish on the functional fast-forward engine, a checkpoint
 * is captured every `interval` instructions, and each checkpoint fans
 * out to a fresh detailed core on the thread pool that warms
 * predictors and caches for `warmup` instructions (statistics
 * discarded) and then measures `measure` instructions. Per-interval
 * CPI/MPKI variance yields 95% confidence intervals; totals are scaled
 * from the exact functional instruction count.
 *
 * What is exact and what is estimated:
 *  - instructions, branches, probBranches, outputs, final memory:
 *    exact (the functional pass executes the whole program).
 *  - cycles, mispredictions, steered counts, IPC, MPKI: estimated,
 *    with confidence intervals in SampleEstimate.
 *
 * With PBS enabled the fast-forward executes unsteered (PBS-off value
 * semantics) while warmup/measure run the full engine, so sampled
 * PBS-on runs estimate the statistics of a *statistically equivalent*
 * execution — exactly the property the paper's mechanism guarantees —
 * rather than replaying one specific detailed-mode value sequence.
 *
 * Programs too short to yield at least two measured intervals fall
 * back to one full detailed run (SampleEstimate::exact).
 *
 * Two deliberate approximations:
 *  - The schedule starts at k = 1 (the first warmup needs `warmup`
 *    instructions of runway), so the first `interval` instructions —
 *    the startup transient — contribute to the exact totals but are
 *    never timed. Shrink `interval` if the startup phase matters.
 *  - Checkpoints for the whole run are captured before the fan-out
 *    begins, so peak memory is O(intervals x workload footprint)
 *    during phase 2 (each checkpoint's pages are released as soon as
 *    its sample completes). The registered workloads keep footprints
 *    in the KB-to-MB range; revisit with a streaming capture if a
 *    future workload does not.
 */

#ifndef PBS_SAMPLING_SAMPLED_HH
#define PBS_SAMPLING_SAMPLED_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/arch_state.hh"
#include "cpu/core_config.hh"
#include "isa/program.hh"

namespace pbs::sampling {

/** What the sampled simulator measured, beyond the point estimates. */
struct SampleEstimate
{
    uint64_t intervals = 0;            ///< measured intervals
    uint64_t ffInstructions = 0;       ///< functionally fast-forwarded
    uint64_t detailedInstructions = 0; ///< warmup + measured, detailed

    double ipc = 0.0;
    double ipcCi95 = 0.0;   ///< 95% CI half-width of the IPC estimate
    double mpki = 0.0;
    double mpkiCi95 = 0.0;  ///< 95% CI half-width of the MPKI estimate

    /** Program too short to sample: one exact detailed run instead. */
    bool exact = false;

    bool operator==(const SampleEstimate &) const = default;
};

/** Result of one sampled simulation. */
struct SampledRun
{
    /**
     * CoreStats in the detailed layout: instructions, branches and
     * probBranches are exact; cycles and the misprediction/steering
     * counters are estimates scaled to the full run (rounded).
     */
    cpu::CoreStats stats;

    SampleEstimate est;

    /** Exact architectural end state (outputs live in .mem). */
    cpu::ArchState finalState;
};

/**
 * Run @p prog under systematic sampling. @p cfg describes the detailed
 * core used for warmup/measure intervals (predictor, width, PBS...);
 * cfg.sample supplies the sampling parameters and fan-out thread
 * count.
 * @throws std::invalid_argument when cfg.sample is inconsistent
 *         (interval == 0, measure == 0, or warmup+measure > interval).
 */
SampledRun runSampled(const isa::Program &prog,
                      const cpu::CoreConfig &cfg);

// ---------------------------------------------------------------------
// The three phases of a sampled run, exposed individually so the
// experiment engine can capture phase 1 once for every configuration
// that shares it (and persist it in the cache), schedule phase 2 one
// interval at a time (across processes too, through cache partials)
// and re-run phase 3 over the collected per-interval samples —
// bit-identical to a single-process run.
// ---------------------------------------------------------------------

/** Every phase's check of @p sp (throws std::invalid_argument). */
void validateParams(const cpu::SampleParams &sp);

/**
 * Integer deltas of one measured interval: the unit of work the
 * experiment engine fans out, stores as a cache partial in a durable
 * campaign, and aggregates. All counters are exact, so samples
 * measured by different processes combine without any floating-point
 * order sensitivity.
 */
struct IntervalSample
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t mispredicts = 0;
    uint64_t regularMispredicts = 0;
    uint64_t probMispredicts = 0;
    uint64_t steered = 0;
    uint64_t detailed = 0;  ///< total detailed insts (warmup included)
    bool valid = false;

    bool operator==(const IntervalSample &) const = default;
};

/**
 * Phase-1 output: everything the fan-out needs, decoupled from the
 * functional engine that produced it (and what the experiment cache
 * persists). `totals` carries the exact architectural counters of the
 * full functional pass; `finalState` the exact end-of-program state
 * (program outputs live in its memory).
 */
struct CheckpointSet
{
    std::vector<cpu::ArchState> checkpoints;
    cpu::ArchState finalState;
    cpu::CoreStats totals;
};

/**
 * Phase 1: functional fast-forward to completion, capturing one
 * checkpoint per sampling interval at (k * interval - warmup).
 * @throws std::invalid_argument on inconsistent cfg.sample (same
 *         contract as runSampled).
 */
CheckpointSet captureCheckpoints(const isa::Program &prog,
                                 const cpu::CoreConfig &cfg);

/**
 * The detailed configuration warmup/measure intervals run under:
 * @p cfg with its fidelity forced back to SimMode::Timing. Exposed so
 * schedulers outside this module (the exp engine's checkpoint-set
 * groups) measure under *exactly* the configuration the in-process
 * phases use.
 */
cpu::CoreConfig detailedMeasureConfig(const cpu::CoreConfig &cfg);

/**
 * The exact fallback every sampled path takes when a program is too
 * short to sample (fewer than two valid intervals): one full detailed
 * run under detailedMeasureConfig(). Exposed for the same reason —
 * the exp engine's fallback must be bit-identical to runSampledOnSet's.
 */
SampledRun runExactDetailed(const isa::Program &prog,
                            const cpu::CoreConfig &detCfg);

/**
 * Phase 2 for one interval: restore @p chk into a fresh detailed core,
 * warm for @p warmup instructions, measure @p measure instructions.
 */
IntervalSample measureInterval(const isa::Program &prog,
                               const cpu::CoreConfig &detCfg,
                               const cpu::ArchState &chk,
                               uint64_t warmup, uint64_t measure);

/**
 * Phase 2 for a whole set: measure every checkpoint as a task on the
 * shared scheduler (pool::TaskPool), returning one sample per interval
 * in interval order. Consumed checkpoints have their memory pages
 * released.
 */
std::vector<IntervalSample>
measureIntervals(const isa::Program &prog, const cpu::CoreConfig &cfg,
                 CheckpointSet &set);

/**
 * Phase 3: ratio-estimator totals and per-interval-variance CIs over
 * @p samples, which must be ordered by interval index and cover every
 * interval exactly once (the aggregation is order-sensitive only in
 * its floating-point rounding, so a fixed order keeps merged results
 * bit-identical to single-process ones).
 * @return false when fewer than two samples are valid — the caller
 *         must fall back to one exact detailed run.
 */
bool aggregateSamples(const cpu::CoreStats &totals,
                      const cpu::ArchState &finalState,
                      const std::vector<IntervalSample> &samples,
                      SampledRun &out);

/**
 * Phases 2+3 over an existing checkpoint set (captured in-process or
 * loaded from the experiment cache): fan out every checkpoint,
 * aggregate, and fall back to one exact detailed run when the set is
 * too small to sample.
 * Results are bit-identical to runSampled() with the same prog/cfg.
 */
SampledRun runSampledOnSet(const isa::Program &prog,
                           const cpu::CoreConfig &cfg,
                           CheckpointSet &set);

}  // namespace pbs::sampling

#endif  // PBS_SAMPLING_SAMPLED_HH
