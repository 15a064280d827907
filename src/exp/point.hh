/**
 * @file
 * The experiment engine's unit of work: one fully-resolved simulation
 * point (ExpPoint) and what it measures (Measurement).
 *
 * An ExpPoint is a value type that pins *everything* a run depends on —
 * workload, variant, predictor, core shape, fidelity, every PBS knob,
 * the resolved scale and the seed — so its canonical JSON doubles as
 * the content-address for the result cache. Scale is stored resolved
 * (never 0/"default"): two sweeps reaching the same effective scale
 * through different divisors share cache entries.
 */

#ifndef PBS_EXP_POINT_HH
#define PBS_EXP_POINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/pbs_config.hh"
#include "cpu/core_config.hh"
#include "util/json.hh"
#include "sampling/sampled.hh"
#include "workloads/common.hh"

namespace pbs::exp {

/** What a point measures. */
enum class PointKind {
    Sim,   ///< core statistics + PBS counters + program outputs
    Rand,  ///< randomness-battery PASS/WEAK/FAIL tally (Table III)
};

/**
 * Which engine runs a Sim point, from its `mode`: the cpu::Core
 * (Detailed; SimMode picks timing or the mpki fidelity), the sampling
 * subsystem's FunctionalEngine (Functional, architectural state only)
 * or SMARTS sampling (Sampled). The cpu::Core only runs Detailed.
 */
enum class ExecMode { Detailed, Functional, Sampled };

/** One fully-resolved grid point. */
struct ExpPoint
{
    PointKind kind = PointKind::Sim;
    std::string workload;
    std::string predictor = "tage-sc-l";
    std::string variant = "marked";   ///< marked | predicated | cfd
    bool wide = false;                ///< 8-wide / 256-entry ROB

    /**
     * Execution mode: detailed | functional | sampled (the ExecMode
     * it selects). Part of the canonical point JSON, so results from
     * different modes can never collide in the cache.
     */
    std::string mode = "detailed";

    /**
     * The "mpki" fidelity: SimMode::Functional on the detailed core
     * (predictors and the PBS engine update, no timing). Orthogonal
     * to `mode` and only meaningful when mode == "detailed"; kept as
     * its own flag because the MPKI reports sweep it.
     */
    bool functional = false;
    bool pbs = false;

    /** Sampling parameters (mode == "sampled"; 0 = subsystem default). */
    uint64_t sampleInterval = 0;
    uint64_t sampleWarmup = 0;
    uint64_t sampleMeasure = 0;

    // PBS knobs (defaults match CoreConfig's).
    bool stallOnBusy = true;
    bool contextSupport = true;
    bool constValGuard = true;
    bool filterProb = false;          ///< Fig. 9 predictor filter
    unsigned numBranches = 0;         ///< Prob-BTB entries (0 = default)
    unsigned inFlightLimit = 0;       ///< in-flight limit (0 = default)

    uint64_t scale = 0;               ///< resolved, always > 0 when run
    uint64_t seed = 12345;

    bool operator==(const ExpPoint &) const = default;
};

/**
 * The mode a point is swept and reported under: `mpki` for the mpki
 * fidelity, else its `mode` (the spec and artifact vocabulary).
 */
std::string modeName(const ExpPoint &pt);

/** The `pbs` spec-axis value a point was expanded from: off, on,
 *  no-stall, no-context or no-guard. */
const char *pbsSetting(const ExpPoint &pt);

/** Resolve a workload's effective scale at a divisor. */
uint64_t resolvedScale(const workloads::BenchmarkDesc &b,
                       unsigned divisor);

/** Canonical JSON of a point (fixed key order; hash/cache input). */
std::string pointJson(const ExpPoint &pt);

/** Write the point object through an existing writer. */
void writePoint(util::JsonWriter &w, const ExpPoint &pt);

/** Parse a point back from its canonical JSON object. */
bool readPoint(const util::JsonValue &v, ExpPoint &out);

/** The core configuration a point describes (throws on unknown modes). */
cpu::CoreConfig pointCoreConfig(const ExpPoint &pt);

/** The workload parameters a point describes. */
workloads::WorkloadParams pointParams(const ExpPoint &pt);

/**
 * The point with its sampling parameters resolved to their effective
 * values (0/"default" replaced by the subsystem defaults the run
 * actually uses). Two sampled points that reach the same effective
 * parameters through different spellings normalize identically, so
 * campaign checkpoint groups and per-interval partials are shared
 * between them. Non-sampled points are returned unchanged.
 */
ExpPoint normalizedSamplePoint(const ExpPoint &pt);

/**
 * Everything a captured checkpoint set's contents depend on. Two runs
 * with equal keys capture bit-identical sets; any field difference
 * yields a different set hash, so the cache never serves a set to a
 * run it was not captured for.
 */
struct StoreKey
{
    std::string workload;
    std::string variant = "marked";
    uint64_t scale = 0;
    uint64_t seed = 0;
    uint64_t maxInstructions = 0;

    // Capture-shaping sampling parameters (measure is not one: it only
    // affects the detailed replay, never the captured states).
    uint64_t interval = 0;
    uint64_t warmup = 0;

    /** Code-version salt (versionSalt()). */
    std::string salt;
};

/**
 * The checkpoint-set key of a sampled point: workload identity,
 * resolved scale, seed, instruction cap, and the capture-shaping
 * sampling parameters (effective values). Predictor, width, PBS knobs,
 * and the measure length are deliberately absent — one captured set
 * serves every detailed configuration in a campaign group. @p salt is
 * the caller's code-version salt (versionSalt()).
 */
StoreKey checkpointStoreKey(const ExpPoint &pt, const std::string &salt);

/**
 * Canonical JSON of a key (fixed order, plus cpu::kArchStateVersion as
 * `arch_version`): the set-hash input.
 */
std::string storeKeyJson(const StoreKey &key);

/** Content hash identifying the set a key describes (32 hex chars). */
std::string storeSetHash(const StoreKey &key);

/**
 * The direction-stream key of a point (docs/architecture.md,
 * "Direction streams"): everything that shapes an mpki run's path —
 * the point minus its predictor and Fig. 9 filter, plus the
 * instruction cap. Two mpki points with equal keys execute the same
 * instructions, so one recorded stream serves both. Empty for a point
 * that is not an mpki Sim point (its path is not shared).
 */
std::string directionStreamKey(const ExpPoint &pt);

/** Variant enum from its canonical spelling ("marked" on unknown). */
workloads::Variant variantFromName(const std::string &name);

/**
 * ExecMode from its canonical spelling.
 * @throws std::invalid_argument naming any other spelling.
 */
ExecMode execModeFromName(const std::string &name);

/** What came out of running a point. */
struct Measurement
{
    cpu::CoreStats stats;
    core::PbsStats pbs;
    std::vector<double> outputs;

    // PointKind::Rand only.
    unsigned randPass = 0;
    unsigned randWeak = 0;
    unsigned randFail = 0;

    // Sampled-mode points only (mode == "sampled").
    bool hasSampling = false;
    sampling::SampleEstimate sampling;

    bool operator==(const Measurement &) const = default;
};

/** Canonical JSON of a measurement. */
void writeMeasurement(util::JsonWriter &w, PointKind kind,
                      const Measurement &m);
bool readMeasurement(const util::JsonValue &v, PointKind kind,
                     Measurement &out);

/** Canonical JSON of one per-interval sample (a cache partial's body). */
void writeIntervalSample(util::JsonWriter &w,
                         const sampling::IntervalSample &s);
bool readIntervalSample(const util::JsonValue &v,
                        sampling::IntervalSample &out);

/** 128-bit FNV-1a content hash, as 32 lowercase hex characters. */
std::string contentHash(const std::string &data);

}  // namespace pbs::exp

#endif  // PBS_EXP_POINT_HH
