/**
 * @file
 * Out-of-order core configuration, modeled after the paper's Sniper
 * setup: an aggressive 4-wide core with a 168-entry ROB configured after
 * Intel Sandy Bridge, 10-cycle branch misprediction (front-end refill)
 * penalty, 32 KB L1s and a 2 MB L2 (Sec. VI-B). An 8-wide / 256-entry
 * variant reproduces Fig. 8.
 */

#ifndef PBS_CPU_CORE_CONFIG_HH
#define PBS_CPU_CORE_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/pbs_config.hh"
#include "mem/cache.hh"

namespace pbs::cpu {

/** Functional-unit pool sizes. */
struct FuPools
{
    unsigned intAlu = 3;
    unsigned intMul = 1;
    unsigned intDiv = 1;
    unsigned fpAlu = 1;
    unsigned fpMul = 1;
    unsigned fpDiv = 1;     ///< also sqrt and transcendental ops
    unsigned loadPorts = 2;
    unsigned storePorts = 1;
};

/** Operation latencies (cycles). */
struct Latencies
{
    unsigned intAlu = 1;
    unsigned intMul = 3;
    unsigned intDiv = 20;       ///< unpipelined
    unsigned fpAlu = 3;
    unsigned fpMul = 4;
    unsigned fpDiv = 12;        ///< unpipelined
    unsigned fpSqrt = 15;       ///< unpipelined
    unsigned fpTrans = 24;      ///< exp/log/sin/cos, unpipelined
    unsigned store = 1;
};

/** Simulation fidelity of the detailed core. */
enum class SimMode {
    Timing,      ///< full OoO timing + predictors + caches
    Functional,  ///< architectural state only (fast accuracy runs)
};

/** Systematic-sampling parameters (read by the sampling subsystem). */
struct SampleParams
{
    /** Instructions between the starts of consecutive measurements. */
    uint64_t interval = 500'000;
    /** Detailed instructions simulated before each measurement to warm
     *  predictors and caches (statistics are discarded). */
    uint64_t warmup = 100'000;
    /** Detailed instructions measured per interval. */
    uint64_t measure = 60'000;
    /** Cap on measured intervals (0 = every interval). */
    uint64_t maxSamples = 0;

    bool operator==(const SampleParams &) const = default;
};

/** Complete core configuration. */
struct CoreConfig
{
    SimMode mode = SimMode::Timing;

    /** Sampling parameters (the cpu::Core ignores them). */
    SampleParams sample{};

    unsigned width = 4;          ///< fetch/dispatch/commit width
    unsigned robSize = 168;
    unsigned frontendDepth = 5;  ///< fetch-to-dispatch stages
    unsigned mispredictPenalty = 10;  ///< front-end refill cycles

    FuPools pools{};
    Latencies lat{};
    mem::HierarchyConfig memory{};

    /** Direction predictor: see bpred::makePredictor for names. */
    std::string predictor = "tage-sc-l";

    /** Enable Probabilistic Branch Support. */
    bool pbsEnabled = false;
    core::PbsConfig pbs{};

    /**
     * Fig. 9 experiment: when true, probabilistic branches neither probe
     * nor update the direction predictor (PBS itself stays off); they
     * are resolved with a static not-taken guess whose mispredictions
     * are accounted separately.
     */
    bool filterProbFromPredictor = false;

    /**
     * Functional mode: synthetic execute delay (in instructions) used to
     * time PBS record visibility, standing in for the pipeline depth.
     */
    unsigned functionalExecDelay = 32;

    /**
     * Record one ProbTraceEntry per dynamic probabilistic branch (used
     * by the Table III randomness harness to reconstruct the
     * value-consumption order).
     */
    bool traceProbBranches = false;

    /** Safety stop (0 = unlimited). */
    uint64_t maxInstructions = 2'000'000'000ull;

    /** The paper's 4-wide baseline (Sandy Bridge-like). */
    static CoreConfig
    fourWide()
    {
        return CoreConfig{};
    }

    /** The paper's 8-wide configuration (Fig. 8). */
    static CoreConfig
    eightWide()
    {
        CoreConfig cfg;
        cfg.width = 8;
        cfg.robSize = 256;
        cfg.pools = FuPools{6, 2, 2, 2, 2, 2, 4, 2};
        return cfg;
    }
};

/** Aggregate run statistics. */
struct CoreStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;

    uint64_t branches = 0;           ///< dynamic conditional branches
    uint64_t probBranches = 0;       ///< dynamic probabilistic branches
    uint64_t mispredicts = 0;        ///< all direction mispredictions
    uint64_t regularMispredicts = 0; ///< on non-probabilistic branches
    uint64_t probMispredicts = 0;    ///< on probabilistic branches
    uint64_t steeredBranches = 0;    ///< PBS-steered (never mispredict)

    bool operator==(const CoreStats &) const = default;

    double
    ipc() const
    {
        return cycles ? double(instructions) / double(cycles) : 0.0;
    }

    /** Mispredictions per kilo-instruction. */
    double
    mpki() const
    {
        return instructions
            ? 1000.0 * double(mispredicts) / double(instructions) : 0.0;
    }

    double
    regularMpki() const
    {
        return instructions
            ? 1000.0 * double(regularMispredicts) / double(instructions)
            : 0.0;
    }

    double
    probMpki() const
    {
        return instructions
            ? 1000.0 * double(probMispredicts) / double(instructions)
            : 0.0;
    }
};

}  // namespace pbs::cpu

#endif  // PBS_CPU_CORE_CONFIG_HH
