/**
 * @file
 * Configuration and statistics for Probabilistic Branch Support.
 */

#ifndef PBS_CORE_PBS_CONFIG_HH
#define PBS_CORE_PBS_CONFIG_HH

#include <cstddef>
#include <cstdint>

namespace pbs::core {

/**
 * PBS hardware provisioning. The defaults match the paper's evaluated
 * configuration: 4 distinct probabilistic branches, up to 2 probabilistic
 * values per branch, 4 outstanding in-flight instances, and a 2-entry
 * context table — 193 bytes of state (Sec. V-C2).
 */
struct PbsConfig
{
    /** Largest tables the engine holds (its arrays are fixed-size);
     *  PbsEngine rejects a config past them, or with a zero count. */
    static constexpr unsigned kMaxBranches = 16;
    static constexpr unsigned kMaxInFlight = 16;
    static constexpr unsigned kMaxContextEntries = 8;

    unsigned numBranches = 4;       ///< Prob-BTB entries
    unsigned valuesPerBranch = 2;   ///< 1 in Prob-BTB + rest in SwapTable
    unsigned inFlightLimit = 4;     ///< outstanding branch instances
    unsigned contextEntries = 2;    ///< tracked innermost loops
    bool contextSupport = true;     ///< track loop/function contexts
    bool constValGuard = true;      ///< Const-Val safety check

    /**
     * Policy when a probabilistic fetch finds a record still executing
     * (in-flight limit pressure in tight loops): stall fetch until the
     * record completes (default — a short stall is far cheaper than a
     * potential squash, and preserves the paper's complete
     * misprediction elimination), or fall back to regular prediction
     * for that instance (ablation alternative).
     */
    bool stallOnBusy = true;

    // Field widths used only for storage accounting (paper Sec. V-C2).
    unsigned addressBits = 48;
    unsigned physRegBits = 8;
    unsigned valueBits = 64;
    unsigned btbIndexBits = 3;
    unsigned callDepthBits = 3;
};

/** Event counters exported by the PBS engine. */
struct PbsStats
{
    uint64_t fetchSteered = 0;     ///< fetches directed by the Prob-BTB
    uint64_t fetchStalled = 0;     ///< steered after a short fetch stall
    uint64_t stallCycles = 0;      ///< total cycles spent stalling
    uint64_t fetchBootstrap = 0;   ///< treated as regular: no payload yet
    uint64_t fetchUnsupported = 0; ///< treated as regular: no table space
    uint64_t fetchDepthLimited = 0;///< treated as regular: call depth > 1
    uint64_t recordsPushed = 0;    ///< exec-side records accepted
    uint64_t recordsDropped = 0;   ///< exec-side records lost (table full)
    uint64_t constValFlushes = 0;  ///< Const-Val mismatches
    uint64_t contextClears = 0;    ///< entries cleared by loop events
    uint64_t entriesAllocated = 0; ///< Prob-BTB allocations
    uint64_t entriesEvicted = 0;   ///< capacity-heuristic evictions

    bool operator==(const PbsStats &) const = default;
};

}  // namespace pbs::core

#endif  // PBS_CORE_PBS_CONFIG_HH
