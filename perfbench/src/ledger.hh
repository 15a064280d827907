/**
 * @file
 * The traced run's per-layer cost ledger, measured from outside the
 * simulator through its public API.
 *
 * Fidelity ladder: each ladder program runs at six rungs, and layer
 * costs (host ns per simulated instruction) follow by subtraction:
 *
 *   rung                              layer it isolates
 *   functional (FunctionalEngine)     architectural execution
 *   mpki, perfect predictor           + the core's bookkeeping
 *   mpki, real predictor              + the direction predictor
 *   mpki + PBS                        + the PBS engine
 *   detailed (PBS off / on)           + caches and timing scoreboard
 *
 * Replays: each program's branch stream and memory-access stream are
 * captured by single-stepping the FunctionalEngine, then replayed into
 * bpred::makePredictor and mem::MemoryHierarchy with the same calls the
 * core makes. The replays both time those layers alone and check the
 * streams: replayed mispredicts must equal the core's mpki-mode
 * mispredicts, and replayed cache hits and misses must equal
 * Core::caches() after a detailed run. Every PBS-off rung must report
 * the same instruction count, and the two PBS-on rungs must agree too.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/point.hh"
#include "isa/program.hh"

namespace perfbench {

/** One program the ladder and the replays run. */
struct LadderProgram
{
    pbs::exp::ExpPoint point;  ///< workload, scale, seed (PBS off, 4-wide)
    pbs::isa::Program prog;
    uint64_t spanId = 0;
};

/** Both streams of one program, as the core would see them. */
struct Streams
{
    /** (pc << 1) | taken, for every predicted conditional branch. */
    std::vector<uint64_t> branches;
    /** (byte address << 2) | kind, in the core's access order. */
    std::vector<uint64_t> accesses;
    uint64_t instructions = 0;

    static constexpr uint64_t kFetch = 0;  ///< I-fetch of a new line
    static constexpr uint64_t kLoad = 1;   ///< data load
};

/** Capture @p prog's streams by single-stepping the FunctionalEngine. */
Streams captureStreams(const pbs::isa::Program &prog);

/** Replay a branch stream. @return mispredicts (the core's counting). */
uint64_t replayBranches(const std::vector<uint64_t> &branches,
                        const std::string &predictor);

/** Cache hits and misses after a replay or a run. */
struct CacheCounts
{
    uint64_t l1iHits = 0, l1iMisses = 0;
    uint64_t l1dHits = 0, l1dMisses = 0;
    uint64_t l2Hits = 0, l2Misses = 0;

    bool operator==(const CacheCounts &) const = default;
};

/** Replay an access stream into a fresh default hierarchy. */
CacheCounts replayAccesses(const std::vector<uint64_t> &accesses);

struct LedgerResult
{
    // Host ns per simulated instruction, instruction-weighted over all
    // ladder programs (per rung, the best of its repetitions).
    double funcNsPerInst = 0;
    double bookkeepingNsPerInst = 0;
    double bpredNsPerInst = 0;
    double pbsNsPerInst = 0;
    double timingNsPerInst = 0;

    /** Replayed predict+update cost, per zoo predictor. */
    std::map<std::string, double> nsPerBranch;

    double memNsPerAccess = 0;
    double l1iMissRate = 0, l1dMissRate = 0, l2MissRate = 0;

    uint64_t checks = 0;                ///< equalities evaluated
    std::vector<std::string> failures;  ///< equalities that failed
};

/**
 * Run the ladder and the replays over @p programs, timing each rung
 * @p reps times. @p predictors are the ladder's real predictors; the
 * replays cover every zoo predictor.
 */
LedgerResult runLedger(const std::vector<LadderProgram> &programs,
                       const std::vector<std::string> &predictors,
                       unsigned reps);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_HH
