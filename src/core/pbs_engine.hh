/**
 * @file
 * The PBS engine: orchestrates the Prob-BTB, SwapTable, Prob-in-Flight
 * and Context-Table to implement the paper's mechanism (Secs. III & V).
 *
 * Event model
 * -----------
 * The simulator calls the engine in *fetch order*; execution-side events
 * carry the cycle at which they complete, and recorded values become
 * visible to later fetches only once the fetch cycle passes that point.
 * This reproduces the fetch/execute decoupling of the paper's design
 * (bootstrap phase, in-flight limit) on top of an execute-at-fetch
 * simulator.
 *
 * Instance lifecycle (one dynamic execution of a probabilistic branch):
 *  1. onProbCmpFetch  -> steered or bootstrap decision; swap values
 *                        captured from the Prob-BTB payload
 *  2. (PROB_JMP fetch -> the caller takes the stored outcome,
 *                        inst.old.taken, when steered)
 *  3. onProbCmpExec   -> new value recorded; Const-Val guard
 *  4. (optional carrier PROB_JMP exec -> second value recorded)
 *  5. onProbJmpExec   -> record completed and pushed to Prob-in-Flight
 *
 * The caller owns each instance's state (a PbsInstance, passed to every
 * event of the instance); cpu::Core keeps one per static probabilistic
 * branch. The engine holds only the hardware tables, so an event is a
 * few table reads and writes: no instance map, no allocation.
 *
 * Functional semantics of a *steered* instance: the condition register
 * receives the stored outcome, the probabilistic registers receive the
 * stored values (the swap), and the newly generated values are recorded
 * for a future instance. A *bootstrap* instance behaves like a regular
 * branch but still records its values.
 */

#ifndef PBS_CORE_PBS_ENGINE_HH
#define PBS_CORE_PBS_ENGINE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/context_table.hh"
#include "core/pbs_config.hh"
#include "core/tables.hh"

namespace pbs::core {

/** Why an instance was not steered. */
enum class FallbackReason {
    None,           ///< steered
    Bootstrap,      ///< no payload available yet
    DepthLimit,     ///< call depth beyond context support
    NoTableSpace,   ///< Prob-BTB capacity exhausted
    Disabled,       ///< engine disabled
    ConstValViolation,  ///< branch demoted by the Const-Val guard
};

/**
 * One dynamic instance of a probabilistic branch, from its PROB_CMP's
 * fetch to its closing PROB_JMP's execution. The caller owns it;
 * onProbCmpFetch (re)initializes it. @ref old is meaningful only when
 * @ref steered.
 */
struct PbsInstance
{
    bool steered = false;
    FallbackReason fallback = FallbackReason::None;
    BranchRecord old;       ///< payload captured at fetch (if steered)

    /**
     * Cycles the fetch unit must stall before the steering record is
     * available (stallOnBusy policy); 0 when the record was ready.
     */
    uint64_t stallCycles = 0;

    // The engine's bookkeeping between the instance's events.
    bool recording = false;   ///< will publish a record at jmp exec
    bool hasNewValue2 = false;
    bool hasPendingConstVal = false;
    int btbIndex = -1;
    uint64_t branchPc = 0;
    ContextKey ctx;
    uint64_t newValue1 = 0;
    uint64_t newValue2 = 0;
    uint64_t pendingConstVal = 0;  ///< operand seen before allocation
};

/** The PBS hardware engine. */
class PbsEngine
{
  public:
    /**
     * @throws std::invalid_argument naming the field if @p cfg has a
     *         zero numBranches, valuesPerBranch, inFlightLimit or
     *         contextEntries, or a table past its PbsConfig::kMax*
     *         capacity.
     */
    explicit PbsEngine(const PbsConfig &cfg = {});

    /** Master switch; when disabled every fetch falls back. */
    void
    setEnabled(bool on)
    {
        enabled_ = on;
        tracking_ = on && cfg_.contextSupport;
    }
    bool enabled() const { return enabled_; }

    // --- context tracking (call at fetch, for every such event) ---
    [[gnu::always_inline]] void
    noteBranch(uint64_t pc, uint64_t target, bool taken)
    {
        if (tracking_) {
            ctxTable_.noteBranch(pc, target, taken,
                                 [this](int slot, uint64_t loopPc) {
                                     onContextClear(slot, loopPc);
                                 });
        }
    }

    void
    noteCall(uint64_t pc)
    {
        if (tracking_)
            ctxTable_.noteCall(pc);
    }

    void
    noteReturn()
    {
        if (tracking_)
            ctxTable_.noteReturn();
    }

    // --- instance lifecycle ---

    /**
     * Fetch of a PROB_CMP opening instance @p inst of the branch whose
     * closing PROB_JMP is at @p branchPc: decides steering, and takes
     * the payload a steered instance consumes into inst.old.
     * @param cycle current fetch cycle
     */
    void onProbCmpFetch(PbsInstance &inst, uint64_t branchPc,
                        uint64_t cycle);

    /**
     * Execution of the instance's PROB_CMP.
     * @param newValue1 newly generated probabilistic value (raw bits)
     * @param cmpOperand the comparison operand (Const-Val guard)
     * @return true if the instance is still PBS-managed (false after a
     *         Const-Val flush: the caller must treat it as regular)
     */
    bool onProbCmpExec(PbsInstance &inst, uint64_t newValue1,
                       uint64_t cmpOperand);

    /** Execution of a carrier PROB_JMP (second value). */
    void
    onCarrierExec(PbsInstance &inst, uint64_t newValue2)
    {
        inst.newValue2 = newValue2;
        inst.hasNewValue2 = true;
    }

    /**
     * Execution of the closing PROB_JMP: completes and publishes the
     * instance's record (at most once per instance).
     * @param outcome the branch direction computed from the new values
     * @param newValue2 second value if the closing jump carries one
     * @param targetPc branch target (stored in the Prob-BTB)
     * @param execCycle completion cycle of the jump
     * @param genSeq dynamic instance index (trace support, see
     *        BranchRecord::genSeq)
     */
    void onProbJmpExec(PbsInstance &inst, bool outcome,
                       std::optional<uint64_t> newValue2,
                       uint64_t targetPc, uint64_t execCycle,
                       uint64_t genSeq = 0);

    // --- observability ---
    const PbsStats &stats() const { return stats_; }
    const PbsConfig &config() const { return cfg_; }

    /** Total PBS state per the paper's arithmetic (1544 bits default). */
    size_t storageBits() const;
    size_t storageBytes() const { return (storageBits() + 7) / 8; }

    const ProbBtb &btb() const { return btb_; }
    const ProbInFlight &inFlight() const { return inFlight_; }
    const ContextTable &contextTable() const { return ctxTable_; }

  private:
    /** Steer @p inst from entry @p idx's payload or queued records,
     *  refilling the payload; @return false if nothing is available. */
    bool steer(PbsInstance &inst, int idx, uint64_t cycle);

    /** Find or allocate the entry @p inst publishes into (the capacity
     *  heuristic may evict one); @return -1 when none can be had. */
    int publishEntry(const PbsInstance &inst, uint64_t targetPc);

    void onContextClear(int loopSlot, uint64_t loopPc);

    /** Whether the Const-Val guard demoted the branch at @p pc. */
    bool
    constValDisabled(uint64_t pc) const
    {
        return pc < constValDisabled_.size() && constValDisabled_[pc];
    }

    PbsConfig cfg_;
    bool enabled_ = true;
    bool tracking_;  ///< enabled_ && cfg_.contextSupport
    ProbBtb btb_;
    SwapTable swapTable_;
    ProbInFlight inFlight_;
    ContextTable ctxTable_;
    PbsStats stats_;

    /**
     * Branches demoted to regular by the Const-Val guard (their
     * comparison value changed within a context), one flag per branch
     * PC (an instruction index), grown on the first demotion. Modeled
     * as a sticky per-branch disable bit (paper Sec. V-C1: "the branch
     * is treated as a regular branch").
     */
    std::vector<bool> constValDisabled_;
};

}  // namespace pbs::core

#endif  // PBS_CORE_PBS_ENGINE_HH
