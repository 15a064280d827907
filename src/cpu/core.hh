/**
 * @file
 * The simulated core: an execute-at-fetch functional engine fused with a
 * scoreboard-style out-of-order timing model.
 *
 * Methodology (matches trace-driven simulators such as Sniper):
 *  - Instructions are processed in fetch order; architectural state is
 *    updated immediately (wrong paths are never fetched).
 *  - The timing model computes, per instruction, its fetch, dispatch,
 *    issue, completion and commit cycles from: fetch bandwidth (taken
 *    branches end fetch groups; I-cache misses stall), ROB occupancy,
 *    register dependences (renaming collapses to last-writer tracking),
 *    functional-unit contention, cache latencies, and the 10-cycle
 *    front-end refill after a mispredicted branch resolves.
 *  - PBS (when enabled) steers marked probabilistic branches: a steered
 *    fetch needs no prediction and can never mispredict; value swaps are
 *    applied architecturally at the probabilistic instructions, exactly
 *    as Section V of the paper specifies.
 *
 * Execution
 * ---------
 * The core executes a predecoded @ref isa::DecodedImage (operands,
 * branch targets, FU classes and per-PC PBS metadata resolved once at
 * construction) through cpu::execute (cpu/execute.hh), the interpreter
 * it shares with the functional engine. The core's hooks observe each
 * instruction's effects and drive the timing scoreboard, the caches,
 * the predictor and the PBS engine; the PBS value swaps happen there.
 * The steady-state loop performs no heap allocation (fixed rings, flat
 * tables and inline FU pools replace per-instruction container churn).
 *
 * Step loops
 * ----------
 * The fidelity (SimMode) and PBS on/off are fixed at construction, so
 * run() and step(n) pick one compiled loop per call, and the hooks
 * (Hooks<kTiming, kPbs>) resolve every fidelity and PBS test with
 * `if constexpr`; a PBS-off loop never touches the PBS engine.
 *
 *  - Timing: runLoop<kPbs> steps every instruction through
 *    cpu::execute, since the scoreboard schedules each one.
 *  - mpki (SimMode::Functional): the hooks act only on control and
 *    probabilistic instructions, exactly the ones that end a
 *    superblock. runSuperblocks<kPbs> runs the shared threaded
 *    dispatcher (cpu::runBlocks, cpu/superblock.hh) over a
 *    SuperblockImage built at construction: data superops run with no
 *    hook, and each block's terminator runs through cpu::execute with
 *    the mpki hooks at its exact instruction index, so the predictor,
 *    the PBS engine, the Fig. 9 filter and the prob trace see the same
 *    calls as under single-stepping. Timing cores build no
 *    superblocks.
 *
 * cpu::execute and every hook are always_inline. With several
 * instantiations GCC (12, with LTO) otherwise outlines them, and the
 * calls cost the detailed loop more than the specialization saves:
 * each loop must be one flat function for the pruning to pay off.
 *
 * Register-resident scoreboard
 * ----------------------------
 * The timing state an instruction reads and writes (fetch, dispatch
 * and commit cycles and counts, the redirect gate, the last fetched
 * I-cache line, the ROB cursor, register readiness) is one Scoreboard
 * value. The timing step loop copies it into a local, its hooks hold
 * the instruction count and the scoreboard's configuration constants,
 * and no call receives the address of either; both are written back
 * when the loop returns and before it throws PC-out-of-range.
 * Register-file writes through a pointer and the opaque predictor and
 * cache calls therefore cannot clobber that state, and the compiler
 * keeps its scalars in registers instead of reloading them on every
 * simulated instruction.
 */

#ifndef PBS_CPU_CORE_HH
#define PBS_CPU_CORE_HH

#include <array>
#include <memory>
#include <vector>

#include "bpred/predictor.hh"
#include "core/pbs_engine.hh"
#include "cpu/arch_state.hh"
#include "cpu/core_config.hh"
#include "cpu/store_queue.hh"
#include "cpu/superblock.hh"
#include "isa/decoded_image.hh"
#include "isa/program.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"

namespace pbs::cpu {

/**
 * One dynamic probabilistic-branch execution, for the randomness
 * harness: which instance's values were consumed by this instance.
 */
struct ProbTraceEntry
{
    uint16_t probId = 0;
    uint64_t selfSeq = 0;      ///< this instance's index (per branch)
    uint64_t consumedSeq = 0;  ///< instance whose values steered it
    bool taken = false;
    bool steered = false;

    bool operator==(const ProbTraceEntry &) const = default;
};

/** The simulated core. */
class Core
{
  public:
    /** Most units one functional-unit pool (CoreConfig::pools) holds. */
    static constexpr unsigned kMaxFuUnits = 8;

    /**
     * @throws std::invalid_argument naming the field if @p cfg has a
     *         zero width or robSize, or an FU pool of 0 or more than
     *         kMaxFuUnits units.
     */
    Core(const isa::Program &prog, const CoreConfig &cfg);

    /** Run until HALT (or the instruction limit). */
    void run();

    /** Execute at most @p n further instructions. @return #executed. */
    uint64_t step(uint64_t n);

    bool halted() const { return halted_; }

    const CoreStats &stats() const { return stats_; }
    const core::PbsEngine &pbs() const { return pbs_; }
    const mem::SparseMemory &memory() const { return mem_; }
    mem::SparseMemory &memory() { return mem_; }
    const mem::MemoryHierarchy &caches() const { return hierarchy_; }
    const bpred::BranchPredictor &predictor() const { return *pred_; }

    /** The predecoded image the core executes from. */
    const isa::DecodedImage &image() const { return image_; }

    /** The mpki fidelity's superblocks; nullptr for a timing core or a
     *  build without computed goto (every step single-steps then). */
    const SuperblockImage *superblocks() const { return blocks_.get(); }

    /** Instructions the mpki step loop retired through blocks vs
     *  single steps (both 0 for a timing core). */
    const DispatchCounts &dispatchCounts() const { return counts_; }

    uint64_t reg(unsigned r) const { return regs_[r]; }
    double regDouble(unsigned r) const;
    uint64_t pc() const { return pc_; }

    /** Snapshot the architectural state (registers, memory, PC,
     *  prob-instance counters). Timing state is not captured. */
    ArchState saveArch() const;

    /**
     * Replace the architectural state (sampled-simulation restore).
     * Timing state, statistics, the predictor, the caches and the PBS
     * engine are left as they are — restore into a freshly
     * constructed core and run a warmup interval before measuring.
     * Probabilistic groups open at capture resume with exact PBS-off
     * semantics (see cpu/arch_state.hh).
     * @throws std::invalid_argument if @p state's probSeq table does
     *         not match this core's program.
     */
    void restoreArch(const ArchState &state);

    /** Per-dynamic-probabilistic-branch trace (traceProbBranches). */
    const std::vector<ProbTraceEntry> &probTrace() const
    {
        return probTrace_;
    }

  private:
    /** The hooks through which the core observes cpu::execute, for
     *  one fidelity (kTiming) and PBS setting (kPbs). */
    template <bool kTiming, bool kPbs>
    struct Hooks;

    /**
     * The timing step loop: execute until HALT, @p n instructions, or
     * stats_.instructions reaching @p limit, whichever comes first.
     * @return #executed.
     */
    template <bool kPbs>
    uint64_t runLoop(uint64_t n, uint64_t limit);

    /** The mpki step loop: runLoop's contract, on superblocks. */
    template <bool kPbs>
    uint64_t runSuperblocks(uint64_t n, uint64_t limit);

    /** The loop for cfg_'s fidelity and PBS setting. */
    uint64_t runFor(uint64_t n, uint64_t limit);

    void writeReg(unsigned r, uint64_t v);

    /** Resolve a conditional branch against the direction predictor
     *  and count a misprediction. @return true if it mispredicted
     *  (the timing hooks then redirect the front end). */
    bool predictAndTrain(uint64_t pc, bool taken, bool isProb);

    /**
     * The timing scoreboard's scalar state and register readiness.
     * The timing loop works on a local copy, which the compiler can
     * keep in registers across register-file writes and the opaque
     * predictor and cache calls, and writes it back on exit (see
     * docs/architecture.md, "Register-resident scoreboard").
     */
    struct Scoreboard
    {
        uint64_t fetchCycle = 0;
        uint64_t frontendReadyAt = 0;  ///< redirect gate
        uint64_t lastDispatchCycle = 0;
        /** Also stats_.cycles: commit cycles never decrease. */
        uint64_t lastCommitCycle = 0;
        uint64_t lastFetchLine = ~uint64_t(0);
        unsigned fetchedInCycle = 0;
        unsigned dispatchedInCycle = 0;
        unsigned committedInCycle = 0;
        unsigned robSlot = 0;          ///< ring cursor (== n % robSize)
        std::array<uint64_t, isa::kNumRegs> regReady{};
    };

    // --- members ---
    isa::DecodedImage image_;
    const CoreConfig cfg_;  ///< fixed at construction (picks the loop)
    std::unique_ptr<SuperblockImage> blocks_;  ///< see superblocks()

    // Functional state.
    std::array<uint64_t, isa::kNumRegs> regs_{};
    mem::SparseMemory mem_;
    uint64_t pc_ = 0;
    bool halted_ = false;

    // Timing state.
    mem::MemoryHierarchy hierarchy_;
    std::unique_ptr<bpred::BranchPredictor> pred_;
    bool predIsPerfect_ = false;  ///< cached virtual isPerfect()
    std::unique_ptr<bpred::BranchPredictor> sidePred_;  ///< Fig. 9 filter
    Scoreboard sb_;  ///< between timing loops; see Scoreboard

    /** One FU class's units: the cycle each is next free, ascending
     *  (the units are interchangeable, so their order carries no
     *  state). */
    struct FuPool
    {
        std::array<uint64_t, kMaxFuUnits> freeAt{};
        unsigned count = 0;  ///< units in use (1..kMaxFuUnits)
    };

    /** Per-FU-class unit pools, sized at construction. */
    std::array<FuPool, size_t(isa::FuKind::NUM_FU_KINDS)> fuPools_{};

    /** Configured latency of each latency class (indexed by LatKind). */
    std::array<unsigned, size_t(isa::LatKind::NUM_LAT_KINDS)> latOf_{};

    /** Commit cycle + 1 of the last robSize instructions (0 = empty
     *  slot), indexed by Scoreboard::robSlot. */
    std::vector<uint64_t> commitRing_;

    StoreQueue storeQueue_;

    // PBS state.
    core::PbsEngine pbs_;

    struct ProbGroup
    {
        uint64_t token = 0;
        bool steered = false;
        bool managed = false;   ///< still PBS-managed after exec checks
        bool condNew = false;   ///< comparison on the new values
        core::BranchRecord old;
        bool open = false;
    };

    /** Flat per-probId state (indexed by probId, sized at predecode). */
    std::vector<ProbGroup> probGroups_;
    std::vector<uint64_t> probSeq_;      ///< instance count per probId
    std::vector<ProbTraceEntry> probTrace_;

    CoreStats stats_;
    DispatchCounts counts_;  ///< see dispatchCounts()

    /** Base byte address of the instruction image (I-cache stream). */
    static constexpr uint64_t kTextBase = uint64_t(1) << 32;
};

}  // namespace pbs::cpu

#endif  // PBS_CPU_CORE_HH
