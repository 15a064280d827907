/**
 * @file
 * The functional fast-forward engine: executes a predecoded program
 * architecturally only — no ROB, no store queue, no caches, no
 * direction predictor, no cycle accounting. It steps through the same
 * interpreter as the detailed cpu::Core (cpu::execute, with no-op
 * hooks), so registers and memory are bit-identical to a detailed run
 * with PBS disabled (tests/functional_equiv_test.cc checks every
 * registered workload). RNG state needs no special
 * handling: generators are emitted as ISA code, so their state lives
 * in registers and memory.
 *
 * Probabilistic opcodes execute with exact PBS-off semantics: PROB_CMP
 * writes its comparison result, a branching PROB_JMP branches on its
 * condition register (counted as a probabilistic branch), a carrier
 * PROB_JMP is a no-op. Per-branch dynamic instance counters are kept
 * so a checkpoint restored into a detailed core continues the PBS
 * engine's sequence bookkeeping.
 *
 * Dispatch: by default the engine executes through superinstruction
 * blocks (src/cpu/superblock.hh) — straight-line runs stitched into
 * fused handlers with threaded-code dispatch — through the same step
 * loop as the core's mpki fidelity (cpu::runBlocks, here with
 * cpu::NoHooks), which single-steps cpu::execute whenever the PC is
 * not a block leader or a whole block would overshoot the step budget,
 * so step(n) still stops at exact instruction counts. Switch dispatch
 * single-steps every instruction (cpu::stepLoop); it is the
 * differential oracle
 * (tests/dispatch_equiv_test.cc) and the only dispatch of builds
 * without computed goto.
 *
 * This is the engine behind `--mode functional` and the fast-forward
 * phase of `--mode sampled` (src/sampling/sampled.hh).
 */

#ifndef PBS_SAMPLING_FUNCTIONAL_HH
#define PBS_SAMPLING_FUNCTIONAL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/arch_state.hh"
#include "cpu/core_config.hh"
#include "cpu/superblock.hh"
#include "isa/decoded_image.hh"
#include "isa/program.hh"
#include "mem/memory.hh"

namespace pbs::sampling {

/** How FunctionalEngine::step executes instructions. */
enum class FuncDispatch : uint8_t {
    Superblock,  ///< stitched blocks, computed-goto threaded dispatch
    Switch,      ///< reference per-instruction opcode switch
};

/** Stable name of @p d ("superblock", "switch"). */
const char *funcDispatchName(FuncDispatch d);

/** Architectural-only execution of a decoded program. */
class FunctionalEngine
{
  public:
    /**
     * Predecode @p prog and initialize architectural state (data
     * segments written, PC at the entry point).
     * @param maxInstructions stop run() after this many instructions
     *        (0 = unlimited); step() is never limited.
     * @param dispatch execution strategy (builds without computed
     *        goto, cpu::kSuperblocksBuilt false, run Switch whatever
     *        is asked).
     */
    explicit FunctionalEngine(
        const isa::Program &prog, uint64_t maxInstructions = 0,
        FuncDispatch dispatch = FuncDispatch::Superblock);

    /** Run until HALT (or the instruction limit). */
    void run();

    /** Execute at most @p n further instructions. @return #executed. */
    uint64_t step(uint64_t n);

    bool halted() const { return halted_; }
    uint64_t pc() const { return pc_; }
    uint64_t reg(unsigned r) const { return regs_[r]; }

    const mem::SparseMemory &memory() const { return mem_; }

    /**
     * Run statistics. Only architectural counters are populated:
     * instructions, branches and probBranches; cycles and the
     * misprediction counters stay 0 (there is no timing model).
     */
    const cpu::CoreStats &stats() const { return stats_; }

    /** The predecoded image the engine executes from. */
    const isa::DecodedImage &image() const { return image_; }

    /** The dispatch mode this engine runs (Switch when the build has
     *  no superblock dispatcher, whatever was requested). */
    FuncDispatch dispatch() const { return dispatch_; }

    /** Stitched blocks, or nullptr in Switch mode. */
    const cpu::SuperblockImage *superblocks() const { return sb_.get(); }

    /** Snapshot the architectural state (checkpoint capture). */
    cpu::ArchState saveArch() const;

    /**
     * Replace the architectural state (checkpoint restore). The
     * instruction counter is set to the checkpoint's value so
     * "instructions since program start" stays meaningful; the branch
     * counters are left untouched.
     * @throws std::invalid_argument on a probSeq size mismatch (state
     *         captured from a different program).
     */
    void restoreArch(const cpu::ArchState &state);

  private:
    isa::DecodedImage image_;
    std::array<uint64_t, isa::kNumRegs> regs_{};
    mem::SparseMemory mem_;
    uint64_t pc_ = 0;
    bool halted_ = false;
    uint64_t maxInstructions_ = 0;

    cpu::CoreStats stats_;
    std::vector<uint64_t> probSeq_;  ///< dynamic instances per probId

    FuncDispatch dispatch_ = FuncDispatch::Superblock;
    std::unique_ptr<cpu::SuperblockImage> sb_;  ///< null in Switch mode
};

}  // namespace pbs::sampling

#endif  // PBS_SAMPLING_FUNCTIONAL_HH
