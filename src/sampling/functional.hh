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
 * Dispatch: the engine executes through superinstruction blocks
 * (src/cpu/superblock.hh) — straight-line runs stitched into fused
 * handlers with threaded-code dispatch — through the same step loop as
 * the core's mpki fidelity (cpu::runBlocks, here with cpu::NoHooks),
 * which single-steps cpu::execute whenever the PC is not a block
 * leader or a whole block would overshoot the step budget, so step(n)
 * still stops at exact instruction counts. Builds without computed
 * goto single-step every instruction (cpu::stepLoop), which is also
 * the reference tests/dispatch_equiv_test.cc diffs the dispatcher
 * against.
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

/** Architectural-only execution of a decoded program. */
class FunctionalEngine
{
  public:
    /**
     * Predecode @p prog and initialize architectural state (data
     * segments written, PC at the entry point).
     * @param maxInstructions stop run() after this many instructions
     *        (0 = unlimited); step() is never limited.
     */
    explicit FunctionalEngine(const isa::Program &prog,
                              uint64_t maxInstructions = 0);

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

    /** Stitched blocks, or nullptr in a build without computed goto
     *  (every step single-steps then). */
    const cpu::SuperblockImage *superblocks() const { return sb_.get(); }

    /** Instructions step() retired through blocks vs single steps. */
    const cpu::DispatchCounts &dispatchCounts() const { return counts_; }

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

    std::unique_ptr<cpu::SuperblockImage> sb_;  ///< see superblocks()
    cpu::DispatchCounts counts_;
};

}  // namespace pbs::sampling

#endif  // PBS_SAMPLING_FUNCTIONAL_HH
