/**
 * @file
 * Architectural machine state, independent of any timing model: the
 * register file, PC, sparse memory, and the per-branch probabilistic
 * instance counters. This is the unit of transfer between execution
 * engines — the sampling subsystem's FunctionalEngine fast-forwards
 * and captures it, and a detailed cpu::Core restores it to warm up and
 * measure (src/sampling/checkpoint.hh wraps it with a serialization).
 *
 * RNG state needs no separate field: every generator is emitted as ISA
 * code (rng/isa_emit.hh), so its state lives in registers and memory
 * and travels with them.
 *
 * A probabilistic group that is open (PROB_CMP executed, closing
 * PROB_JMP not yet) when state is captured is restored *closed*: the
 * condition register already holds the comparison outcome, so the
 * closing PROB_JMP executes with exact PBS-off semantics, which is
 * architecturally identical; only that single instance loses PBS
 * management, and the engine re-engages from the next instance on.
 */

#ifndef PBS_CPU_ARCH_STATE_HH
#define PBS_CPU_ARCH_STATE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instruction.hh"
#include "mem/memory.hh"

namespace pbs::cpu {

/**
 * Version of the ArchState layout and of the PBSCKPT1 checkpoint
 * serialization derived from it. Recorded in the key of every cached
 * checkpoint set (src/exp/cache.hh) and checked on load, so a
 * checkpoint set captured before a state-layout change is rejected
 * instead of silently misread. Bump whenever a field is added to or
 * removed from ArchState, kNumRegs changes, or the binary checkpoint
 * encoding changes shape.
 */
inline constexpr uint32_t kArchStateVersion = 1;

/** Complete architectural state of a simulated machine. */
struct ArchState
{
    std::array<uint64_t, isa::kNumRegs> regs{};
    uint64_t pc = 0;
    bool halted = false;

    /** Instructions retired when the state was captured. */
    uint64_t instructions = 0;

    mem::SparseMemory mem;

    /**
     * Dynamic instance count per probabilistic branch id (indexed by
     * probId, entry 0 unused). Keeps trace sequence numbers and the
     * PBS engine's genSeq bookkeeping continuous across a restore.
     */
    std::vector<uint64_t> probSeq;
};

}  // namespace pbs::cpu

#endif  // PBS_CPU_ARCH_STATE_HH
