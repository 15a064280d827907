/**
 * @file
 * The one ISA interpreter: cpu::execute runs a single predecoded
 * instruction against architectural state and is the only place that
 * says what an opcode does. The detailed cpu::Core and the sampling
 * subsystem's FunctionalEngine both step through it; the superblock
 * engine expands the same data-opcode list (cpu/data_ops.inc) into its
 * single-op handlers, and its block terminators run through execute.
 *
 * What the simulator around the interpreter does with an instruction
 * — timing, branch prediction, caches, the PBS engine — is supplied as
 * a compile-time hook policy. Hooks are plain members of a concrete
 * type, called directly and inlined: no virtual calls, no
 * std::function. The hooks, in the order a step calls them:
 *
 *   onIssue(op, pc, ea)                 before any architectural effect;
 *                                       ea is the load/store effective
 *                                       address (meaningless otherwise)
 *   onProbCmp(op, vNew, operand, cond)  after PROB_CMP wrote its PBS-off
 *                                       result; may apply the PBS swap
 *   onJump(pc, target)                  JMP
 *   onBranch(pc, target, taken)         JZ / JNZ
 *   onCall(pc) / onReturn()             CALL / RET
 *   onCarrier(op)                       carrier PROB_JMP (no branch)
 *   onProbJmp(op, pc, seq, cond)        branching PROB_JMP; returns the
 *                                       direction taken (cond = PBS-off)
 *   onRetire(op, ea, redirected)        after every effect; redirected
 *                                       = control flow was taken
 *
 * NoHooks implements every hook as a no-op (onProbJmp returns cond),
 * which is exactly the ISA's PBS-off semantics at zero cost.
 *
 * A policy that also runs on superblocks (cpu/superblock.hh) carries
 * the instruction count its step loop advances (`instructions`) and
 * declares `kDataHooksNoOp`: its hooks do nothing for data opcodes,
 * which the superblock handlers execute without calling them.
 *
 * execute is always inlined: each caller's step loop is one function
 * in which the hook policy's compile-time constants prune whole hooks
 * (see cpu/core.hh, "Step loops").
 */

#ifndef PBS_CPU_EXECUTE_HH
#define PBS_CPU_EXECUTE_HH

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "cpu/core_config.hh"
#include "isa/arith.hh"
#include "isa/decoded_image.hh"
#include "mem/memory.hh"

namespace pbs::cpu {

/** The architectural state one step reads and writes. */
struct ExecCtx
{
    uint64_t *regs = nullptr;          ///< register file (regs[0] == 0)
    mem::SparseMemory *mem = nullptr;
    uint64_t *probSeq = nullptr;       ///< per-probId dynamic counters
    CoreStats *stats = nullptr;        ///< branches/probBranches bumped
    bool *halted = nullptr;
};

/** The hook policy of a machine that only executes the ISA. */
struct NoHooks
{
    static constexpr bool kDataHooksNoOp = true;
    uint64_t instructions = 0;  ///< retired so far (runBlocks' count)

    void onIssue(const isa::DecodedOp &, uint64_t, uint64_t) {}
    void onProbCmp(const isa::DecodedOp &, uint64_t, uint64_t, bool) {}
    void onJump(uint64_t, uint64_t) {}
    void onBranch(uint64_t, uint64_t, bool) {}
    void onCall(uint64_t) {}
    void onReturn() {}
    void onCarrier(const isa::DecodedOp &) {}
    bool onProbJmp(const isa::DecodedOp &, uint64_t, uint64_t, bool cond)
    {
        return cond;
    }
    void onRetire(const isa::DecodedOp &, uint64_t, bool) {}
};

/**
 * Mark the taken arm of a simulated conditional branch. Left alone,
 * GCC if-converts `next = taken ? target : pc + 1` into a cmov, so the
 * step loop's next loads (the next opcode, the next superblock) wait
 * for the branch condition's operands; as a host branch the direction
 * is predicted and the loop runs ahead. The empty asm is what keeps it
 * a branch.
 */
[[gnu::always_inline]] inline void
hostBranch()
{
    asm("");
}

/**
 * Execute @p op at @p pc against @p ctx, reporting its effects to
 * @p hooks. @return the next PC.
 */
template <class Hooks>
[[gnu::always_inline]] inline uint64_t
execute(const isa::DecodedOp &op, uint64_t pc, const ExecCtx &ctx,
        Hooks &hooks)
{
    uint64_t *const regs = ctx.regs;
    const uint64_t ea = regs[op.rs1] + static_cast<uint64_t>(op.imm);
    hooks.onIssue(op, pc, ea);

    auto wr = [regs](uint8_t r, uint64_t v) {
        if (r != isa::REG_ZERO)
            regs[r] = v;
    };

    uint64_t next = pc + 1;
    bool redirected = false;
    switch (op.op) {
#define OP_RR(f) (regs[op.f])
#define OP_RD(f) (isa::bitsToDouble(regs[op.f]))
#define OP_WR(f, v) wr(op.f, (v))
#define OP_WD(f, v) wr(op.f, isa::doubleBits(v))
#define OP_IMM (op.imm)
#define OP_CMP (op.cmp)
#define OP_MEM (*ctx.mem)
#define PBS_DATA_OP(name, ...)                                         \
      case isa::Opcode::name: {                                        \
        __VA_ARGS__                                                    \
        break;                                                         \
      }
#include "cpu/data_ops.inc"
#undef PBS_DATA_OP
#undef OP_RR
#undef OP_RD
#undef OP_WR
#undef OP_WD
#undef OP_IMM
#undef OP_CMP
#undef OP_MEM

      case isa::Opcode::JMP:
        next = op.target;
        redirected = true;
        hooks.onJump(pc, next);
        break;
      case isa::Opcode::JZ:
      case isa::Opcode::JNZ: {
        const bool nonzero = regs[op.rs1] != 0;
        const bool taken = op.op == isa::Opcode::JNZ ? nonzero : !nonzero;
        ctx.stats->branches++;
        hooks.onBranch(pc, op.target, taken);
        if (taken) {
            hostBranch();
            next = op.target;
            redirected = true;
        }
        break;
      }
      case isa::Opcode::CALL:
        wr(isa::REG_RA, pc + 1);
        next = op.target;
        redirected = true;
        hooks.onCall(pc);
        break;
      case isa::Opcode::RET:
        next = regs[isa::REG_RA];
        redirected = true;
        hooks.onReturn();
        break;
      case isa::Opcode::HALT:
        *ctx.halted = true;
        break;
      case isa::Opcode::CFD_JNZ:
        // Direction supplied at fetch by the (idealized) CFD hardware
        // queue: never mispredicts, never touches the predictor.
        ctx.stats->branches++;
        if (regs[op.rs1] != 0) {
            hostBranch();
            next = op.target;
            redirected = true;
        }
        break;

      case isa::Opcode::PROB_CMP: {
        // PBS-off semantics: an ordinary comparison. Under PBS the hook
        // swaps in the values recorded from the previous instance.
        const uint64_t vNew = regs[op.rs1];
        const uint64_t operand = regs[op.rs2];
        const bool cond = isa::evalCmp(op.cmp, vNew, operand);
        wr(op.rd, cond ? 1 : 0);
        hooks.onProbCmp(op, vNew, operand, cond);
        break;
      }
      case isa::Opcode::PROB_JMP: {
        if (op.isCarrierProbJmp()) {
            // Value carrier: never branches; swaps only under PBS.
            hooks.onCarrier(op);
            break;
        }
        ctx.stats->branches++;
        ctx.stats->probBranches++;
        const uint64_t seq = ctx.probSeq[op.probId]++;
        // PBS-off semantics: JNZ on the condition register.
        if (hooks.onProbJmp(op, pc, seq, regs[op.rs1] != 0)) {
            hostBranch();
            next = op.target;
            redirected = true;
        }
        break;
      }

      default:
        throw std::logic_error("unimplemented opcode");
    }

    hooks.onRetire(op, ea, redirected);
    return next;
}

}  // namespace pbs::cpu

#endif  // PBS_CPU_EXECUTE_HH
