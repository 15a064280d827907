/**
 * @file
 * Superinstruction blocks: the threaded interpreter behind the
 * functional engine and the core's mpki fidelity.
 *
 * The per-instruction opcode switch of cpu::execute pays
 * one hard-to-predict indirect branch plus loop bookkeeping per dynamic
 * instruction. This module predecodes a DecodedImage one level further:
 *
 *  - straight-line runs are stitched into @ref Superblock records whose
 *    @ref SuperOp elements are handler indices with pre-extracted
 *    operands — hot idioms the workload generators emit (xorshift
 *    rotations, LCG multiply-accumulate, int-to-float RNG tails,
 *    FP accumulation pairs, counted-loop back-edges) fuse into single
 *    superinstruction handlers;
 *  - execution threads from handler to handler by computed goto and
 *    from block to block without leaving the dispatch loop, so the
 *    interpreter carries roughly one indirect branch per superop
 *    instead of the switch's per-instruction branch plus bounds
 *    checks. Builds without computed goto (a GCC/Clang extension) do
 *    not compile the dispatcher; runBlocks single-steps instead.
 *
 * Block formation rules (see also docs/architecture.md):
 *  - blocks start only at leaders (DecodedOp::kIsLeader: the entry
 *    point, every branch target, every PC after a control or prob op),
 *    so no branch can enter a block mid-way;
 *  - blocks end at any control opcode, at HALT, at prob-group
 *    boundaries (PROB_CMP and PROB_JMP both terminate, keeping prob
 *    groups out of fused handlers), and before the next leader;
 *  - fused handlers re-read the register file between the ops they
 *    merge, so every architectural write of the original sequence
 *    happens, in order, with identical aliasing/REG_ZERO semantics.
 *
 * Hooks. The dispatcher runs under a cpu::execute hook policy. A
 * block's data superops call no hook; its terminator instruction (the
 * control or probabilistic op that ends it) runs through cpu::execute
 * with the policy, after the policy's instruction count has been
 * advanced past the block's data instructions. A policy may therefore
 * run on superblocks only if its hooks do nothing for data opcodes and
 * read nothing but its own instruction count: it declares that with
 * `static constexpr bool kDataHooksNoOp = true`, which runBlocks
 * static_asserts. cpu::NoHooks and the core's mpki hooks qualify; the
 * timing hooks (which schedule every instruction) do not.
 *
 * Exactness contract: executing a block retires exactly instCount
 * instructions and leaves the same registers, memory, prob sequence
 * counters, statistics and hook calls as instCount steps of
 * cpu::execute. runBlocks single-steps whenever a PC is not a block
 * leader or a block does not fit the remaining step budget, so
 * step(n), maxInstructions and checkpoint capture stop at exact
 * instruction counts (dispatch_equiv_test, mpki_equiv_test and the
 * sampling_test checkpoint-boundary suite enforce this).
 */

#ifndef PBS_CPU_SUPERBLOCK_HH
#define PBS_CPU_SUPERBLOCK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cpu/execute.hh"
#include "isa/decoded_image.hh"

namespace pbs::cpu {

/** Whether this build has the threaded dispatcher (computed goto). */
constexpr bool kSuperblocksBuilt =
#if defined(PBS_HAVE_COMPUTED_GOTO)
    true;
#else
    false;
#endif

/**
 * Handler index of a SuperOp: one single-op handler per data opcode
 * (cpu/data_ops.inc, same names as isa::Opcode), then the fused and
 * terminator handlers of superblock_ops.inc, then T_FALL (a block that
 * ends before a leader rather than at a control op).
 */
enum class SbHandler : uint16_t {
#define PBS_DATA_OP(name, ...) name,
#include "cpu/data_ops.inc"
#undef PBS_DATA_OP
#define SB_OP(name, ...) name,
#define SB_TERM(name, ...) name,
#include "cpu/superblock_ops.inc"
#undef SB_OP
#undef SB_TERM
    T_FALL,
    NUM_HANDLERS
};

/**
 * One superinstruction: a handler index plus pre-extracted operands.
 * Fused pairs put the first op in rd/rs1/rs2/rs3/cmp/imm and the second
 * in rd2/rs4/rs5/imm2; sh1..sh3 are the F_XORSHIFT shift amounts.
 */
struct SuperOp
{
    uint16_t handler = 0;              ///< SbHandler index
    uint8_t count = 1;                 ///< instructions this superop retires
    uint8_t rd = 0, rs1 = 0, rs2 = 0, rs3 = 0;
    uint8_t rd2 = 0, rs4 = 0, rs5 = 0;
    uint8_t cmp = 0;                   ///< isa::CmpOp payload
    uint8_t sh1 = 0, sh2 = 0, sh3 = 0;
    int64_t imm = 0;                   ///< first-op immediate
    int64_t imm2 = 0;                  ///< second-op immediate
};

/**
 * One stitched straight-line run. The last SuperOp is a terminator;
 * unless it is T_FALL, the block's last instruction (at fall - 1) is a
 * control or probabilistic op, and @ref term is a copy of it, so the
 * terminator runs cpu::execute from the block record the dispatcher
 * already holds instead of a dependent load from the image. (Reading
 * the image instead measured about 10% slower on functional runs and
 * 2% at mpki; see docs/architecture.md.)
 */
struct Superblock
{
    uint32_t first = 0;      ///< index of the first SuperOp
    uint32_t nSops = 0;      ///< superops including the terminator
    uint32_t instCount = 0;  ///< architectural instructions retired
    uint64_t fall = 0;       ///< PC after the block's last instruction
    isa::DecodedOp term;     ///< the terminating instruction, if any
};

/** The superblock-stitched form of one DecodedImage. */
class SuperblockImage
{
  public:
    static constexpr uint32_t kNoBlock = UINT32_MAX;

    /** Stitch @p img into superblocks (one pass, no simulation state). */
    static SuperblockImage build(const isa::DecodedImage &img);

    const std::vector<SuperOp> &sops() const { return sops_; }
    const std::vector<Superblock> &blocks() const { return blocks_; }

    /** Block starting at @p pc, or kNoBlock when @p pc is no leader. */
    uint32_t blockAt(uint64_t pc) const
    {
        return pc < blockAt_.size() ? blockAt_[pc] : kNoBlock;
    }

    const uint32_t *blockAtData() const { return blockAt_.data(); }
    uint64_t pcLimit() const { return blockAt_.size(); }

    /** Static stitching counters (introspection for tests/reports). */
    struct BuildStats
    {
        uint64_t blocks = 0;
        uint64_t superOps = 0;       ///< incl. terminators
        uint64_t instructions = 0;   ///< covered architectural instrs
        uint64_t fusedOps = 0;       ///< superops merging >= 2 instrs
        uint64_t fusedInstructions = 0;
    };
    const BuildStats &buildStats() const { return stats_; }

  private:
    std::vector<SuperOp> sops_;
    std::vector<Superblock> blocks_;
    std::vector<uint32_t> blockAt_;  ///< per-PC block index or kNoBlock
    BuildStats stats_;
};

#if defined(PBS_HAVE_COMPUTED_GOTO)

// ---------------------------------------------------------------------------
// The dispatcher. Handler bodies see `ctx`, `op` and the accessor macros
// below. Reads index the register file directly: regs[REG_ZERO] is
// architecturally pinned to 0 (every writer guards it and restoreArch
// re-normalizes), so no per-operand guard is needed.
// ---------------------------------------------------------------------------

#define SB_RR(r) (ctx.regs[r])
#define SB_WR(r, v)                                                    \
    do {                                                               \
        const uint8_t sb_r_ = (r);                                     \
        const uint64_t sb_v_ = (v);                                    \
        if (sb_r_ != pbs::isa::REG_ZERO)                               \
            ctx.regs[sb_r_] = sb_v_;                                   \
    } while (0)
#define SB_RD(r) (pbs::isa::bitsToDouble(ctx.regs[r]))
#define SB_WD(r, v) SB_WR(r, pbs::isa::doubleBits(v))

// The data-opcode list's accessors, bound to the current SuperOp.
#define OP_RR(f) SB_RR(op->f)
#define OP_RD(f) SB_RD(op->f)
#define OP_WR(f, v) SB_WR(op->f, v)
#define OP_WD(f, v) SB_WD(op->f, v)
#define OP_IMM (op->imm)
#define OP_CMP (static_cast<pbs::isa::CmpOp>(op->cmp))
#define OP_MEM (*ctx.mem)

/**
 * Execute superblocks starting at @p pc until the program halts, a PC
 * that is not a block leader is reached, the next block would take
 * hooks.instructions past @p end, or the PC leaves the image.
 *
 * Preconditions: blockAt(pc) != kNoBlock and that block fits
 * (hooks.instructions + instCount <= @p end); runBlocks checks both.
 *
 * @return the PC execution stopped at; hooks.instructions counts the
 *         retired instructions.
 */
template <class Hooks>
uint64_t
execBlocks(const SuperblockImage &img, uint64_t pc, uint64_t end,
           const ExecCtx &execCtx, Hooks &hooks)
{
    // One label per handler, in SbHandler order (same list expansion
    // order as the enum). Execution threads label-to-label inside a
    // block and block-to-block through sb_chain without ever leaving
    // this frame: the only indirect branches are the goto *s.
    static const void *const kLabels[] = {
#define PBS_DATA_OP(name, ...) &&L_##name,
#include "cpu/data_ops.inc"
#undef PBS_DATA_OP
#define SB_OP(name, ...) &&L_##name,
#define SB_TERM(name, ...) &&L_##name,
#include "cpu/superblock_ops.inc"
#undef SB_OP
#undef SB_TERM
        &&L_T_FALL,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      static_cast<size_t>(SbHandler::NUM_HANDLERS),
                  "label table out of sync with SbHandler");

    const ExecCtx ctx = execCtx;
    const SuperOp *const sops = img.sops().data();
    const Superblock *const blocks = img.blocks().data();
    const uint32_t *const blockAt = img.blockAtData();
    const uint64_t pcLimit = img.pcLimit();

    // The retired count lives in a local and charges each block's
    // instructions on entry (data superops observe no count); the
    // policy's copy is published before each hooked instruction and
    // on return.
    const Superblock *b = &blocks[blockAt[pc]];
    uint64_t count = hooks.instructions + b->instCount;
    const SuperOp *op = &sops[b->first];
    goto *kLabels[op->handler];

#define SB_OP(name, ...)                                               \
    L_##name: {                                                        \
        { __VA_ARGS__ }                                                \
        ++op;                                                          \
        goto *kLabels[op->handler];                                    \
    }
    // A terminator's instruction, the block's last, runs through
    // cpu::execute at its own index. Its opcode is fixed per label, so
    // the switch there folds to that one case.
#define SB_TERM(name, opc, ...)                                        \
    L_##name: {                                                        \
        { __VA_ARGS__ }                                                \
        const isa::DecodedOp d = b->term;                              \
        if (d.op != isa::Opcode::opc)                                  \
            __builtin_unreachable();                                   \
        hooks.instructions = count - 1;                                \
        pc = execute(d, b->fall - 1, ctx, hooks);                      \
        goto sb_chain;                                                 \
    }
#define PBS_DATA_OP(name, ...) SB_OP(name, __VA_ARGS__)
#include "cpu/data_ops.inc"
#include "cpu/superblock_ops.inc"
#undef PBS_DATA_OP
#undef SB_OP
#undef SB_TERM

  L_T_FALL:
    pc = b->fall;

  sb_chain:
    if (!*ctx.halted && pc < pcLimit) {
        const uint32_t bi = blockAt[pc];
        if (bi != SuperblockImage::kNoBlock) {
            b = &blocks[bi];
            if (count + b->instCount <= end) {
                count += b->instCount;
                op = &sops[b->first];
                goto *kLabels[op->handler];
            }
        }
    }
    hooks.instructions = count;
    return pc;
}

#undef SB_RR
#undef SB_WR
#undef SB_RD
#undef SB_WD
#undef OP_RR
#undef OP_RD
#undef OP_WR
#undef OP_WD
#undef OP_IMM
#undef OP_CMP
#undef OP_MEM

#endif  // PBS_HAVE_COMPUTED_GOTO

/** The instruction count a step loop stops at: @p n more than
 *  @p start, capped at @p limit. */
inline uint64_t
stepEnd(uint64_t start, uint64_t n, uint64_t limit)
{
    return start + (start >= limit ? 0 : std::min(n, limit - start));
}

/**
 * Single-step from @p pc through cpu::execute until the program halts,
 * hooks.instructions reaches @p end, or the PC leaves the image: the
 * step loop without superblocks (the functional engine's Switch
 * dispatch, and runBlocks in a build without computed goto). Kept out
 * of line, so the reference dispatch is one tight loop of its own and
 * not code inlined beside the dispatcher's chaining loop.
 *
 * @return the PC execution stopped at.
 */
template <class Hooks>
[[gnu::noinline]] uint64_t
stepLoop(const isa::DecodedImage &image, uint64_t pc, uint64_t end,
         const ExecCtx &ctx, Hooks &hooks)
{
    const isa::DecodedOp *const ops = image.ops().data();
    const uint64_t size = image.size();
    // The count stays in a local, so the loop carries it in a register;
    // the policy's copy is published before each step.
    uint64_t count = hooks.instructions;
    while (!*ctx.halted && count < end && pc < size) {
        hooks.instructions = count;
        pc = execute(ops[pc], pc, ctx, hooks);
        count++;
    }
    hooks.instructions = count;
    return pc;
}

/**
 * The step loop of every hook policy with no data-op hooks: execute
 * from @p pc until the program halts, hooks.instructions reaches
 * @p end, or the PC leaves the image. Whole blocks of @p blocks run
 * through the threaded dispatcher; whatever it cannot chain (a PC that
 * is no block leader, a block past @p end) single-steps through
 * cpu::execute with the same hooks. @p blocks must be non-null when
 * kSuperblocksBuilt; a build without computed goto ignores it and runs
 * stepLoop.
 *
 * @return the PC execution stopped at. A PC outside the image with
 *         the program not halted and budget left is the caller's
 *         error to report.
 */
template <class Hooks>
[[gnu::always_inline]] inline uint64_t
runBlocks([[maybe_unused]] const SuperblockImage *blocks,
          const isa::DecodedImage &image, uint64_t pc, uint64_t end,
          const ExecCtx &ctx, Hooks &hooks)
{
    static_assert(Hooks::kDataHooksNoOp,
                  "superblocks run data ops without hooks: the policy's "
                  "data-op hooks must be no-ops");
#if defined(PBS_HAVE_COMPUTED_GOTO)
    const isa::DecodedOp *const ops = image.ops().data();
    const uint64_t size = image.size();
    uint64_t count = hooks.instructions;
    while (!*ctx.halted && count < end && pc < size) {
        const uint32_t bi = blocks->blockAt(pc);
        hooks.instructions = count;
        if (bi != SuperblockImage::kNoBlock &&
            blocks->blocks()[bi].instCount <= end - count) {
            pc = execBlocks(*blocks, pc, end, ctx, hooks);
            count = hooks.instructions;
        } else {
            pc = execute(ops[pc], pc, ctx, hooks);
            count++;
        }
    }
    hooks.instructions = count;
    return pc;
#else
    return stepLoop(image, pc, end, ctx, hooks);
#endif
}

}  // namespace pbs::cpu

#endif  // PBS_CPU_SUPERBLOCK_HH
