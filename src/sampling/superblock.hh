/**
 * @file
 * Superinstruction blocks for the functional fast-forward engine.
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
 *    not compile the dispatcher; the engine runs the switch instead.
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
 * Exactness contract: executing a block retires exactly instCount
 * instructions and leaves the same registers, memory, prob sequence
 * counters and stats as instCount steps of cpu::execute. The engine
 * single-steps whenever a PC is not a block leader or a block does not
 * fit the remaining step budget, so step(n)/checkpoint capture stop at
 * exact instruction counts (tests/dispatch_equiv_test.cc and the
 * sampling_test checkpoint-boundary suite enforce both properties).
 */

#ifndef PBS_SAMPLING_SUPERBLOCK_HH
#define PBS_SAMPLING_SUPERBLOCK_HH

#include <cstdint>
#include <vector>

#include "cpu/execute.hh"
#include "isa/decoded_image.hh"

namespace pbs::sampling {

/**
 * Handler index of a SuperOp: one single-op handler per data opcode
 * (cpu/data_ops.inc, same names as isa::Opcode), then the fused and
 * terminator handlers of superblock_ops.inc.
 */
enum class SbHandler : uint16_t {
#define PBS_DATA_OP(name, ...) name,
#include "cpu/data_ops.inc"
#undef PBS_DATA_OP
#define SB_OP(name, ...) name,
#define SB_TERM(name, ...) name,
#include "sampling/superblock_ops.inc"
#undef SB_OP
#undef SB_TERM
    NUM_HANDLERS
};

/** First terminator handler (every handler >= this ends its block). */
constexpr uint16_t kSbFirstTerminator =
    static_cast<uint16_t>(SbHandler::T_FALL);

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
    uint16_t probId = 0;               ///< PROB_JMP sequence index
    uint32_t target = 0;               ///< resolved branch target
    int64_t imm = 0;                   ///< first-op immediate
    int64_t imm2 = 0;                  ///< second-op immediate
};

/** One stitched straight-line run. The last SuperOp is a terminator. */
struct Superblock
{
    uint32_t first = 0;      ///< index of the first SuperOp
    uint32_t nSops = 0;      ///< superops including the terminator
    uint32_t instCount = 0;  ///< architectural instructions retired
    uint64_t fall = 0;       ///< PC after the block's last instruction
};

/** Mutable engine state the handlers execute against. */
struct SbCtx : cpu::ExecCtx
{
    uint64_t fall = 0;                 ///< current block's fallthrough PC
    uint64_t next = 0;                 ///< out: PC execution stopped at
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

/**
 * Execute superblocks starting at @p pc until the program halts, a PC
 * that is not a block leader is reached, the next block would exceed
 * @p budget retired instructions, or the PC leaves the image.
 *
 * Preconditions: blockAt(pc) != kNoBlock and that block's instCount is
 * <= @p budget (the engine single-steps otherwise).
 *
 * @return the number of instructions retired; ctx.next holds the PC
 *         execution stopped at.
 *
 * Defined only in builds with computed goto (PBS_HAVE_COMPUTED_GOTO).
 */
uint64_t sbExecThreaded(const SuperblockImage &img, uint64_t pc,
                        uint64_t budget, SbCtx &ctx);

}  // namespace pbs::sampling

#endif  // PBS_SAMPLING_SUPERBLOCK_HH
