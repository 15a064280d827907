/**
 * @file
 * Predecoded program image: the flat, cache-friendly representation the
 * simulated core executes from.
 *
 * A @ref Program stores instructions the way the assembler emitted them;
 * answering per-instruction questions (source registers, FU class,
 * branch target, the closing PROB_JMP of a group) requires re-examining
 * opcode semantics on every dynamic instruction. @ref DecodedImage
 * lowers a program once, at load time, into dense arrays of
 * @ref DecodedOp records with every such question pre-answered:
 *
 *  - operand registers pre-extracted (source list + count, dest, flags)
 *  - branch targets resolved to absolute PCs, range-checked with a
 *    diagnostic at predecode time instead of a crash at execute time
 *  - per-PC static PBS metadata (prob-branch ids, the PC of the closing
 *    PROB_JMP of each PROB_CMP — the Prob-BTB key)
 *  - the functional-unit class and pipelining of each opcode (latency
 *    is configuration-dependent and stays with the core)
 *
 * The image is immutable after @ref DecodedImage::decode and carries no
 * simulation state, so one image can back any number of cores.
 */

#ifndef PBS_ISA_DECODED_IMAGE_HH
#define PBS_ISA_DECODED_IMAGE_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace pbs::isa {

/** Functional-unit class of an opcode (timing-model issue port). */
enum class FuKind : uint8_t {
    IntAlu, IntMul, IntDiv, FpAlu, FpMul, FpDiv, Load, Store,
    NUM_FU_KINDS
};

/** Which configuration latency an opcode charges (see cpu::Latencies). */
enum class LatKind : uint8_t {
    IntAlu, IntMul, IntDiv, FpAlu, FpMul, FpDiv, FpSqrt, FpTrans,
    LoadBase, Store,
    NUM_LAT_KINDS
};

/** One predecoded instruction. Everything static is pre-resolved. */
struct DecodedOp
{
    // Behavior-defining fields (mirror isa::Instruction).
    Opcode op = Opcode::NOP;
    CmpOp cmp = CmpOp::EQ;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t rs3 = 0;
    uint16_t probId = 0;
    int64_t imm = 0;

    // Predecoded static metadata.
    static constexpr uint16_t kWritesDest = 1u << 0;
    static constexpr uint16_t kIsLoad = 1u << 1;
    static constexpr uint16_t kIsStore = 1u << 2;
    static constexpr uint16_t kIsControl = 1u << 3;
    static constexpr uint16_t kIsCondBranch = 1u << 4;
    static constexpr uint16_t kIsProb = 1u << 5;
    static constexpr uint16_t kIsCarrier = 1u << 6;  ///< carrier PROB_JMP
    static constexpr uint16_t kHasTarget = 1u << 7;  ///< target is valid
    static constexpr uint16_t kUnpipelined = 1u << 8;

    /**
     * Block leader: the first instruction of a basic block. Set on the
     * entry point, on every resolved branch target, and on the
     * instruction after any control or probabilistic opcode (prob-group
     * boundaries end blocks even though PROB_CMP itself falls through).
     * Consumers that stitch straight-line runs (the superblock builder,
     * src/cpu/superblock.cc) must never fuse across a leader: a
     * branch may enter the stream there.
     */
    static constexpr uint16_t kIsLeader = 1u << 9;

    uint16_t flags = 0;

    /** Resolved absolute branch target (valid when kHasTarget). */
    uint32_t target = 0;

    /**
     * For PROB_CMP: PC of the branching PROB_JMP closing the group (the
     * Prob-BTB key). Self PC when the group never closes (unreachable
     * in validated programs). Zero for every other opcode.
     */
    uint32_t probJmpPc = 0;

    uint8_t nsrc = 0;          ///< number of source registers
    uint8_t srcs[3] = {0, 0, 0};
    FuKind fu = FuKind::IntAlu;
    LatKind lat = LatKind::IntAlu;

    bool writesDest() const { return flags & kWritesDest; }

    /** @return destination register, or -1 if none. */
    int destReg() const { return writesDest() ? rd : -1; }

    bool isLoad() const { return flags & kIsLoad; }
    bool isStore() const { return flags & kIsStore; }
    bool isControl() const { return flags & kIsControl; }
    bool isCondBranch() const { return flags & kIsCondBranch; }
    bool isProb() const { return flags & kIsProb; }
    bool isCarrierProbJmp() const { return flags & kIsCarrier; }
    bool unpipelined() const { return flags & kUnpipelined; }
    bool isLeader() const { return flags & kIsLeader; }
};

/** A fully predecoded program. */
class DecodedImage
{
  public:
    /**
     * Lower @p prog into a decoded image.
     *
     * Runs full structural validation (register ranges, branch targets,
     * PROB_CMP/PROB_JMP pairing) before lowering, so a malformed
     * program is rejected here with a diagnostic rather than crashing
     * the core mid-run.
     *
     * @throws std::invalid_argument with a description of the defect.
     */
    static DecodedImage decode(const Program &prog);

    const DecodedOp &at(uint64_t pc) const { return ops_[pc]; }
    size_t size() const { return ops_.size(); }
    uint64_t entry() const { return entry_; }

    /** Largest probId used by any instruction (0 = none). */
    uint16_t maxProbId() const { return maxProbId_; }

    const std::vector<DecodedOp> &ops() const { return ops_; }

  private:
    std::vector<DecodedOp> ops_;
    uint64_t entry_ = 0;
    uint16_t maxProbId_ = 0;
};

/** Static FU class of @p op (the timing model reads it predecoded). */
FuKind fuKindOf(Opcode op);

/** Static latency class of @p op. */
LatKind latKindOf(Opcode op);

/** @return true when @p op occupies its FU for the full latency. */
bool fuUnpipelined(Opcode op);

}  // namespace pbs::isa

#endif  // PBS_ISA_DECODED_IMAGE_HH
