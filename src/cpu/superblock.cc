#include "cpu/superblock.hh"

#include <stdexcept>

namespace pbs::cpu {

using isa::DecodedOp;
using isa::Opcode;

namespace {

constexpr uint16_t
H(SbHandler h)
{
    return static_cast<uint16_t>(h);
}

/**
 * A block ends at any PC-changing op, at HALT, and at prob-group
 * boundaries: PROB_CMP / PROB_JMP never fuse and always close a block,
 * so the PBS-relevant structure stays visible at block granularity.
 */
bool
terminatesBlock(const DecodedOp &d)
{
    return d.isControl() || d.isProb();
}

SbHandler
singleHandlerFor(Opcode op)
{
    switch (op) {
#define PBS_DATA_OP(name, ...)                                         \
      case Opcode::name:                                               \
        return SbHandler::name;
#include "cpu/data_ops.inc"
#undef PBS_DATA_OP
      default:
        throw std::logic_error(
            "superblock: opcode cannot appear inside a block");
    }
}

/** Fusable adjacent pairs: the hot idioms isa_emit.cc and the workload
 *  kernels produce. @return the handler, or -1 when the pair is not in
 *  the table. Operand constraints are unnecessary: pair handlers
 *  re-read the register file between halves. */
int
pairHandlerFor(const DecodedOp &a, const DecodedOp &b)
{
    switch (a.op) {
      case Opcode::SRLI:
        if (b.op == Opcode::XOR) return H(SbHandler::F_SRLI_XOR);
        break;
      case Opcode::SLLI:
        if (b.op == Opcode::XOR) return H(SbHandler::F_SLLI_XOR);
        break;
      case Opcode::MUL:
        if (b.op == Opcode::ADDI) return H(SbHandler::F_MUL_ADDI);
        if (b.op == Opcode::SRLI) return H(SbHandler::F_MUL_SRLI);
        break;
      case Opcode::ORI:
        if (b.op == Opcode::I2F) return H(SbHandler::F_ORI_I2F);
        break;
      case Opcode::ANDI:
        if (b.op == Opcode::SRLI) return H(SbHandler::F_ANDI_SRLI);
        if (b.op == Opcode::I2F) return H(SbHandler::F_ANDI_I2F);
        break;
      case Opcode::AND:
        if (b.op == Opcode::I2F) return H(SbHandler::F_AND_I2F);
        break;
      case Opcode::I2F:
        if (b.op == Opcode::FMUL) return H(SbHandler::F_I2F_FMUL);
        break;
      case Opcode::FMUL:
        if (b.op == Opcode::FMUL) return H(SbHandler::F_FMUL_FMUL);
        if (b.op == Opcode::FADD) return H(SbHandler::F_FMUL_FADD);
        if (b.op == Opcode::FSUB) return H(SbHandler::F_FMUL_FSUB);
        break;
      case Opcode::FADD:
        if (b.op == Opcode::FMUL) return H(SbHandler::F_FADD_FMUL);
        if (b.op == Opcode::FADD) return H(SbHandler::F_FADD_FADD);
        break;
      case Opcode::FSUB:
        if (b.op == Opcode::FMUL) return H(SbHandler::F_FSUB_FMUL);
        break;
      default:
        break;
    }
    return -1;
}

/**
 * Match the xorshift rotation triple at @p o (6 ops):
 *   SRLI t,s,a; XOR s,s,t; SLLI t,s,b; XOR s,s,t; SRLI t,s,c; XOR s,s,t
 * F_XORSHIFT carries s/t in locals, so the pattern must be exact and
 * t, s must be distinct non-zero registers (REG_ZERO writes would be
 * dropped architecturally but not in the locals).
 */
bool
matchXorshift(const DecodedOp *o)
{
    if (o[0].op != Opcode::SRLI)
        return false;
    const uint8_t t = o[0].rd, s = o[0].rs1;
    if (t == isa::REG_ZERO || s == isa::REG_ZERO || t == s)
        return false;
    auto sXorT = [&](const DecodedOp &x) {
        return x.op == Opcode::XOR && x.rd == s && x.rs1 == s && x.rs2 == t;
    };
    return sXorT(o[1]) &&
           o[2].op == Opcode::SLLI && o[2].rd == t && o[2].rs1 == s &&
           sXorT(o[3]) &&
           o[4].op == Opcode::SRLI && o[4].rd == t && o[4].rs1 == s &&
           sXorT(o[5]);
}

SuperOp
makeSingle(const DecodedOp &d)
{
    SuperOp s;
    s.handler = H(singleHandlerFor(d.op));
    s.count = 1;
    s.rd = d.rd;
    s.rs1 = d.rs1;
    s.rs2 = d.rs2;
    s.rs3 = d.rs3;
    s.cmp = static_cast<uint8_t>(d.cmp);
    s.imm = d.imm;
    return s;
}

SuperOp
makePair(int handler, const DecodedOp &a, const DecodedOp &b)
{
    SuperOp s;
    s.handler = static_cast<uint16_t>(handler);
    s.count = 2;
    s.rd = a.rd;
    s.rs1 = a.rs1;
    s.rs2 = a.rs2;
    s.cmp = static_cast<uint8_t>(a.cmp);
    s.imm = a.imm;
    s.rd2 = b.rd;
    s.rs4 = b.rs1;
    s.rs5 = b.rs2;
    s.imm2 = b.imm;
    return s;
}

SuperOp
makeXorshift(const DecodedOp *o)
{
    SuperOp s;
    s.handler = H(SbHandler::F_XORSHIFT);
    s.count = 6;
    s.rd = o[0].rd;   // t
    s.rd2 = o[0].rs1; // s
    s.sh1 = static_cast<uint8_t>(o[0].imm & 63);
    s.sh2 = static_cast<uint8_t>(o[2].imm & 63);
    s.sh3 = static_cast<uint8_t>(o[4].imm & 63);
    return s;
}

SbHandler
terminatorFor(Opcode op)
{
    switch (op) {
      case Opcode::JMP:      return SbHandler::T_JMP;
      case Opcode::JZ:       return SbHandler::T_JZ;
      case Opcode::JNZ:      return SbHandler::T_JNZ;
      case Opcode::CFD_JNZ:  return SbHandler::T_CFD_JNZ;
      case Opcode::CALL:     return SbHandler::T_CALL;
      case Opcode::RET:      return SbHandler::T_RET;
      case Opcode::HALT:     return SbHandler::T_HALT;
      case Opcode::PROB_CMP: return SbHandler::T_PROB_CMP;
      case Opcode::PROB_JMP: return SbHandler::T_PROB_JMP;
      default:
        throw std::logic_error(
            "superblock: opcode cannot terminate a block");
    }
}

}  // namespace

SuperblockImage
SuperblockImage::build(const isa::DecodedImage &img)
{
    SuperblockImage sbi;
    const auto &ops = img.ops();
    const uint64_t n = ops.size();
    sbi.blockAt_.assign(n, kNoBlock);

    for (uint64_t lead = 0; lead < n; lead++) {
        if (!ops[lead].isLeader())
            continue;

        // Extent: [lead, interiorEnd) straight-line ops, then an
        // optional terminating control/prob op at termPc. The run also
        // stops before the next leader (a branch may enter there).
        uint64_t cur = lead;
        int64_t termPc = -1;
        while (true) {
            if (terminatesBlock(ops[cur])) {
                termPc = static_cast<int64_t>(cur);
                break;
            }
            cur++;
            if (cur >= n || ops[cur].isLeader())
                break;
        }
        const uint64_t interiorEnd = termPc >= 0
            ? static_cast<uint64_t>(termPc) : cur;

        Superblock b;
        b.first = static_cast<uint32_t>(sbi.sops_.size());
        b.instCount = static_cast<uint32_t>(interiorEnd - lead) +
                      (termPc >= 0 ? 1 : 0);
        b.fall = termPc >= 0 ? static_cast<uint64_t>(termPc) + 1 : cur;

        // Reserve the last interior op when it fuses with a JZ/JNZ
        // terminator (counted-loop back-edge, compare-and-branch).
        uint64_t fuseEnd = interiorEnd;
        int fusedTerm = -1;
        if (termPc >= 0 && interiorEnd > lead) {
            const DecodedOp &t = ops[termPc];
            const DecodedOp &p = ops[interiorEnd - 1];
            if (t.op == Opcode::JZ || t.op == Opcode::JNZ) {
                const bool nz = t.op == Opcode::JNZ;
                if (p.op == Opcode::ADDI)
                    fusedTerm = H(nz ? SbHandler::T_ADDI_JNZ
                                     : SbHandler::T_ADDI_JZ);
                else if (p.op == Opcode::CMP)
                    fusedTerm = H(nz ? SbHandler::T_CMP_JNZ
                                     : SbHandler::T_CMP_JZ);
                if (fusedTerm >= 0)
                    fuseEnd = interiorEnd - 1;
            }
        }

        // Interior: greedy left-to-right fusion (triple, pair, single).
        uint64_t i = lead;
        while (i < fuseEnd) {
            if (i + 6 <= fuseEnd && matchXorshift(&ops[i])) {
                sbi.sops_.push_back(makeXorshift(&ops[i]));
                i += 6;
                continue;
            }
            if (i + 2 <= fuseEnd) {
                int h = pairHandlerFor(ops[i], ops[i + 1]);
                if (h >= 0) {
                    sbi.sops_.push_back(makePair(h, ops[i], ops[i + 1]));
                    i += 2;
                    continue;
                }
            }
            sbi.sops_.push_back(makeSingle(ops[i]));
            i++;
        }

        // Terminator superop (always present; T_FALL retires nothing).
        // A fused one carries the data half; cpu::execute runs the
        // terminating instruction itself, from the block's copy.
        SuperOp s;
        if (termPc < 0) {
            s.handler = H(SbHandler::T_FALL);
            s.count = 0;
        } else if (fusedTerm >= 0) {
            s = makeSingle(ops[interiorEnd - 1]);
            s.handler = static_cast<uint16_t>(fusedTerm);
            s.count = 2;
        } else {
            s.handler = H(terminatorFor(ops[termPc].op));
        }
        sbi.sops_.push_back(s);
        if (termPc >= 0)
            b.term = ops[termPc];

        b.nSops = static_cast<uint32_t>(sbi.sops_.size()) - b.first;
        sbi.blockAt_[lead] = static_cast<uint32_t>(sbi.blocks_.size());
        sbi.blocks_.push_back(b);

        sbi.stats_.blocks++;
        sbi.stats_.superOps += b.nSops;
        sbi.stats_.instructions += b.instCount;
        for (uint32_t k = b.first; k < b.first + b.nSops; k++) {
            if (sbi.sops_[k].count >= 2) {
                sbi.stats_.fusedOps++;
                sbi.stats_.fusedInstructions += sbi.sops_[k].count;
            }
        }
    }
    return sbi;
}

}  // namespace pbs::cpu
