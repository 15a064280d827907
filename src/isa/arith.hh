/**
 * @file
 * Shared scalar semantics of the PBS ISA: comparisons, the
 * divide-by-zero / overflow conventions, and float-to-int saturation.
 *
 * The one ISA interpreter (cpu::execute and the data-opcode list it
 * shares with the superblock handlers) evaluates opcodes through these
 * inline helpers, and both execution engines — the detailed cpu::Core
 * and the sampling subsystem's FunctionalEngine — step through it
 * (tests/functional_equiv_test.cc checks their agreement end to end on
 * every registered workload).
 */

#ifndef PBS_ISA_ARITH_HH
#define PBS_ISA_ARITH_HH

#include <cmath>
#include <cstdint>

#include "isa/assembler.hh"
#include "isa/opcode.hh"

namespace pbs::isa {

/** Signed division: x/0 = 0, INT64_MIN / -1 = INT64_MIN (no trap). */
inline int64_t
signedDiv(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (a == INT64_MIN && b == -1)
        return a;
    return a / b;
}

/** Signed remainder: x%0 = 0, INT64_MIN % -1 = 0 (no trap). */
inline int64_t
signedRem(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (a == INT64_MIN && b == -1)
        return 0;
    return a % b;
}

/** Evaluate a CmpOp on two raw register values (FP ops reinterpret). */
inline bool
evalCmp(CmpOp op, uint64_t a, uint64_t b)
{
    int64_t sa = static_cast<int64_t>(a);
    int64_t sb = static_cast<int64_t>(b);
    double fa = bitsToDouble(a);
    double fb = bitsToDouble(b);
    switch (op) {
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
      case CmpOp::LT: return sa < sb;
      case CmpOp::GE: return sa >= sb;
      case CmpOp::LE: return sa <= sb;
      case CmpOp::GT: return sa > sb;
      case CmpOp::LTU: return a < b;
      case CmpOp::GEU: return a >= b;
      case CmpOp::FEQ: return fa == fb;
      case CmpOp::FNE: return fa != fb;
      case CmpOp::FLT: return fa < fb;
      case CmpOp::FGE: return fa >= fb;
      case CmpOp::FLE: return fa <= fb;
      case CmpOp::FGT: return fa > fb;
      default: return false;
    }
}

/** F2I: truncate toward zero, saturate at the int64 range, NaN -> 0. */
inline int64_t
f2iSaturate(double v)
{
    if (std::isnan(v))
        return 0;
    if (v >= 9.2e18)
        return INT64_MAX;
    if (v <= -9.2e18)
        return INT64_MIN;
    return static_cast<int64_t>(std::trunc(v));
}

}  // namespace pbs::isa

#endif  // PBS_ISA_ARITH_HH
