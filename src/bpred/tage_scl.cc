#include "bpred/tage_scl.hh"

namespace pbs::bpred {

TageSclPredictor::TageSclPredictor()
    : loop_(kLog2Loop, kLoopTagBits, kLoopIterBits)
{
}

bool
TageSclPredictor::predict(uint64_t pc)
{
    lastPc_ = pc;
    lastTagePred_ = tage_.predict(pc);
    lastUsedLoop_ = loop_.confident(pc);
    if (lastUsedLoop_)
        return loop_.predict(pc);
    return sc_.refine(pc, lastTagePred_, tage_.lastConfidence());
}

void
TageSclPredictor::update(uint64_t pc, bool taken)
{
    if (lastPc_ != pc) {
        // Protocol violation recovery: recompute prediction state.
        predict(pc);
    }
    sc_.update(pc, lastTagePred_, taken);
    loop_.update(pc, taken);
    tage_.update(pc, taken);  // also advances the global history
    lastPc_ = ~uint64_t(0);
}

size_t
TageSclPredictor::storageBits() const
{
    return tage_.storageBits() + sc_.storageBits() + loop_.storageBits();
}

}  // namespace pbs::bpred
