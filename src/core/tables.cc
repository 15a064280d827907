#include "core/tables.hh"

namespace pbs::core {

ProbBtb::ProbBtb(const PbsConfig &cfg)
    : cfg_(cfg), numEntries_(cfg.numBranches)
{
}

int
ProbBtb::allocate(uint64_t branchPc, const ContextKey &ctx)
{
    for (unsigned i = 0; i < numEntries_; i++) {
        if (!entries_[i].valid) {
            entries_[i] = Entry{};
            entries_[i].valid = true;
            entries_[i].branchPc = branchPc;
            entries_[i].ctx = ctx;
            return static_cast<int>(i);
        }
    }
    return -1;
}

unsigned
ProbBtb::clearContext(int loopSlot, uint64_t loopPc)
{
    unsigned cleared = 0;
    for (unsigned i = 0; i < numEntries_; i++) {
        Entry &e = entries_[i];
        if (e.valid && e.ctx.loopSlot == loopSlot &&
            e.ctx.loopPc == loopPc) {
            e = Entry{};
            cleared++;
        }
    }
    return cleared;
}

size_t
ProbBtb::storageBits() const
{
    // loop bit + function PC + branch PC + target PC + Pr-Phy index +
    // valid + T/NT + Const-Val (paper Sec. V-C2).
    size_t per = 1 + cfg_.addressBits + cfg_.addressBits +
                 cfg_.addressBits + cfg_.physRegBits + 1 + 1 +
                 cfg_.valueBits;
    return cfg_.numBranches * per;
}

SwapTable::SwapTable(const PbsConfig &cfg)
    : cfg_(cfg),
      entries_(cfg.numBranches * (cfg.valuesPerBranch - 1))
{
}

size_t
SwapTable::storageBits() const
{
    // PC + Prob-BTB index + phys-reg index + valid (paper Sec. V-C2).
    size_t per = cfg_.addressBits + cfg_.btbIndexBits +
                 cfg_.physRegBits + 1;
    return entries_ * per;
}

ProbInFlight::ProbInFlight(const PbsConfig &cfg)
    : cfg_(cfg),
      free_((1u << cfg.inFlightLimit) - 1)
{
}

void
ProbInFlight::clearIndex(int btbIndex)
{
    Queue &q = queues_[btbIndex];
    for (unsigned pos = 0; pos < q.size; pos++)
        free_ |= 1u << q.slot[pos];
    q.size = 0;
}

unsigned
ProbInFlight::occupancy() const
{
    return cfg_.inFlightLimit - unsigned(std::popcount(free_));
}

size_t
ProbInFlight::storageBits() const
{
    // 2 bytes per entry; compare and jump each occupy an entry, so one
    // record = 2 entries (paper Sec. V-C2).
    return cfg_.inFlightLimit * 2 * 16;
}

}  // namespace pbs::core
