#include "core/context_table.hh"

namespace pbs::core {

ContextTable::ContextTable(const PbsConfig &cfg) : cfg_(cfg) {}

int
ContextTable::newestSlot() const
{
    int best = -1;
    for (unsigned i = 0; i < cfg_.contextEntries; i++) {
        if (entries_[i].valid &&
            (best < 0 || entries_[i].stamp > entries_[best].stamp)) {
            best = int(i);
        }
    }
    return best;
}

int
ContextTable::oldestSlot() const
{
    int best = -1;
    for (unsigned i = 0; i < cfg_.contextEntries; i++) {
        if (!entries_[i].valid)
            return int(i);
        if (best < 0 || entries_[i].stamp < entries_[best].stamp)
            best = int(i);
    }
    return best;
}

size_t
ContextTable::storageBits() const
{
    // Per entry: Loop-PC, Last-PC, Function-PC + two 3-bit counters
    // (paper Sec. V-C2).
    size_t per = 3 * cfg_.addressBits + 2 * cfg_.callDepthBits;
    return cfg_.contextEntries * per;
}

}  // namespace pbs::core
