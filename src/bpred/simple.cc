#include "bpred/simple.hh"

namespace pbs::bpred {

BimodalPredictor::BimodalPredictor(unsigned log2Entries)
    : table_(size_t(1) << log2Entries)
{
}

GsharePredictor::GsharePredictor(unsigned log2Entries, unsigned historyLen)
    : table_(size_t(1) << log2Entries), historyLen_(historyLen),
      histMask_((uint64_t(1) << historyLen) - 1)
{
}

size_t
GsharePredictor::storageBits() const
{
    return table_.size() * 2 + historyLen_;
}

LocalPredictor::LocalPredictor(unsigned log2HistEntries,
                               unsigned historyLen,
                               unsigned log2PatternEntries)
    : histories_(size_t(1) << log2HistEntries),
      patterns_(size_t(1) << log2PatternEntries),
      historyLen_(historyLen),
      histMask_(uint16_t((uint16_t(1) << historyLen) - 1))
{
}

size_t
LocalPredictor::storageBits() const
{
    return histories_.size() * historyLen_ + patterns_.size() * 2;
}

}  // namespace pbs::bpred
