/**
 * @file
 * Simple table-based predictors: bimodal, gshare, and two-level local.
 * Their per-branch calls are defined here so a caller holding the
 * concrete type inlines them.
 */

#ifndef PBS_BPRED_SIMPLE_HH
#define PBS_BPRED_SIMPLE_HH

#include <vector>

#include "bpred/counters.hh"
#include "bpred/predictor.hh"

namespace pbs::bpred {

/** PC-indexed table of 2-bit counters. */
class BimodalPredictor final : public BranchPredictor
{
  public:
    /** @param log2Entries log2 of the number of counters. */
    explicit BimodalPredictor(unsigned log2Entries = 12);

    bool predict(uint64_t pc) override { return counter(pc).taken(); }
    void update(uint64_t pc, bool taken) override { counter(pc).train(taken); }

    bool
    predictAndUpdate(uint64_t pc, bool taken) override
    {
        SatCounter<2> &c = counter(pc);
        const bool predicted = c.taken();
        c.train(taken);
        return predicted;
    }

    size_t storageBits() const override { return table_.size() * 2; }
    std::string name() const override { return "bimodal"; }

    /** The counter that predicts the branch at @p pc. */
    SatCounter<2> &
    counter(uint64_t pc)
    {
        return table_[pc & (table_.size() - 1)];
    }

  private:
    std::vector<SatCounter<2>> table_;
};

/** Global-history predictor: (GHR xor PC)-indexed 2-bit counters. */
class GsharePredictor final : public BranchPredictor
{
  public:
    GsharePredictor(unsigned log2Entries = 12, unsigned historyLen = 12);

    bool predict(uint64_t pc) override { return counter(pc).taken(); }

    void
    update(uint64_t pc, bool taken) override
    {
        counter(pc).train(taken);
        pushHistory(taken);
    }

    bool
    predictAndUpdate(uint64_t pc, bool taken) override
    {
        SatCounter<2> &c = counter(pc);
        const bool predicted = c.taken();
        c.train(taken);
        pushHistory(taken);
        return predicted;
    }

    size_t storageBits() const override;
    std::string name() const override { return "gshare"; }

    uint64_t history() const { return ghr_; }

    /** The counter that predicts the branch at @p pc now. */
    SatCounter<2> &
    counter(uint64_t pc)
    {
        const uint64_t hist = ghr_ & histMask_;
        return table_[(pc ^ hist) & (table_.size() - 1)];
    }

    /** Shift the resolved direction into the global history. */
    void pushHistory(bool taken) { ghr_ = (ghr_ << 1) | (taken ? 1 : 0); }

  private:
    std::vector<SatCounter<2>> table_;
    unsigned historyLen_;
    uint64_t histMask_;  ///< historyLen_ low bits
    uint64_t ghr_ = 0;
};

/** Two-level local-history predictor (per-branch pattern tables). */
class LocalPredictor final : public BranchPredictor
{
  public:
    LocalPredictor(unsigned log2HistEntries = 10, unsigned historyLen = 10,
                   unsigned log2PatternEntries = 10);

    bool
    predict(uint64_t pc) override
    {
        return patterns_[patternIndex(history(pc))].taken();
    }

    void
    update(uint64_t pc, bool taken) override
    {
        predictAndUpdate(pc, taken);
    }

    bool
    predictAndUpdate(uint64_t pc, bool taken) override
    {
        uint16_t &hist = history(pc);
        SatCounter<2> &c = patterns_[patternIndex(hist)];
        const bool predicted = c.taken();
        c.train(taken);
        hist = static_cast<uint16_t>((hist << 1) | (taken ? 1 : 0));
        return predicted;
    }

    size_t storageBits() const override;
    std::string name() const override { return "local"; }

  private:
    uint16_t &
    history(uint64_t pc)
    {
        return histories_[pc & (histories_.size() - 1)];
    }

    size_t
    patternIndex(uint16_t hist) const
    {
        return hist & histMask_ & (patterns_.size() - 1);
    }

    std::vector<uint16_t> histories_;
    std::vector<SatCounter<2>> patterns_;
    unsigned historyLen_;
    uint16_t histMask_;  ///< historyLen_ low bits
};

}  // namespace pbs::bpred

#endif  // PBS_BPRED_SIMPLE_HH
