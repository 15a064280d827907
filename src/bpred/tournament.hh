/**
 * @file
 * Tournament predictor modeled after the Pentium-M organization used by
 * the paper as its 1 KB baseline: a bimodal component, a global (gshare)
 * component, a loop predictor, and a PC-indexed chooser.
 */

#ifndef PBS_BPRED_TOURNAMENT_HH
#define PBS_BPRED_TOURNAMENT_HH

#include "bpred/loop.hh"
#include "bpred/simple.hh"

namespace pbs::bpred {

/**
 * Bimodal + gshare + loop with a chooser: about 1 KB of state (see
 * storageBits()). The geometry is a compile-time constant, as for
 * TAGE-SC-L.
 */
class TournamentPredictor final : public BranchPredictor
{
  public:
    static constexpr unsigned kLog2Bimodal = 10;   ///< 1024 x 2b = 256 B
    static constexpr unsigned kLog2Global = 10;    ///< 1024 x 2b = 256 B
    static constexpr unsigned kGlobalHistory = 10;
    static constexpr unsigned kLog2Chooser = 10;   ///< 1024 x 2b = 256 B
    /** 64 entries, 10-bit tags, 10-bit trip counts. */
    using Loop = LoopTable<6, 10, 10>;

    TournamentPredictor();

    bool
    predict(uint64_t pc) override
    {
        lookup(pc, last_);
        return last_.prediction;
    }

    void update(uint64_t, bool taken) override { train(last_, taken); }

    bool
    predictAndUpdate(uint64_t pc, bool taken) override
    {
        Lookup l;
        lookup(pc, l);
        train(l, taken);
        return l.prediction;
    }

    size_t storageBits() const override;
    std::string name() const override { return "tournament"; }

  private:
    /** Every counter and entry one branch reads, and its prediction. */
    struct Lookup
    {
        SatCounter<2> *bimodal;
        SatCounter<2> *global;
        SatCounter<2> *chooser;
        Loop::Lookup loop;
        bool prediction;
    };

    /** Fill @p l field by field: copying a whole Lookup into
     *  predict()'s last_ would cost a store-forwarding stall. */
    void
    lookup(uint64_t pc, Lookup &l)
    {
        l.bimodal = &bimodal_.counter(pc);
        l.global = &global_.counter(pc);
        l.chooser = &chooser_[pc & (chooser_.size() - 1)];
        l.loop = loop_.lookup(pc);
        if (l.loop.confident())
            l.prediction = l.loop.predict();
        else
            l.prediction = l.chooser->taken() ? l.global->taken()
                                              : l.bimodal->taken();
    }

    void
    train(const Lookup &l, bool taken)
    {
        // The chooser trains toward the component that was right when
        // they disagree (its taken state selects global).
        const bool bim = l.bimodal->taken();
        const bool glo = l.global->taken();
        if (bim != glo)
            l.chooser->train(glo == taken);
        l.bimodal->train(taken);
        l.global->train(taken);
        global_.pushHistory(taken);
        Loop::train(l.loop, taken);
    }

    BimodalPredictor bimodal_;
    GsharePredictor global_;
    Loop loop_;
    std::array<SatCounter<2>, size_t(1) << kLog2Chooser> chooser_{};
    Lookup last_{};  ///< predict()'s lookup, for update()
};

}  // namespace pbs::bpred

#endif  // PBS_BPRED_TOURNAMENT_HH
