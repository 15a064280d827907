/**
 * @file
 * Statistical corrector (the "SC" in TAGE-SC-L): a small GEHL-style
 * perceptron-sum predictor that can override TAGE when the statistical
 * bias of a branch disagrees strongly with the TAGE prediction (catches
 * statistically biased but history-resistant branches).
 */

#ifndef PBS_BPRED_SC_HH
#define PBS_BPRED_SC_HH

#include <array>

#include "bpred/counters.hh"
#include "bpred/predictor.hh"

namespace pbs::bpred {

/**
 * Statistical corrector. Not a standalone predictor: it refines a
 * primary prediction. See TageSclPredictor for composition.
 *
 * A branch computes its counter indices and sum once (lookup()); the
 * refinement and the training both work on that one Lookup.
 */
class StatisticalCorrector
{
  public:
    static constexpr unsigned kLog2Bias = 10;  ///< indexed pc + pred
    static constexpr unsigned kLog2Gehl = 9;   ///< per history table
    static constexpr unsigned kCtrBits = 6;
    static constexpr int kInitialThreshold = 6;
    /** Global-history length of each GEHL table. */
    static constexpr std::array<unsigned, 3> kHistLengths = {4, 10, 25};
    static constexpr unsigned kNumGehl = kHistLengths.size();

    /** One branch's counter indices and the sum they read. */
    struct Lookup
    {
        int sum;
        bool primaryPred;
        uint16_t biasIdx;
        std::array<uint16_t, kNumGehl> gehlIdx;
    };

    /**
     * @param pc branch address
     * @param primaryPred prediction of the primary (TAGE) predictor
     */
    Lookup lookup(uint64_t pc, bool primaryPred) const;

    /**
     * @param primaryConf primary confidence (0 low .. 2 high)
     * @return the possibly-overridden primary prediction
     */
    bool refine(const Lookup &l, unsigned primaryConf) const;

    /** Train with the outcome and shift the history. Call once per
     *  branch, with this branch's lookup(). */
    void train(const Lookup &l, bool taken);

    size_t storageBits() const;

  private:
    using Counter = SignedSatCounter<kCtrBits>;

    std::array<Counter, size_t(1) << kLog2Bias> bias_{};
    std::array<std::array<Counter, size_t(1) << kLog2Gehl>, kNumGehl>
        gehl_{};
    uint64_t ghist_ = 0;
    int threshold_ = kInitialThreshold;
    SignedSatCounter<6> thresholdCtr_;
};

}  // namespace pbs::bpred

#endif  // PBS_BPRED_SC_HH
