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

    /**
     * @param pc branch address
     * @param primaryPred prediction of the primary (TAGE) predictor
     * @param primaryConf primary confidence (0 low .. 2 high)
     * @return the possibly-overridden prediction
     */
    bool refine(uint64_t pc, bool primaryPred, unsigned primaryConf);

    /** Train with the outcome. Call once per branch, after refine(). */
    void update(uint64_t pc, bool primaryPred, bool taken);

    size_t storageBits() const;

    /** @return true if the last refine() call overrode the primary. */
    bool lastOverrode() const { return lastOverrode_; }

  private:
    using Counter = SignedSatCounter<kCtrBits>;

    int sum(uint64_t pc, bool primaryPred) const;
    size_t biasIndex(uint64_t pc, bool pred) const;
    size_t gehlIndex(unsigned t, uint64_t pc) const;

    std::array<Counter, size_t(1) << kLog2Bias> bias_{};
    std::array<std::array<Counter, size_t(1) << kLog2Gehl>, kNumGehl>
        gehl_{};
    uint64_t ghist_ = 0;
    int threshold_ = kInitialThreshold;
    SignedSatCounter<6> thresholdCtr_;
    bool lastOverrode_ = false;

    /**
     * Memo of the last sum() evaluation: refine() and update() see the
     * same (pc, primaryPred, ghist) for a given branch, so the second
     * sum and the training-loop indices reuse the first computation.
     * Invalidated when ghist_ shifts.
     */
    mutable uint64_t memoPc_ = ~uint64_t(0);
    mutable bool memoPred_ = false;
    mutable int memoSum_ = 0;
    mutable size_t memoBiasIdx_ = 0;
    mutable std::array<size_t, kNumGehl> memoGehlIdx_{};
};

}  // namespace pbs::bpred

#endif  // PBS_BPRED_SC_HH
