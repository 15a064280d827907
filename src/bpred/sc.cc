#include "bpred/sc.hh"

#include <cstdlib>

namespace pbs::bpred {

size_t
StatisticalCorrector::biasIndex(uint64_t pc, bool pred) const
{
    return ((pc << 1) | (pred ? 1 : 0)) & (bias_.size() - 1);
}

size_t
StatisticalCorrector::gehlIndex(unsigned t, uint64_t pc) const
{
    static_assert(kHistLengths.back() < 64);
    uint64_t hist = ghist_ & ((uint64_t(1) << kHistLengths[t]) - 1);
    uint64_t h = pc ^ (hist * 0x9e3779b97f4a7c15ull >> 40) ^ (hist << 3);
    return h & (gehl_[t].size() - 1);
}

int
StatisticalCorrector::sum(uint64_t pc, bool primaryPred) const
{
    if (memoPc_ == pc && memoPred_ == primaryPred)
        return memoSum_;
    memoBiasIdx_ = biasIndex(pc, primaryPred);
    int s = 2 * bias_[memoBiasIdx_].raw() + 1;
    for (unsigned t = 0; t < kNumGehl; t++) {
        memoGehlIdx_[t] = gehlIndex(t, pc);
        s += 2 * gehl_[t][memoGehlIdx_[t]].raw() + 1;
    }
    // Bias the sum toward the primary prediction so the corrector only
    // overrides on clear statistical evidence.
    s += primaryPred ? 2 : -2;
    memoPc_ = pc;
    memoPred_ = primaryPred;
    memoSum_ = s;
    return s;
}

bool
StatisticalCorrector::refine(uint64_t pc, bool primaryPred,
                             unsigned primaryConf)
{
    int s = sum(pc, primaryPred);
    bool sc_pred = s >= 0;
    lastOverrode_ = false;

    if (sc_pred == primaryPred)
        return primaryPred;

    // Override threshold scales with the primary confidence.
    int needed = threshold_ * (1 + static_cast<int>(primaryConf));
    if (std::abs(s) >= needed) {
        lastOverrode_ = true;
        return sc_pred;
    }
    return primaryPred;
}

void
StatisticalCorrector::update(uint64_t pc, bool primaryPred, bool taken)
{
    int s = sum(pc, primaryPred);
    bool sc_pred = s >= 0;

    // Dynamic threshold adaptation (Seznec): tune so that overrides are
    // profitable on balance.
    if (sc_pred != primaryPred) {
        bool override_correct = sc_pred == taken;
        thresholdCtr_.train(!override_correct);
        if (thresholdCtr_.raw() >= SignedSatCounter<6>::kMax) {
            threshold_++;
            thresholdCtr_.set(0);
        } else if (thresholdCtr_.raw() <= SignedSatCounter<6>::kMin) {
            if (threshold_ > 2)
                threshold_--;
            thresholdCtr_.set(0);
        }
    }

    // Train counters while the sum is not saturated away.
    if (std::abs(s) < 8 * threshold_ || sc_pred != taken) {
        // sum(pc, primaryPred) above primed the index memo.
        bias_[memoBiasIdx_].train(taken);
        for (unsigned t = 0; t < kNumGehl; t++)
            gehl_[t][memoGehlIdx_[t]].train(taken);
    }

    ghist_ = (ghist_ << 1) | (taken ? 1 : 0);
    memoPc_ = ~uint64_t(0);
}

size_t
StatisticalCorrector::storageBits() const
{
    constexpr size_t kCounters =
        (size_t(1) << kLog2Bias) + kNumGehl * (size_t(1) << kLog2Gehl);
    return kCounters * kCtrBits + kHistLengths.back() +
           6 /* threshold ctr */ + 8 /* threshold */;
}

}  // namespace pbs::bpred
