#include "bpred/sc.hh"

#include <cstdlib>

namespace pbs::bpred {

StatisticalCorrector::Lookup
StatisticalCorrector::lookup(uint64_t pc, bool primaryPred) const
{
    static_assert(kHistLengths.back() < 64);
    Lookup l;
    l.primaryPred = primaryPred;
    l.biasIdx = uint16_t(((pc << 1) | (primaryPred ? 1 : 0)) &
                         (bias_.size() - 1));
    int s = 2 * bias_[l.biasIdx].raw() + 1;
    for (unsigned t = 0; t < kNumGehl; t++) {
        const uint64_t hist =
            ghist_ & ((uint64_t(1) << kHistLengths[t]) - 1);
        const uint64_t h =
            pc ^ (hist * 0x9e3779b97f4a7c15ull >> 40) ^ (hist << 3);
        l.gehlIdx[t] = uint16_t(h & (gehl_[t].size() - 1));
        s += 2 * gehl_[t][l.gehlIdx[t]].raw() + 1;
    }
    // Bias the sum toward the primary prediction so the corrector only
    // overrides on clear statistical evidence.
    l.sum = s + (primaryPred ? 2 : -2);
    return l;
}

bool
StatisticalCorrector::refine(const Lookup &l, unsigned primaryConf) const
{
    const bool sc_pred = l.sum >= 0;
    if (sc_pred == l.primaryPred)
        return l.primaryPred;

    // Override threshold scales with the primary confidence.
    const int needed = threshold_ * (1 + static_cast<int>(primaryConf));
    return std::abs(l.sum) >= needed ? sc_pred : l.primaryPred;
}

void
StatisticalCorrector::train(const Lookup &l, bool taken)
{
    const bool sc_pred = l.sum >= 0;

    // Dynamic threshold adaptation (Seznec): tune so that overrides are
    // profitable on balance.
    if (sc_pred != l.primaryPred) {
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
    if (std::abs(l.sum) < 8 * threshold_ || sc_pred != taken) {
        bias_[l.biasIdx].train(taken);
        for (unsigned t = 0; t < kNumGehl; t++)
            gehl_[t][l.gehlIdx[t]].train(taken);
    }

    ghist_ = (ghist_ << 1) | (taken ? 1 : 0);
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
