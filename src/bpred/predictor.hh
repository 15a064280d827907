/**
 * @file
 * Branch direction predictor interface and trivial predictors.
 *
 * Methodology: predictors follow the Championship Branch Prediction
 * (CBP) protocol — predict(pc) is called at fetch, and update(pc, taken)
 * is called immediately with the resolved direction (trace-driven,
 * immediate update). The timing model never fetches wrong-path
 * instructions, so speculative-history repair is not modeled; this is
 * the same methodology the paper's Sniper setup uses.
 *
 * Protocol: either predictAndUpdate(pc, taken) once per branch, or
 * predict(pc) followed by update(pc, taken) for the same pc. update()
 * reuses what predict() looked up and must not be called without it;
 * nothing detects or repairs a broken pairing. The two forms make the
 * same predictions and leave the same state, so one stream may mix
 * them branch by branch.
 */

#ifndef PBS_BPRED_PREDICTOR_HH
#define PBS_BPRED_PREDICTOR_HH

#include <cstdint>
#include <string>

namespace pbs::bpred {

/** Abstract conditional-branch direction predictor. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predict the direction of the branch at @p pc. */
    virtual bool predict(uint64_t pc) = 0;

    /**
     * Train with the resolved direction and update all histories.
     * Precondition: the previous call was predict(pc) for the same pc.
     */
    virtual void update(uint64_t pc, bool taken) = 0;

    /**
     * predict(pc) then update(pc, taken) in one call, looking every
     * table up once. The core calls it once per predicted branch.
     * @return the prediction predict(pc) would have made.
     */
    virtual bool predictAndUpdate(uint64_t pc, bool taken) = 0;

    /** @return predictor storage budget in bits. */
    virtual size_t storageBits() const = 0;

    virtual std::string name() const = 0;

    /** @return true if this is the oracle predictor. */
    virtual bool isPerfect() const { return false; }
};

/** Always predicts one direction. */
class StaticPredictor final : public BranchPredictor
{
  public:
    explicit StaticPredictor(bool taken) : taken_(taken) {}

    bool predict(uint64_t) override { return taken_; }
    void update(uint64_t, bool) override {}
    bool predictAndUpdate(uint64_t, bool) override { return taken_; }
    size_t storageBits() const override { return 0; }

    std::string
    name() const override
    {
        return taken_ ? "always-taken" : "always-not-taken";
    }

  private:
    bool taken_;
};

/** Oracle: the core treats its predictions as always correct. */
class PerfectPredictor final : public BranchPredictor
{
  public:
    bool predict(uint64_t) override { return true; }
    void update(uint64_t, bool) override {}
    bool predictAndUpdate(uint64_t, bool) override { return true; }
    size_t storageBits() const override { return 0; }
    std::string name() const override { return "perfect"; }
    bool isPerfect() const override { return true; }
};

/** Deterministic pseudo-random predictions (testing aid). */
class RandomPredictor final : public BranchPredictor
{
  public:
    explicit RandomPredictor(uint64_t seed = 1)
        : state_(seed ? seed : 1)
    {}

    bool
    predict(uint64_t) override
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return (state_ * 2685821657736338717ull) >> 63;
    }

    void update(uint64_t, bool) override {}
    bool predictAndUpdate(uint64_t pc, bool) override { return predict(pc); }
    size_t storageBits() const override { return 64; }
    std::string name() const override { return "random"; }

  private:
    uint64_t state_;
};

}  // namespace pbs::bpred

#endif  // PBS_BPRED_PREDICTOR_HH
