/**
 * @file
 * Saturating counter helpers shared by the predictors.
 */

#ifndef PBS_BPRED_COUNTERS_HH
#define PBS_BPRED_COUNTERS_HH

#include <cstdint>

namespace pbs::bpred {

/**
 * An n-bit unsigned saturating counter. The taken threshold is the
 * counter midpoint (e.g., 2 for a 2-bit counter).
 */
template <unsigned Bits>
class SatCounter
{
    static_assert(Bits >= 1 && Bits <= 8);

  public:
    static constexpr uint8_t kMax = (1u << Bits) - 1;
    static constexpr uint8_t kWeakTaken = 1u << (Bits - 1);
    static constexpr uint8_t kWeakNotTaken = kWeakTaken - 1;

    SatCounter() : value_(kWeakNotTaken) {}
    explicit SatCounter(uint8_t v) : value_(v) {}

    bool taken() const { return value_ >= kWeakTaken; }
    uint8_t raw() const { return value_; }

    /** @return true if the counter is at one of its weak states. */
    bool
    weak() const
    {
        return value_ == kWeakTaken || value_ == kWeakNotTaken;
    }

    /** Step toward @p taken, saturating; branch-free (the direction
     *  of a predicted branch is the least predictable bit there is). */
    void
    train(bool taken)
    {
        value_ += int(taken & (value_ < kMax)) - int(!taken & (value_ > 0));
    }

    void set(uint8_t v) { value_ = v > kMax ? kMax : v; }

  private:
    uint8_t value_;
};

/**
 * An n-bit signed saturating counter in [-2^(n-1), 2^(n-1)-1], as used
 * by TAGE tagged components and the statistical corrector.
 */
template <unsigned Bits>
class SignedSatCounter
{
    static_assert(Bits >= 2 && Bits <= 8);

  public:
    static constexpr int kMax = (1 << (Bits - 1)) - 1;
    static constexpr int kMin = -(1 << (Bits - 1));

    SignedSatCounter() : value_(0) {}
    explicit SignedSatCounter(int v) : value_(static_cast<int8_t>(v)) {}

    bool taken() const { return value_ >= 0; }
    int raw() const { return value_; }

    /** Weak: the two central states (-1 and 0). */
    bool weak() const { return value_ == 0 || value_ == -1; }

    /** Step toward @p taken, saturating; branch-free. */
    void
    train(bool taken)
    {
        value_ += int(taken & (value_ < kMax)) - int(!taken & (value_ > kMin));
    }

    void set(int v)
    {
        if (v > kMax)
            v = kMax;
        if (v < kMin)
            v = kMin;
        value_ = static_cast<int8_t>(v);
    }

  private:
    int8_t value_;
};

}  // namespace pbs::bpred

#endif  // PBS_BPRED_COUNTERS_HH
