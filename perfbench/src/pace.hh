/**
 * @file
 * Host pace: a fixed reference kernel interleaved with the timed work,
 * so that host times can be rescaled to one reference host speed.
 *
 * The benchmark host is shared: over minutes its speed drifts by up to
 * 2x while little time is stolen, so CPU time drifts with wall time.
 * The kernel below is compiled into the benchmark, does not depend on
 * the simulator's code, and does the simulator's kind of work (hashed
 * reads and writes over a predictor-sized table, a data-dependent
 * branch per step). Its time, sampled between the units of timed work,
 * says how fast the host runs at that moment.
 */

#ifndef PERFBENCH_PACE_HH
#define PERFBENCH_PACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * The reference kernel's time on a quiet development host, in ns: the
 * unit every rescaled host time is expressed against.
 */
inline constexpr double kReferenceNs = 2.0e6;

/** Run the reference kernel once. @return its elapsed host ns. */
uint64_t referenceKernelNs();

/**
 * Reference samples taken between the units of one stretch of timed
 * work (the passes of a job, or its setups): one before the first unit,
 * then one after each.
 */
class Pace
{
  public:
    /** Take one sample now. */
    void sample() { record(double(referenceKernelNs())); }

    /** Add a sample of @p ns. */
    void record(double ns) { ns_.push_back(ns); }

    /**
     * Rescale @p ns, the host time of unit @p unit, to the reference
     * speed by the median of the two samples taken before it and the
     * two taken after it, as far as they exist (@p ns unchanged without
     * a sample on each side).
     */
    double rescale(double ns, size_t unit) const;

    /** Median sample (0 without samples). */
    double medianNs() const;

    const std::vector<double> &samples() const { return ns_; }

  private:
    std::vector<double> ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PACE_HH
