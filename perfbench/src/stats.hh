/**
 * @file
 * Order statistics and failure accounting shared by the benchmark's
 * metrics and its spread checks.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for an even count). */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n)
 * of the sorted samples. @p p in (0, 100]; @p v must be non-empty.
 */
double percentile(std::vector<double> v, double p);

/**
 * The highest whole percentile whose nearest-rank value still has at
 * least @p minTail samples strictly beyond it, out of @p n samples
 * (0 when there are not more than @p minTail samples). With the
 * benchmark's rule of ten, 50 samples allow p80 and 60 allow p83.
 */
unsigned highestPercentileWithTail(size_t n, size_t minTail);

/** First, second and third quartile. */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;

    /** Interquartile distance as a share of the median. */
    double spread() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

/**
 * Quartiles by the "exclusive" method of Python's
 * statistics.quantiles(data, n=4), so spreads computed here match the
 * ones computed over a run's JSON results.
 */
Quartiles quartiles(std::vector<double> v);

/** Points attempted and failed; a point fails at most once. */
struct FailTally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /**
     * One pass over a job: a point fails if it threw or mismatched the
     * oracle; each point a warm rerun recomputed instead of loading
     * also fails, charged to points that had not already failed.
     */
    void addPass(const std::vector<bool> &pointOk, uint64_t recomputed)
    {
        uint64_t bad = 0;
        for (bool ok : pointOk)
            bad += !ok;
        const uint64_t n = pointOk.size();
        attempted += n;
        failed += std::min(n, bad + recomputed);
    }

    double failedFrac() const
    {
        return attempted ? double(failed) / double(attempted) : 0.0;
    }

    double okFrac() const { return attempted ? 1.0 - failedFrac() : 0.0; }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_HH
