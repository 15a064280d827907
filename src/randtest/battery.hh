/**
 * @file
 * Randomness-test battery: the reproduction's stand-in for DieHarder
 * 3.31.1 (Table III). Nineteen classic statistical tests, each applied
 * to six disjoint segments of the value stream, give the paper's 114
 * test instances. Classification follows DieHarder's thresholds:
 * FAIL for p < 1e-6 or p > 1-1e-6, WEAK for p < 0.005 or p > 0.995,
 * PASS otherwise.
 */

#ifndef PBS_RANDTEST_BATTERY_HH
#define PBS_RANDTEST_BATTERY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pbs::randtest {

/** Test classification (DieHarder semantics). */
enum class Outcome { Pass, Weak, Fail };

/** One test instance result. */
struct TestResult
{
    std::string name;
    double pValue = 1.0;
    Outcome outcome = Outcome::Pass;
};

/** PASS/WEAK/FAIL counts. */
struct Tally
{
    unsigned pass = 0;
    unsigned weak = 0;
    unsigned fail = 0;
    unsigned total() const { return pass + weak + fail; }
};

/** Classify a p-value with DieHarder's thresholds. */
Outcome classify(double p);

/** @return the number of test instances the battery runs (114). */
unsigned batterySize();

/**
 * Run the battery on a stream of uniform-[0,1) values. The stream is
 * split into six disjoint segments; each of the nineteen tests runs on
 * every segment.
 */
std::vector<TestResult> runBattery(const std::vector<double> &stream);

/** Aggregate results into PASS/WEAK/FAIL counts. */
Tally tallyResults(const std::vector<TestResult> &results);

// Individual tests (exposed for unit testing). Each returns a p-value
// on a view [begin, begin+n) of uniform values.

double testKsUniform(const double *v, size_t n);
double testChi2Freq(const double *v, size_t n, unsigned bins);
double testRunsAboveBelow(const double *v, size_t n);
double testSerialCorrelation(const double *v, size_t n, unsigned lag);
double testGap(const double *v, size_t n, double lo, double hi);
double testMaxOfT(const double *v, size_t n, unsigned t);
/** @throws std::invalid_argument unless 2 <= t <= 8. */
double testPermutation(const double *v, size_t n, unsigned t);
double testCouponCollector(const double *v, size_t n, unsigned d);
double testMean(const double *v, size_t n);
double testSerialPairs(const double *v, size_t n, unsigned d);
double testMantissaMonobit(const double *v, size_t n, unsigned bit);

}  // namespace pbs::randtest

#endif  // PBS_RANDTEST_BATTERY_HH
