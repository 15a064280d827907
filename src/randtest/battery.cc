#include "randtest/battery.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "randtest/pvalue.hh"

namespace pbs::randtest {

Outcome
classify(double p)
{
    if (p < 1e-6 || p > 1.0 - 1e-6)
        return Outcome::Fail;
    if (p < 0.005 || p > 0.995)
        return Outcome::Weak;
    return Outcome::Pass;
}

double
testKsUniform(const double *v, size_t n)
{
    std::vector<double> sorted(v, v + n);
    std::sort(sorted.begin(), sorted.end());
    double d = 0.0;
    for (size_t i = 0; i < n; i++) {
        double lo = double(i) / double(n);
        double hi = double(i + 1) / double(n);
        d = std::max({d, std::abs(sorted[i] - lo),
                      std::abs(sorted[i] - hi)});
    }
    return ksPValue(d, n);
}

double
testChi2Freq(const double *v, size_t n, unsigned bins)
{
    std::vector<uint64_t> count(bins, 0);
    for (size_t i = 0; i < n; i++) {
        auto b = static_cast<unsigned>(v[i] * bins);
        if (b >= bins)
            b = bins - 1;
        count[b]++;
    }
    double expected = double(n) / bins;
    double chi2 = 0.0;
    for (uint64_t c : count) {
        double d = double(c) - expected;
        chi2 += d * d / expected;
    }
    return chi2Sf(chi2, bins - 1);
}

double
testRunsAboveBelow(const double *v, size_t n)
{
    // Runs above/below 0.5; normal approximation.
    size_t n1 = 0;
    for (size_t i = 0; i < n; i++)
        n1 += v[i] >= 0.5;
    size_t n2 = n - n1;
    if (n1 == 0 || n2 == 0)
        return 0.0;
    uint64_t runs = 1;
    for (size_t i = 1; i < n; i++)
        runs += (v[i] >= 0.5) != (v[i - 1] >= 0.5);
    double nn = double(n);
    double mu = 2.0 * n1 * n2 / nn + 1.0;
    double var = (mu - 1.0) * (mu - 2.0) / (nn - 1.0);
    if (var <= 0.0)
        return 1.0;
    return normalTwoSided((double(runs) - mu) / std::sqrt(var));
}

double
testSerialCorrelation(const double *v, size_t n, unsigned lag)
{
    if (n <= lag + 2)
        return 1.0;
    size_t m = n - lag;
    double mean_x = 0.0;
    for (size_t i = 0; i < n; i++)
        mean_x += v[i];
    mean_x /= double(n);
    double num = 0.0, den = 0.0;
    for (size_t i = 0; i < m; i++)
        num += (v[i] - mean_x) * (v[i + lag] - mean_x);
    for (size_t i = 0; i < n; i++)
        den += (v[i] - mean_x) * (v[i] - mean_x);
    if (den == 0.0)
        return 0.0;
    double r = num / den;
    // Under H0, r ~ N(-1/n, 1/n) approximately.
    double z = (r + 1.0 / double(n)) * std::sqrt(double(n));
    return normalTwoSided(z);
}

double
testGap(const double *v, size_t n, double lo, double hi)
{
    // Lengths of gaps between hits of [lo, hi); chi-square against the
    // geometric distribution, gap lengths binned at 0..t-1 and >= t.
    const unsigned t = 8;
    double p = hi - lo;
    std::vector<uint64_t> count(t + 1, 0);
    uint64_t gaps = 0;
    unsigned gap = 0;
    for (size_t i = 0; i < n; i++) {
        if (v[i] >= lo && v[i] < hi) {
            count[std::min(gap, t)]++;
            gaps++;
            gap = 0;
        } else {
            gap++;
        }
    }
    if (gaps < 32)
        return 1.0;
    double chi2 = 0.0;
    for (unsigned k = 0; k <= t; k++) {
        double pk = k < t ? p * std::pow(1.0 - p, k)
                          : std::pow(1.0 - p, t);
        double expected = pk * double(gaps);
        if (expected < 1e-9)
            continue;
        double d = double(count[k]) - expected;
        chi2 += d * d / expected;
    }
    return chi2Sf(chi2, t);
}

double
testMaxOfT(const double *v, size_t n, unsigned t)
{
    // max(u_1..u_t)^t is uniform; KS on the transformed sample.
    size_t groups = n / t;
    if (groups < 16)
        return 1.0;
    std::vector<double> xs(groups);
    for (size_t g = 0; g < groups; g++) {
        double m = 0.0;
        for (unsigned j = 0; j < t; j++)
            m = std::max(m, v[g * t + j]);
        xs[g] = std::pow(m, double(t));
    }
    return testKsUniform(xs.data(), xs.size());
}

double
testPermutation(const double *v, size_t n, unsigned t)
{
    // Order patterns of consecutive non-overlapping t-tuples must be
    // uniform over t! permutations.
    if (t < 2 || t > 8)
        throw std::invalid_argument(
            "testPermutation: tuple size must be in [2, 8]");
    size_t groups = n / t;
    unsigned fact = 1;
    for (unsigned i = 2; i <= t; i++)
        fact *= i;
    if (groups < 8ull * fact)
        return 1.0;
    std::vector<uint64_t> count(fact, 0);
    std::array<unsigned, 8> idx{};
    for (size_t g = 0; g < groups; g++) {
        const double *tuple = v + g * t;
        for (unsigned i = 0; i < t; i++)
            idx[i] = i;
        std::sort(idx.begin(), idx.begin() + t,
                  [&](unsigned a, unsigned b) {
                      return tuple[a] < tuple[b];
                  });
        // Lehmer code of the permutation.
        unsigned code = 0;
        for (unsigned i = 0; i < t; i++) {
            unsigned smaller = 0;
            for (unsigned j = i + 1; j < t; j++)
                smaller += idx[j] < idx[i];
            code = code * (t - i) + smaller;
        }
        count[code]++;
    }
    double expected = double(groups) / fact;
    double chi2 = 0.0;
    for (uint64_t c : count) {
        double d = double(c) - expected;
        chi2 += d * d / expected;
    }
    return chi2Sf(chi2, fact - 1);
}

double
testCouponCollector(const double *v, size_t n, unsigned d)
{
    // Segment lengths needed to observe all d symbols; chi-square over
    // binned lengths [d, d+1, ..., d+t-1, >= d+t].
    const unsigned t = 12;
    std::vector<uint64_t> count(t + 1, 0);
    uint64_t segments = 0;
    unsigned seen_mask_size = 0;
    std::vector<bool> seen(d, false);
    unsigned len = 0;
    for (size_t i = 0; i < n; i++) {
        auto s = static_cast<unsigned>(v[i] * d);
        if (s >= d)
            s = d - 1;
        len++;
        if (!seen[s]) {
            seen[s] = true;
            seen_mask_size++;
        }
        if (seen_mask_size == d) {
            unsigned bin = len - d;
            count[std::min(bin, t)]++;
            segments++;
            std::fill(seen.begin(), seen.end(), false);
            seen_mask_size = 0;
            len = 0;
        }
    }
    if (segments < 32)
        return 1.0;
    // Probabilities via the classic coupon-collector distribution:
    // P(L = d + k) computed by Stirling-number recurrence on
    // P(L <= m) = d! * S(m, d) / d^m, evaluated numerically.
    auto cdf = [&](unsigned m) {
        // P(all d seen within m draws) via inclusion-exclusion.
        double sum = 0.0;
        double sign = 1.0;
        double binom = 1.0;
        for (unsigned j = 0; j <= d; j++) {
            if (j > 0) {
                binom = binom * double(d - j + 1) / double(j);
                sign = -sign;
            }
            sum += (j == 0 ? 1.0 : sign * binom) *
                   std::pow(1.0 - double(j) / d, double(m));
        }
        return sum;
    };
    double chi2 = 0.0;
    double prev_cdf = cdf(d - 1);
    for (unsigned k = 0; k <= t; k++) {
        double pk;
        if (k < t) {
            double c = cdf(d + k);
            pk = c - prev_cdf;
            prev_cdf = c;
        } else {
            pk = 1.0 - prev_cdf;
        }
        double expected = pk * double(segments);
        if (expected < 1e-9)
            continue;
        double diff = double(count[k]) - expected;
        chi2 += diff * diff / expected;
    }
    return chi2Sf(chi2, t);
}

double
testMean(const double *v, size_t n)
{
    double mean = 0.0;
    for (size_t i = 0; i < n; i++)
        mean += v[i];
    mean /= double(n);
    // Var of U(0,1) = 1/12.
    double z = (mean - 0.5) * std::sqrt(12.0 * double(n));
    return normalTwoSided(z);
}

double
testSerialPairs(const double *v, size_t n, unsigned d)
{
    size_t pairs = n / 2;
    if (pairs < 8ull * d * d)
        return 1.0;
    std::vector<uint64_t> count(size_t(d) * d, 0);
    for (size_t i = 0; i < pairs; i++) {
        auto a = static_cast<unsigned>(v[2 * i] * d);
        auto b = static_cast<unsigned>(v[2 * i + 1] * d);
        if (a >= d)
            a = d - 1;
        if (b >= d)
            b = d - 1;
        count[size_t(a) * d + b]++;
    }
    double expected = double(pairs) / (double(d) * d);
    double chi2 = 0.0;
    for (uint64_t c : count) {
        double diff = double(c) - expected;
        chi2 += diff * diff / expected;
    }
    return chi2Sf(chi2, double(d) * d - 1.0);
}

double
testMantissaMonobit(const double *v, size_t n, unsigned bit)
{
    // Frequency of one mantissa bit (bit index from the low end).
    uint64_t ones = 0;
    for (size_t i = 0; i < n; i++) {
        uint64_t bits;
        std::memcpy(&bits, &v[i], 8);
        ones += (bits >> bit) & 1;
    }
    double z = (2.0 * double(ones) - double(n)) / std::sqrt(double(n));
    return normalTwoSided(z);
}

unsigned
batterySize()
{
    return 19 * 6;
}

std::vector<TestResult>
runBattery(const std::vector<double> &stream)
{
    using TestFn = std::function<double(const double *, size_t)>;
    struct Spec
    {
        std::string name;
        TestFn fn;
    };

    const std::vector<Spec> specs = {
        {"ks-uniform", [](const double *v, size_t n) {
             return testKsUniform(v, n); }},
        {"chi2-16", [](const double *v, size_t n) {
             return testChi2Freq(v, n, 16); }},
        {"chi2-64", [](const double *v, size_t n) {
             return testChi2Freq(v, n, 64); }},
        {"chi2-256", [](const double *v, size_t n) {
             return testChi2Freq(v, n, 256); }},
        {"runs", [](const double *v, size_t n) {
             return testRunsAboveBelow(v, n); }},
        {"serial-1", [](const double *v, size_t n) {
             return testSerialCorrelation(v, n, 1); }},
        {"serial-2", [](const double *v, size_t n) {
             return testSerialCorrelation(v, n, 2); }},
        {"serial-7", [](const double *v, size_t n) {
             return testSerialCorrelation(v, n, 7); }},
        {"gap-low", [](const double *v, size_t n) {
             return testGap(v, n, 0.0, 0.25); }},
        {"gap-mid", [](const double *v, size_t n) {
             return testGap(v, n, 0.25, 0.75); }},
        {"max-of-4", [](const double *v, size_t n) {
             return testMaxOfT(v, n, 4); }},
        {"max-of-8", [](const double *v, size_t n) {
             return testMaxOfT(v, n, 8); }},
        {"perm-3", [](const double *v, size_t n) {
             return testPermutation(v, n, 3); }},
        {"perm-4", [](const double *v, size_t n) {
             return testPermutation(v, n, 4); }},
        {"coupon-8", [](const double *v, size_t n) {
             return testCouponCollector(v, n, 8); }},
        {"mean", [](const double *v, size_t n) {
             return testMean(v, n); }},
        {"pairs-8", [](const double *v, size_t n) {
             return testSerialPairs(v, n, 8); }},
        {"pairs-16", [](const double *v, size_t n) {
             return testSerialPairs(v, n, 16); }},
        {"mantissa-12", [](const double *v, size_t n) {
             return testMantissaMonobit(v, n, 12); }},
    };

    constexpr unsigned kSegments = 6;
    std::vector<TestResult> results;
    size_t seg_len = stream.size() / kSegments;
    for (const auto &spec : specs) {
        for (unsigned s = 0; s < kSegments; s++) {
            TestResult r;
            r.name = spec.name + "/seg" + std::to_string(s);
            if (seg_len < 64) {
                r.pValue = 1.0;
                r.outcome = Outcome::Fail;  // insufficient data
            } else {
                r.pValue = spec.fn(stream.data() + s * seg_len, seg_len);
                r.outcome = classify(r.pValue);
            }
            results.push_back(r);
        }
    }
    return results;
}

Tally
tallyResults(const std::vector<TestResult> &results)
{
    Tally t;
    for (const auto &r : results) {
        switch (r.outcome) {
          case Outcome::Pass: t.pass++; break;
          case Outcome::Weak: t.weak++; break;
          case Outcome::Fail: t.fail++; break;
        }
    }
    return t;
}

}  // namespace pbs::randtest
