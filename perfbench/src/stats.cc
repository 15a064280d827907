#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        throw std::invalid_argument("percentile of no samples");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    size_t rank = size_t(std::ceil(p / 100.0 * double(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    return v[rank - 1];
}

unsigned
highestPercentileWithTail(size_t n, size_t minTail)
{
    for (unsigned p = 100; p >= 1; p--) {
        size_t rank = size_t(std::ceil(double(p) / 100.0 * double(n)));
        if (rank >= 1 && n - rank >= minTail)
            return p;
    }
    return 0;
}

Quartiles
quartiles(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("quartiles of no samples");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n == 1)
        return {v[0], v[0], v[0]};
    // statistics.quantiles(method="exclusive"): m = n + 1, and cut i
    // interpolates between the j-th and (j+1)-th order statistics, with
    // j clamped to 1 .. n-1 before the weight is taken.
    double cut[3];
    const int64_t m = int64_t(n) + 1;
    for (int64_t i = 1; i <= 3; i++) {
        int64_t j = std::clamp<int64_t>(i * m / 4, 1, int64_t(n) - 1);
        int64_t delta = i * m - j * 4;
        cut[i - 1] = (v[j - 1] * double(4 - delta) + v[j] * double(delta)) /
                     4.0;
    }
    return {cut[0], cut[1], cut[2]};
}

}  // namespace perfbench
