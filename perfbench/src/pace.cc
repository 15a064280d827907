#include "pace.hh"

#include <algorithm>
#include <array>

#include "stats.hh"
#include "util/clock.hh"

namespace perfbench {

namespace {

/** 64K entries of 4 bytes: the size of a large predictor table. */
constexpr uint32_t kTableMask = (1u << 16) - 1;

/** Kernel steps per call, about kReferenceNs on a quiet host. */
constexpr unsigned kSteps = 240000;

std::array<uint32_t, kTableMask + 1> table;
volatile uint32_t paceSink = 0;

}  // namespace

uint64_t
referenceKernelNs()
{
    const uint64_t t0 = pbs::util::monotonicNowNs();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    uint32_t acc = 0;
    for (unsigned i = 0; i < kSteps; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint32_t idx = uint32_t(x >> 32) & kTableMask;
        const uint32_t v = table[idx];
        if ((v ^ uint32_t(x)) & 1) {
            table[idx] = v + uint32_t(x);
            acc += v;
        } else {
            table[idx ^ 1] = v ^ acc;
            acc ^= v >> 3;
        }
    }
    paceSink = paceSink + acc;
    return pbs::util::monotonicNowNs() - t0;
}

double
Pace::rescale(double ns, size_t unit) const
{
    if (unit + 1 >= ns_.size())
        return ns;
    // Up to two samples before the unit and two after it: the median
    // ignores one sample that caught a momentary stall.
    const size_t lo = unit > 0 ? unit - 1 : 0;
    const size_t hi = std::min(ns_.size(), unit + 3);
    return ns * kReferenceNs /
           median(std::vector<double>(ns_.begin() + lo, ns_.begin() + hi));
}

double
Pace::medianNs() const
{
    return ns_.empty() ? 0.0 : median(ns_);
}

}  // namespace perfbench
