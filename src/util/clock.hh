/**
 * @file
 * Monotonic clock shim shared by every layer that measures wall time
 * (the observability tracer, the bench harness, the experiment
 * engine's elapsed counter). One nanosecond-resolution monotonic
 * source keeps timing code uniform — and keeps wall time out of
 * everything content-hashed: artifacts and cache keys embed only
 * simulation counters, never values derived from this clock. Observability reads the run; it never perturbs it.
 */

#ifndef PBS_UTIL_CLOCK_HH
#define PBS_UTIL_CLOCK_HH

#include <chrono>
#include <cstdint>

namespace pbs::util {

/** Monotonic nanoseconds since an arbitrary process-local epoch. */
inline uint64_t
monotonicNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Convenience: monotonic milliseconds (double, for reporting). */
inline double
nsToMs(uint64_t ns)
{
    return double(ns) / 1e6;
}

}  // namespace pbs::util

#endif  // PBS_UTIL_CLOCK_HH
