/**
 * @file
 * The observability core: process-wide enable state, RAII spans, and
 * the span tracer behind `--trace`.
 *
 * Design rules (the whole subsystem hangs off them):
 *
 *  - **Zero overhead when disabled.** Every entry point starts with
 *    one relaxed atomic load; a disabled Span constructor touches
 *    nothing else (no clock read, no allocation, no lock). The
 *    default state is disabled, so uninstrumented binaries and the
 *    detailed core's hot loops pay a branch at phase granularity,
 *    never per instruction.
 *
 *  - **Observability reads the run, never perturbs it.** Nothing in
 *    this module feeds back into simulation, artifacts or cache keys:
 *    wall time stays on the side, in the separate
 *    `pbs-trace-v1` / `pbs-metrics-v1` files. Artifacts are
 *    byte-identical with tracing on and off (tests/obs_test.cc pins
 *    this).
 *
 *  - **One track per worker thread.** Thread-pool workers allocate a
 *    fresh track id with newTrack() for each pool generation, so a
 *    track's extent is one OS thread's working lifetime and busy /
 *    wall utilization per worker is meaningful. Track 0 is the main
 *    thread.
 *
 * The trace artifact is Chrome trace-event JSON (complete "X" events
 * plus "M" thread-name metadata), loadable directly in Perfetto or
 * chrome://tracing; see docs/observability.md for the schema.
 */

#ifndef PBS_OBS_OBS_HH
#define PBS_OBS_OBS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace pbs::obs {

/** What to collect. Both default off (the zero-overhead state). */
struct Options
{
    bool trace = false;    ///< record spans for the trace artifact
    bool metrics = false;  ///< aggregate spans/counters into metrics
};

/**
 * Enable collection process-wide. Idempotent; flags accumulate (a
 * second call can turn on the other collector). The calling thread
 * becomes track 0 ("main").
 */
void enable(const Options &opts);

/** Tests only: disable everything and drop all collected state. */
void resetForTest();

/**
 * The monotonic-clock value captured at the first enable() (trace
 * timestamps are relative to it), or 0 when never enabled. Snapshot
 * consumers use it for process wall time.
 */
uint64_t epochNs();

namespace detail {
extern std::atomic<uint32_t> mode;  ///< bit 0: trace, bit 1: metrics
}

inline bool
traceEnabled()
{
    return detail::mode.load(std::memory_order_relaxed) & 1u;
}

inline bool
metricsEnabled()
{
    return detail::mode.load(std::memory_order_relaxed) & 2u;
}

/** Either collector active (the Span fast-path check). */
inline bool
enabled()
{
    return detail::mode.load(std::memory_order_relaxed) != 0;
}

// ---------------------------------------------------------------------
// Tracks: one per worker thread.
// ---------------------------------------------------------------------

/**
 * Allocate a fresh track id, name it, and bind it to the calling
 * thread. Call once at the top of each pool worker; ids are unique
 * per pool generation so per-track busy/extent describes exactly one
 * thread's working life. @return the id (0 when disabled — the main
 * track — so the call is free to make unconditionally).
 */
uint32_t newTrack(const std::string &name);

/** The calling thread's current track id (0 = main). */
uint32_t currentTrack();

/**
 * Re-bind the calling thread to an existing track id (from an earlier
 * newTrack on this thread). Lets a persistent pool worker resume the
 * track it opened for a root region after interleaved work for other
 * regions, instead of churning out a fresh track per task. No-op when
 * disabled. @return the previous binding.
 */
uint32_t setTrack(uint32_t id);

/** Per-track aggregates, for metrics export and tests. */
struct TrackStats
{
    std::string name;
    uint64_t busyNs = 0;    ///< sum of top-level span durations
    uint64_t firstNs = 0;   ///< first top-level span start (epoch-rel)
    uint64_t lastNs = 0;    ///< last top-level span end (epoch-rel)

    /** The track's working extent (first span start to last span end). */
    uint64_t wallNs() const
    {
        return lastNs > firstNs ? lastNs - firstNs : 0;
    }
};

/** Snapshot of every track's aggregates, keyed by track id. */
std::map<uint32_t, TrackStats> trackStats();

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/**
 * RAII phase span. When any collector is enabled, the destructor
 * records a trace event on the current thread's track and feeds
 * `phase_ns.<phase>` / `span_ns.<phase>` metrics; top-level spans
 * (not nested inside another span on the same thread) additionally
 * accumulate the track's busy time.
 *
 * @p phase is the fixed phase vocabulary (static storage: "ff",
 * "capture", "restore", "warmup", "measure", "aggregate", "cache_io",
 * "store_io", "point", ...); @p name is the display label (defaults
 * to the phase). The const-char* overload performs no allocation, so
 * it is safe on allocation-guarded paths.
 */
class Span
{
  public:
    explicit Span(const char *phase, const char *name = nullptr);
    Span(const char *phase, std::string name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void begin();

    const char *phase_ = nullptr;
    const char *literal_ = nullptr;  ///< static name (no allocation)
    std::string name_;               ///< dynamic name (labeled spans)
    uint64_t startNs_ = 0;
    int depth_ = 0;
    bool active_ = false;
};

// ---------------------------------------------------------------------
// Trace artifact.
// ---------------------------------------------------------------------

/**
 * Render every recorded span as a `pbs-trace-v1` Chrome trace-event
 * JSON document (Perfetto / chrome://tracing loadable). Timestamps
 * are microseconds relative to enable() time.
 */
std::string traceJson();

/**
 * Write traceJson() to @p path. @return false on I/O failure (the
 * caller reports; the simulation result is unaffected either way).
 */
bool writeTrace(const std::string &path);

/** Number of span events recorded so far (tests/diagnostics). */
size_t traceEventCount();

}  // namespace pbs::obs

#endif  // PBS_OBS_OBS_HH
