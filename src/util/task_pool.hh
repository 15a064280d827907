/**
 * @file
 * The process-wide work-stealing fork-join scheduler behind every
 * fan-out site: sweep/campaign points (`exp::Engine`), per-interval
 * sampled-simulation tasks (`sampling::measureIntervals`) and bench
 * points (`bench::runBench`) all become tasks in one shared pool, so a
 * sweep whose tail is one huge sampled point decomposes into interval
 * tasks that fill otherwise-idle workers.
 *
 * Design rules:
 *
 *  - **Determinism is the hard contract.** parallelFor(n, body) only
 *    promises that body(i) runs exactly once for every i < n, on some
 *    thread, with a happens-before edge from the call to every body
 *    and from every body to the return. Callers write results into
 *    pre-allocated slots keyed by index; nothing the pool does (worker
 *    count, steal order, jitter) can change an artifact byte.
 *    tests/scheduler_test.cc pins this across --jobs {1,2,8}, both
 *    policies, and seeded steal jitter.
 *
 *  - **Chase-Lev deques, parlaylib-style fork/join.** Each worker owns
 *    a bounded lock-free deque: the owner pushes/pops at the bottom
 *    (LIFO), thieves steal from the top (FIFO — oldest task, i.e. the
 *    largest un-split range). parallelFor splits its range binarily:
 *    fork the right half, recurse into the left, then join — pop the
 *    fork back (it is always the bottommost entry, the structured-join
 *    invariant) or, if a thief took it, help by stealing elsewhere
 *    until it completes. All atomics are seq_cst: the deque is not a
 *    throughput bottleneck at our task granularity (points and
 *    intervals are milliseconds to seconds), and fence-free code is
 *    what ThreadSanitizer can actually verify.
 *
 *  - **Nested parallelism is the point.** A task may call parallelFor
 *    again; its sub-tasks land on the executing worker's own deque
 *    and are stolen like any others. jobs=1 (or Policy::Static inside
 *    a static region) degenerates to a plain serial loop on the
 *    calling thread.
 *
 *  - **Policy::Static is the old pool, kept as a reference.** It
 *    reproduces the pre-scheduler behavior — fresh threads per region,
 *    atomic-increment task claiming, serial nested fan-out — so tests
 *    can diff artifacts old-vs-new (`PBS_TASK_POOL=static` selects it
 *    at process start; setPolicy() programmatically).
 *
 * Observability: the caller's parallelFor is wrapped in a "task" span;
 * every stolen execution is wrapped in a "steal" span on the thief's
 * track; pool workers bind one obs track per (worker, root region)
 * via newTrack/setTrack so per-track busy/extent stays meaningful.
 * Scheduler tallies (steals, splits, ...) are schedule-dependent, so
 * they feed the volatile `pool` section of the metrics snapshot, never
 * the deterministic `counters` section.
 */

#ifndef PBS_UTIL_TASK_POOL_HH
#define PBS_UTIL_TASK_POOL_HH

#include <cstdint>
#include <functional>

namespace pbs::pool {

/** Scheduler selection (see file comment). */
enum class Policy {
    Steal,   ///< work-stealing fork-join pool (the default)
    Static,  ///< pre-scheduler reference: threads-per-region + index loop
};

/** Schedule-dependent tallies (volatile; never in artifacts). */
struct Counters
{
    uint64_t regions = 0;   ///< parallelFor roots entered
    uint64_t tasks = 0;     ///< leaf body invocations
    uint64_t splits = 0;    ///< forks pushed (task splits)
    uint64_t steals = 0;    ///< successful steals (incl. join helping)
    uint64_t overflow = 0;  ///< forks run inline because a deque was full
};

class TaskPool
{
  public:
    /** The process-wide pool. First call reads PBS_TASK_POOL. */
    static TaskPool &instance();

    /**
     * Set the worker budget: @p jobs total workers including the
     * calling thread (0 means hardware concurrency). Under
     * Policy::Steal this (re)spawns jobs-1 persistent workers. Call
     * only from the top level, never while a region is running.
     */
    void configure(unsigned jobs);

    /** The configured worker budget (>= 1). */
    unsigned jobs() const;

    /** Select the scheduler (top level only; respawns workers). */
    void setPolicy(Policy p);
    Policy policy() const;

    /**
     * Run body(0) .. body(n-1), each exactly once, potentially in
     * parallel, and return when all have finished. @p label names the
     * region for obs tracks/spans ("sweep", "sample", ...). The first
     * exception thrown by a body is rethrown here after every other
     * task has drained (later bodies may be skipped once a failure is
     * recorded — exactly-once still holds for started tasks).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &body,
                     const char *label);

    /**
     * Stress hook: before every steal attempt, sleep a pseudo-random
     * [0, maxMicros] microseconds drawn from a per-thread xorshift
     * stream seeded by @p seed. maxMicros == 0 disables (the default;
     * a disabled check costs one relaxed load on the steal path).
     * Perturbs steal order only — artifacts must not change a byte.
     */
    void setStealJitter(uint64_t seed, unsigned maxMicros);

    Counters counters() const;
    void resetCounters();

    /** Join all persistent workers (tests; configure() respawns). */
    void shutdown();

    ~TaskPool();
    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

  private:
    TaskPool();
};

/**
 * Fold the pool's counters into the metrics registry's volatile
 * `pool` section (pool.steals, pool.splits, ...). Call once, next to
 * the other record*Metrics calls, before writeMetrics().
 */
void recordPoolMetrics();

}  // namespace pbs::pool

#endif  // PBS_UTIL_TASK_POOL_HH
