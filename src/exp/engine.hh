/**
 * @file
 * The experiment engine: runs grids of ExpPoints on the deterministic
 * thread pool, memoizes results in memory, and (optionally) persists
 * them in the content-addressed ResultCache.
 *
 * Scheduling is cost-aware — expensive points (large scale, timing
 * mode, wide core) start first so the pool drains without a long tail —
 * but results are keyed by point value, so artifacts and reports are
 * byte-identical for any jobs count and any schedule.
 *
 * Sampled points with one checkpointStoreKey() — which excludes the
 * predictor, width, PBS knobs and measure length — capture their set
 * once and fan every configuration's intervals out over it. A durable
 * sweep (EngineConfig::campaign) also keeps the set in the cache's
 * `ckpt/` store and every IntervalSample as a cache partial, so an
 * interrupted campaign resumes with zero re-simulation and concurrent
 * campaigns compose through the shared cache. Results are
 * byte-identical to computePoint(), which runs each point alone.
 *
 * A sharded campaign (EngineConfig::shardCount > 0) is the
 * cross-process fan-out: shard K of N measures only the intervals
 * i with i mod N == K-1, stores them as partials, and aggregates
 * nothing; an unsharded campaign over the same cache then assembles
 * every result from the partials with zero re-simulation.
 *
 * Direction streams (docs/architecture.md) serve mpki points that
 * differ only in the direction predictor: the first such point runs
 * and records its branch directions, and every later one with the
 * same directionStreamKey() replays them through its own predictor
 * instead of executing the program. measure() keeps the most recent
 * stream; runAll() runs each key's points as one task, the first
 * recording and the rest replaying. Results are byte-identical to
 * computePoint(), which never uses a stream.
 */

#ifndef PBS_EXP_ENGINE_HH
#define PBS_EXP_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/direction_stream.hh"
#include "exp/cache.hh"
#include "exp/point.hh"
#include "isa/program.hh"
#include "mem/memory.hh"

namespace pbs::exp {

/** Engine construction options. */
struct EngineConfig
{
    std::string cacheDir;     ///< empty: in-memory memoization only
    unsigned jobs = 1;        ///< worker threads for runAll()
    bool progress = false;    ///< per-point progress lines on stderr
    bool campaign = false;    ///< durable: persist ckpt sets, partials
    bool heartbeat = false;   ///< ~1 Hz done/total + ETA summary line

    /**
     * Campaign shard K of N (1-based; 0 = unsharded; read only with
     * campaign). A shard measures and stores its slice of every
     * sampled point's intervals and produces no results; non-sampled
     * points are left to the unsharded run.
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 0;
};

/** Cache/compute counters for one engine lifetime. */
struct EngineCounters
{
    uint64_t requested = 0;   ///< measure()/runAll() point lookups
    uint64_t memHits = 0;     ///< served from the in-memory memo
    uint64_t diskHits = 0;    ///< loaded from the result cache
    /** Cache files found but not used (unreadable, foreign salt, key
     *  mismatch, corrupt): results, partials and checkpoint sets. */
    uint64_t diskRejected = 0;
    uint64_t computed = 0;    ///< actually simulated
    uint64_t stored = 0;      ///< written to the result cache
    uint64_t storeFailed = 0; ///< cache writes that failed (I/O)

    // Checkpoint-set groups. The capture-once contract is captures ==
    // distinct StoreKeys among the scheduled points that were neither
    // memo/disk hits nor satisfied by a persisted set (ckptSetLoads).
    uint64_t campaignGroups = 0;   ///< distinct checkpoint StoreKeys
    uint64_t captures = 0;         ///< functional capture passes run
    uint64_t ckptSetLoads = 0;     ///< sets loaded from the cache
    uint64_t partialHits = 0;      ///< intervals reused from partials
    uint64_t partialComputed = 0;  ///< intervals actually measured
    uint64_t partialStored = 0;    ///< partials written to the cache

    /** Computed mpki points served by replaying a direction stream
     *  (also counted in computed). */
    uint64_t streamReplays = 0;
};

/**
 * What an engine keeps between the mpki points of one direction-stream
 * key: the stream the key's last full run recorded and that run's
 * predictor-independent results. An empty key holds nothing.
 */
struct StreamSlot
{
    std::string key;              ///< directionStreamKey(); empty: none
    cpu::DirectionStream stream;  ///< unusable if the path can't replay
    core::PbsStats pbs;
    std::vector<double> outputs;
};

/** A benchmark's outputs, read from a finished run's memory. */
using OutputsFn = std::vector<double> (*)(const mem::SparseMemory &);

/**
 * One mpki run of @p prog under @p cfg, whose direction-stream key is
 * @p key, served through @p slot:
 *  - the slot holds a usable stream of @p key: a replay, which
 *    executes nothing and takes the PBS counters and outputs from the
 *    slot (@p replayed is set);
 *  - it holds an unusable one: a plain run (recording the same path
 *    again would not make it replayable);
 *  - otherwise: a run that records its directions and leaves them,
 *    with its PBS counters and @p outputsOf outputs, in the slot.
 *    A run that throws leaves the slot empty.
 * The Measurement equals an unstreamed run's in every case.
 */
Measurement streamedRun(const isa::Program &prog,
                        const cpu::CoreConfig &cfg, const std::string &key,
                        OutputsFn outputsOf, StreamSlot &slot,
                        bool &replayed);

class Engine
{
  public:
    explicit Engine(EngineConfig cfg = {});

    /**
     * Result of one point: memo -> disk cache -> simulate (and
     * persist). References stay valid for the engine's lifetime.
     */
    const Measurement &measure(const ExpPoint &pt);

    /**
     * Warm every point of a grid, cost-ordered on the thread pool.
     * Subsequent measure() calls on these points are memo hits (except
     * in a sharded campaign, which only stores partials).
     */
    void runAll(const std::vector<ExpPoint> &points);

    const EngineCounters &counters() const { return counters_; }
    const ResultCache &cache() const { return cache_; }

    /** Compute a point directly, bypassing memo and cache. */
    static Measurement computePoint(const ExpPoint &pt);

  private:
    /** One deduplicated, cache-missing point awaiting computation. */
    struct PendingPoint
    {
        ExpPoint pt;
        std::string key;
        uint64_t cost = 0;
    };

    /** computePoint(), except that an mpki point is served through
     *  @p slot (streamedRun); counts the replays. */
    Measurement computeStreamed(const ExpPoint &pt, StreamSlot &slot);

    /** Memo lookup/disk load; nullptr when the point needs computing. */
    const Measurement *lookup(const std::string &key,
                              const ExpPoint &pt);
    const Measurement &insert(const std::string &key, const ExpPoint &pt,
                              Measurement m, bool fromDisk);

    /** The one scheduler: a cost-ordered pool of tasks, one point
     *  each, except that the points of one direction-stream key and
     *  the sampled points of one checkpoint set each form one task. */
    void runPool(std::vector<PendingPoint> jobs);

    /** One checkpoint set's task over jobs[group]: load or capture the
     *  set once, fan the (point, interval) gaps out, aggregate each
     *  point. */
    void runCheckpointSet(const std::vector<PendingPoint> &jobs,
                          const std::vector<size_t> &group);

    /** A campaign shard: only its interval slice is measured. */
    bool sharded() const { return cfg_.campaign && cfg_.shardCount; }

    /** Count @p r if the cache rejected a file it found. */
    void noteRejected(CacheLoad r);

    /** Count a failed cache write; warn on stderr the first time. */
    void noteStoreFailure(const char *what);

    /**
     * Progress: runAll() seeds the totals from the pending job list;
     * every point completion calls notePointDone(), which prints the
     * per-point line and the rate-limited (~1 Hz, plus the final point)
     * --progress done/total + ETA line through the log sink. The ETA
     * extrapolates elapsed wall time over the remaining pointCost()
     * mass, so one huge tail point does not read as "almost done".
     */
    void armProgress(const std::vector<PendingPoint> &jobs);
    void notePointDone(const PendingPoint &job);

    EngineConfig cfg_;
    ResultCache cache_;
    EngineCounters counters_;
    std::mutex mutex_;
    std::unordered_map<std::string, Measurement> memo_;
    bool storeWarned_ = false;
    StreamSlot slot_;  ///< measure()'s most recent stream (under mutex_)

    size_t hbTotal_ = 0;
    uint64_t hbTotalCost_ = 0;
    uint64_t hbStartNs_ = 0;
    std::atomic<size_t> hbDone_{0};
    std::atomic<uint64_t> hbDoneCost_{0};
    std::atomic<uint64_t> hbLastNs_{0};
};

/** A point's measurement and the wall times of its simulation. */
struct TimedRun
{
    Measurement result;
    double bestMs = 0.0;    ///< minimum over the repeats
    double medianMs = 0.0;  ///< median over the repeats
    double meanMs = 0.0;    ///< mean over the repeats

    /** Simulated MIPS at the best time (0 when nothing was timed). */
    double mips() const;
};

/**
 * Run a Sim point @p repeats times (at least once) on the engine its
 * mode selects, as Engine::computePoint does, and time only the
 * simulation: the detailed core (either fidelity) and the functional
 * engine from after program build and engine construction, a sampled
 * point over its whole sampled run (capture, intervals, aggregation)
 * after program build. Program build, predecode and table construction
 * are per-point constants, not per-instruction costs, so simulated MIPS
 * tracks the hot loops; a sampled run's per-interval core construction
 * and checkpointing are costs of the run itself. Never records or
 * replays a direction stream.
 * @throws std::invalid_argument for a Rand point.
 */
TimedRun timePoint(const ExpPoint &pt, unsigned repeats);

/** Relative cost estimate used for scheduling (big first). */
uint64_t pointCost(const ExpPoint &pt);

/**
 * Fold one engine lifetime's counters into the observability metrics
 * registry as `exp.*` counters (no-op unless --metrics is active).
 * Call once per engine, after its last runAll(): counters are
 * cumulative totals, and counterAdd sums across engines.
 */
void recordEngineMetrics(const EngineCounters &c);

}  // namespace pbs::exp

#endif  // PBS_EXP_ENGINE_HH
