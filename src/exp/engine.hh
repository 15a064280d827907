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
 * Campaign mode (EngineConfig::campaign) reschedules sampled points
 * around their shared checkpoint sets: points are grouped by
 * checkpointStoreKey() — which deliberately excludes the predictor,
 * width, PBS knobs, and measure length — each group's set is captured
 * exactly once (or loaded from the cache's `ckpt/` store), and every
 * configuration in the group fans its warmup/measure intervals out
 * over the shared set. Per-interval IntervalSamples are persisted as
 * content-addressed cache partials, so an interrupted campaign resumes
 * with zero re-simulation and concurrent campaigns compose through the
 * shared cache. Results are byte-identical to the per-point path.
 *
 * A sharded campaign (EngineConfig::shardCount > 0) is the
 * cross-process fan-out: shard K of N measures only the intervals
 * i with i mod N == K-1, stores them as partials, and aggregates
 * nothing; an unsharded campaign over the same cache then assembles
 * every result from the partials with zero re-simulation.
 */

#ifndef PBS_EXP_ENGINE_HH
#define PBS_EXP_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/cache.hh"
#include "exp/point.hh"

namespace pbs::exp {

/** Engine construction options. */
struct EngineConfig
{
    std::string cacheDir;     ///< empty: in-memory memoization only
    unsigned jobs = 1;        ///< worker threads for runAll()
    bool progress = false;    ///< per-point progress lines on stderr
    bool campaign = false;    ///< group sampled points by ckpt set
    bool heartbeat = false;   ///< ~1 Hz done/total + ETA summary line

    /**
     * Campaign shard K of N (1-based; 0 = unsharded). A shard measures
     * and stores its slice of every sampled point's intervals and
     * produces no results; non-sampled points are left to the
     * unsharded run.
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
    uint64_t computed = 0;    ///< actually simulated
    uint64_t stored = 0;      ///< written to the result cache
    uint64_t storeFailed = 0; ///< cache writes that failed (I/O)

    // Campaign mode. The capture-once contract is captures ==
    // distinct StoreKeys among the scheduled points that were neither
    // memo/disk hits nor satisfied by a persisted set (ckptSetLoads).
    uint64_t campaignGroups = 0;   ///< distinct checkpoint StoreKeys
    uint64_t captures = 0;         ///< functional capture passes run
    uint64_t ckptSetLoads = 0;     ///< sets loaded from the cache
    uint64_t partialHits = 0;      ///< intervals reused from partials
    uint64_t partialComputed = 0;  ///< intervals actually measured
    uint64_t partialStored = 0;    ///< partials written to the cache
};

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

    /** Memo lookup/disk load; nullptr when the point needs computing. */
    const Measurement *lookup(const std::string &key,
                              const ExpPoint &pt);
    const Measurement &insert(const std::string &key, const ExpPoint &pt,
                              Measurement m, bool fromDisk);

    /** Cost-ordered point-at-a-time pool (the non-campaign path). */
    void runPool(std::vector<PendingPoint> jobs);

    /** Checkpoint-set-grouped scheduling for sampled Sim points. */
    void runCampaign(std::vector<PendingPoint> jobs);

    /** Count a failed cache write; warn on stderr the first time. */
    void noteStoreFailure(const char *what);

    /**
     * --progress heartbeat bookkeeping: runAll() seeds the totals from
     * the pending job list; every point completion calls
     * noteHeartbeat(cost), which emits a rate-limited (~1 Hz, plus the
     * final point) done/total + ETA line through the log sink. The ETA
     * extrapolates elapsed wall time over the remaining pointCost()
     * mass, so one huge tail point does not read as "almost done".
     */
    void armHeartbeat(const std::vector<PendingPoint> &jobs);
    void noteHeartbeat(uint64_t cost);

    EngineConfig cfg_;
    ResultCache cache_;
    EngineCounters counters_;
    std::mutex mutex_;
    std::unordered_map<std::string, Measurement> memo_;
    bool storeWarned_ = false;

    size_t hbTotal_ = 0;
    uint64_t hbTotalCost_ = 0;
    uint64_t hbStartNs_ = 0;
    std::atomic<size_t> hbDone_{0};
    std::atomic<uint64_t> hbDoneCost_{0};
    std::atomic<uint64_t> hbLastNs_{0};
};

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
