/**
 * @file
 * Content-addressed result cache under `.pbs-cache/`.
 *
 * Every entry is one JSON file named by a 128-bit content hash of
 * (canonical point JSON, workload-registry version, code-version salt).
 * Re-running a sweep therefore recomputes only missing or invalidated
 * points, and an interrupted sweep resumes for free. Entries embed the
 * salt they were written under so `pbs_exp --gc` can prune the stale
 * generations left behind by code changes.
 *
 * Three entry kinds share the directory:
 *  - results (`<hash>.json` at the top level): one Measurement per
 *    ExpPoint, Sim and Rand alike;
 *  - per-interval partials (`partials/<hash>.json`): one integer
 *    IntervalSample of one sampled point at one interval index — the
 *    unit of work campaign scheduling computes, resumes, and shares
 *    between processes (`pbs_exp --campaign --shard K/N`);
 *  - checkpoint sets (`ckpt/<set-hash>/`): persistent checkpoint
 *    stores (sampling/store.hh) keyed by their own salted manifest, so
 *    a campaign captures each (workload, scale, seed, interval) once
 *    per code generation, ever.
 *
 * `gc()` prunes all three kinds when their salt is stale, but spares
 * anything modified within a caller-supplied grace window so a gc
 * running beside an in-flight campaign can never delete entries the
 * campaign just wrote.
 */

#ifndef PBS_EXP_CACHE_HH
#define PBS_EXP_CACHE_HH

#include <cstdint>
#include <string>

#include "exp/point.hh"

namespace pbs::exp {

/** Default cache directory, relative to the working directory. */
inline const char *kDefaultCacheDir = ".pbs-cache";

/**
 * The invalidation salt: code version (git describe, baked in at
 * configure time) + workload registry version + cache schema version.
 */
std::string versionSalt();

/** The cache key of a point under the current salt. */
std::string cacheKey(const ExpPoint &pt);

/**
 * The cache key of one per-interval partial: the *normalized* point
 * (effective sampling parameters), the interval index, and the current
 * salt. Normalization lets a default-parameter sweep and an explicit
 * equal-parameter sweep (or a `pbs_sim --shard` run merged through the
 * cache) share partials.
 */
std::string partialKey(const ExpPoint &pt, uint64_t index);

/** Disk-backed result store. A copy is cheap (it is just the path). */
class ResultCache
{
  public:
    /** @p dir empty disables the cache (all lookups miss). */
    explicit ResultCache(std::string dir) : dir_(std::move(dir)) {}

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** Load the entry for @p key; @return false on miss/corruption. */
    bool load(const std::string &key, PointKind kind,
              Measurement &out) const;

    /**
     * Store @p m under @p key (atomic write-then-rename; the directory
     * is created on first store). @return false on I/O failure.
     */
    bool store(const std::string &key, const ExpPoint &pt,
               const Measurement &m) const;

    /** Load the per-interval partial stored under @p key. */
    bool loadPartial(const std::string &key,
                     sampling::IntervalSample &out) const;

    /**
     * Store one per-interval partial (atomic, like store()). The point
     * and index are embedded for gc/debugging; identity lives in the
     * key. @return false on I/O failure.
     */
    bool storePartial(const std::string &key, const ExpPoint &pt,
                      uint64_t index,
                      const sampling::IntervalSample &s) const;

    /** Directory a persisted checkpoint set for @p setHash lives in. */
    std::string checkpointSetDir(const std::string &setHash) const;

    struct GcResult
    {
        uint64_t kept = 0;
        uint64_t removed = 0;
    };

    /**
     * Prune results, partials, and checkpoint sets written under a
     * different salt than the current one (plus anything unreadable).
     * @p all wipes every entry. Entries modified within the last
     * @p graceSeconds are always kept: a gc running beside an
     * in-flight campaign must never delete what the campaign is
     * writing (`pbs_exp --gc` defaults to kDefaultGcGraceSeconds;
     * pass 0 to prune unconditionally).
     */
    GcResult gc(bool all = false, uint64_t graceSeconds = 0) const;

  private:
    std::string entryPath(const std::string &key) const;
    std::string partialPath(const std::string &key) const;

    std::string dir_;
};

/** The grace window `pbs_exp --gc` applies by default (seconds). */
inline constexpr uint64_t kDefaultGcGraceSeconds = 300;

}  // namespace pbs::exp

#endif  // PBS_EXP_CACHE_HH
