/**
 * @file
 * Content-addressed result cache under `.pbs-cache/`.
 *
 * Every entry is one file named by a 128-bit content hash of what it
 * depends on (for a result: canonical point JSON, workload-registry
 * version, code-version salt). Re-running a sweep therefore recomputes
 * only missing or invalidated points, and an interrupted sweep resumes
 * for free. Entries embed the salt they were written under so
 * `pbs_exp --gc` can prune the stale generations left behind by code
 * changes.
 *
 * Three entry kinds share the directory:
 *  - results (`<hash>.json` at the top level): one Measurement per
 *    ExpPoint, Sim and Rand alike;
 *  - per-interval partials (`partials/<hash>.json`): one integer
 *    IntervalSample of one sampled point at one interval index — the
 *    unit of work a durable campaign stores, resumes, and shares
 *    between processes (`pbs_exp --campaign --shard K/N`);
 *  - checkpoint sets (`ckpt/<set-hash>.pbsckpts`): one captured
 *    sampling::CheckpointSet per StoreKey, so a campaign captures each
 *    (workload, scale, seed, interval) once per code generation, ever.
 *    Line 1 is a canonical JSON header (salt, key, totals, blob
 *    lengths, payload hash); the PBSCKPT1 blobs of every interval and
 *    then the final state follow it, concatenated.
 *
 * Every entry is one file published atomically (util::publishFile), so
 * concurrent writers and readers of one entry never see a torn file,
 * and the first line of every entry carries the salt it was written
 * under. `gc()` prunes all three kinds when that salt is stale, but
 * spares anything modified within a caller-supplied grace window so a
 * gc running beside an in-flight campaign can never delete entries the
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
 * equal-parameter sweep (or a `pbs_exp --campaign --shard` run) share
 * partials.
 */
std::string partialKey(const ExpPoint &pt, uint64_t index);

/**
 * What a cache lookup found. Converts to true on a hit. A file that
 * exists but is not used — unreadable, written under another salt,
 * stored under a key its content does not hash to, or a corrupt
 * checkpoint set — is Rejected rather than Absent, so the engine can
 * count it (EngineCounters::diskRejected).
 */
struct CacheLoad
{
    enum Status : uint8_t { Hit, Absent, Rejected };
    Status status = Absent;

    operator bool() const { return status == Hit; }
};

/** Disk-backed result store. A copy is cheap (it is just the path). */
class ResultCache
{
  public:
    /** @p dir empty disables the cache (all lookups miss). */
    explicit ResultCache(std::string dir) : dir_(std::move(dir)) {}

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /**
     * Load the entry for @p key. @return Absent without a file (or a
     * cache); Rejected for a corrupt entry, one of another salt, or one
     * whose stored point does not hash to @p key (a file copied or
     * renamed under another point's key).
     */
    CacheLoad load(const std::string &key, PointKind kind,
                   Measurement &out) const;

    /**
     * Store @p m under @p key (atomic write-then-rename; the directory
     * is created on first store). @return false on I/O failure.
     */
    bool store(const std::string &key, const ExpPoint &pt,
               const Measurement &m) const;

    /**
     * Load the per-interval partial stored under @p key. A partial
     * whose stored point and index do not hash to @p key is Rejected,
     * like in load().
     */
    CacheLoad loadPartial(const std::string &key,
                          sampling::IntervalSample &out) const;

    /**
     * Store one per-interval partial (atomic, like store()). The point
     * and index are embedded and checked by loadPartial(). @return
     * false on I/O failure.
     */
    bool storePartial(const std::string &key, const ExpPoint &pt,
                      uint64_t index,
                      const sampling::IntervalSample &s) const;

    /**
     * Load the checkpoint set captured for @p key. Absent without a
     * file; Rejected for an unreadable file or header, a stale salt or
     * ArchState version, a stored key that does not hash to @p key's
     * set hash (any key field differs, or the file was copied under
     * another set's name), blob lengths that do not sum to the payload
     * size, a payload hash mismatch, or a blob that does not decode.
     * @p out is untouched unless it is a Hit.
     */
    CacheLoad loadCheckpointSet(const StoreKey &key,
                                sampling::CheckpointSet &out) const;

    /**
     * Store @p set as the set captured for @p key (atomic, like
     * store()). @return false on I/O failure.
     */
    bool storeCheckpointSet(const StoreKey &key,
                            const sampling::CheckpointSet &set) const;

    struct GcResult
    {
        uint64_t kept = 0;
        uint64_t removed = 0;
    };

    /**
     * Prune results, partials, and checkpoint sets written under a
     * different salt than the current one, plus anything unreadable,
     * leftover temp files, and `ckpt/<hash>/` directories of the
     * retired one-file-per-checkpoint layout.
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
    std::string checkpointSetPath(const std::string &setHash) const;

    std::string dir_;
};

/** The grace window `pbs_exp --gc` applies by default (seconds). */
inline constexpr uint64_t kDefaultGcGraceSeconds = 300;

}  // namespace pbs::exp

#endif  // PBS_EXP_CACHE_HH
