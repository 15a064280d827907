/**
 * @file
 * Persistent checkpoint store: an on-disk extension of the PBSCKPT1
 * checkpoint format, so a captured set outlives the process that
 * captured it. The experiment engine's campaign mode keeps one set per
 * checkpoint StoreKey under its cache directory, which lets campaigns
 * (and campaign shards) in other processes reuse it.
 *
 * A checkpoint set is a directory holding one `manifest.json` plus one
 * `ckpt-NNNNNN.pbsckpt` file per sampling interval and a
 * `final.pbsckpt` with the exact end-of-program state. The manifest
 * pins everything the set's contents depend on — workload identity
 * (name, variant, scale, seed, instruction cap), the capture-shaping
 * sampling parameters (interval, warmup, max-samples), the ArchState
 * layout version, and a caller-supplied code-version salt — and
 * content-hashes that key the same way the experiment cache keys its
 * entries, so a stale set can never be silently reused across code or
 * workload changes. Every checkpoint file additionally records its
 * byte length and FNV-1a content hash, so truncation or corruption is
 * detected before a single instruction replays.
 *
 * What is deliberately *not* in the key: the predictor, core width,
 * PBS knobs, and the per-interval `measure` length. Checkpoints are
 * purely architectural, so one captured set serves every detailed
 * configuration measured on top of it — capture once, fan out across
 * processes (and predictor sweeps) forever.
 *
 * On-disk manifest (canonical JSON, schema `pbs-ckpt-set-v1`):
 *
 *   { "schema": "pbs-ckpt-set-v1",
 *     "key": { workload, variant, scale, seed, max_instructions,
 *              interval, warmup, max_samples, arch_version, salt },
 *     "set_hash": <fnv1a-128 of the canonical key JSON>,
 *     "totals": { instructions, branches, prob_branches },
 *     "final": { file, instructions, bytes, hash },
 *     "checkpoints": [ { file, instructions, bytes, hash }, ... ] }
 */

#ifndef PBS_SAMPLING_STORE_HH
#define PBS_SAMPLING_STORE_HH

#include <cstdint>
#include <string>

#include "sampling/sampled.hh"

namespace pbs::sampling {

/** The checkpoint-set manifest schema tag. */
inline constexpr const char *kStoreSchema = "pbs-ckpt-set-v1";

/** The manifest file name inside a checkpoint-set directory. */
inline constexpr const char *kStoreManifest = "manifest.json";

/**
 * Everything a checkpoint set's contents depend on. Two runs with
 * equal keys capture bit-identical sets; any field difference yields a
 * different set hash and a load-time rejection.
 */
struct StoreKey
{
    std::string workload;
    std::string variant = "marked";
    uint64_t scale = 0;
    uint64_t seed = 0;
    uint64_t maxInstructions = 0;

    // Capture-shaping sampling parameters (measure is not one: it only
    // affects the detailed replay, never the captured states).
    uint64_t interval = 0;
    uint64_t warmup = 0;
    uint64_t maxSamples = 0;

    /** Code-version salt (the caller passes exp::versionSalt()). */
    std::string salt;

    bool operator==(const StoreKey &) const = default;
};

/** Canonical JSON of a key (fixed order; the set-hash input). */
std::string storeKeyJson(const StoreKey &key);

/** Content hash identifying the set a key describes (32 hex chars). */
std::string storeSetHash(const StoreKey &key);

/** What saveCheckpointSet wrote (for logging). */
struct SavedSet
{
    std::string setHash;
    uint64_t files = 0;  ///< checkpoint files incl. final.pbsckpt
    uint64_t bytes = 0;  ///< serialized checkpoint payload bytes
};

/**
 * Persist @p set under @p dir (created if needed; an existing set in
 * the directory is overwritten). Checkpoint files are written first
 * and the manifest last, atomically, so a directory with a readable
 * manifest always names a complete set.
 * @throws std::runtime_error on I/O failure.
 */
SavedSet saveCheckpointSet(const std::string &dir, const StoreKey &key,
                           const CheckpointSet &set);

/**
 * Load the checkpoint set under @p dir, validating it against
 * @p expect: manifest present and well-formed, schema known, salt /
 * ArchState version / every key field equal, and every checkpoint file
 * present with matching length and content hash.
 * @throws std::runtime_error with a precise reason on any mismatch,
 *         truncation, or corruption.
 */
CheckpointSet loadCheckpointSet(const std::string &dir,
                                const StoreKey &expect);

/**
 * Non-throwing loadCheckpointSet: a missing, stale, or corrupt set is
 * an expected cache miss for schedulers that fall back to capturing
 * (the exp engine's campaign mode). @return false with the rejection
 * reason in @p error; @p out is untouched on failure.
 */
bool tryLoadCheckpointSet(const std::string &dir, const StoreKey &expect,
                          CheckpointSet &out, std::string &error);

}  // namespace pbs::sampling

#endif  // PBS_SAMPLING_STORE_HH
