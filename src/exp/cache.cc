#include "exp/cache.hh"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/obs.hh"
#include "sampling/checkpoint.hh"
#include "util/hash.hh"
#include "util/publish.hh"

// Build-time generated salt (git describe + dirty-diff hash); absent
// when building outside the CMake tree.
#if __has_include("pbs_version.hh")
#include "pbs_version.hh"
#endif

namespace fs = std::filesystem;

namespace pbs::exp {

namespace {

/** Bump to invalidate every existing cache entry. */
constexpr int kCacheSchemaVersion = 1;

/** File extension of a checkpoint-set entry under `ckpt/`. */
constexpr const char *kSetExtension = ".pbsckpts";

bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return in.good() || in.eof();
}

constexpr CacheLoad kHit{CacheLoad::Hit};
constexpr CacheLoad kRejected{CacheLoad::Rejected};

/** Read the entry at @p path: Absent when there is no such file,
 *  Rejected when it exists but cannot be read. */
CacheLoad
readEntry(const fs::path &path, std::string &out)
{
    if (readFile(path, out))
        return kHit;
    std::error_code ec;
    return fs::exists(path, ec) ? kRejected : CacheLoad{};
}

/**
 * Parse the cache document at @p path and check that it belongs to this
 * code version and to @p key: the key recomputed from the stored point
 * (and, for a partial, its interval index) must be @p key, so a file
 * copied or renamed under another key is Rejected. @return the parsed
 * document in @p v on a Hit.
 */
CacheLoad
readOwnDocument(const std::string &path, const std::string &key,
                bool partial, util::JsonValue &v)
{
    std::string text;
    std::string err;
    if (const CacheLoad r = readEntry(path, text); !r)
        return r;
    if (!util::parseJson(text, v, err))
        return kRejected;
    const util::JsonValue *salt = v.find("salt");
    if (!salt || salt->asString() != versionSalt())
        return kRejected;
    const util::JsonValue *stored = v.find("point");
    ExpPoint pt;
    if (!stored || !readPoint(*stored, pt))
        return kRejected;
    if (!partial)
        return cacheKey(pt) == key ? kHit : kRejected;
    const util::JsonValue *index = v.find("index");
    return index && partialKey(pt, index->asU64()) == key ? kHit
                                                          : kRejected;
}

/** The first line of the file at @p path, without its newline. */
bool
readFirstLine(const fs::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    return in && std::getline(in, out);
}

/** Member @p k of @p obj as a u64 (0 when absent). */
uint64_t
u64Field(const util::JsonValue &obj, const char *k)
{
    const util::JsonValue *f = obj.find(k);
    return f ? f->asU64() : 0;
}

/** The checkpoint-set key stored in a set header's `key` object. */
StoreKey
readStoreKey(const util::JsonValue &v)
{
    auto str = [&](const char *k) {
        const util::JsonValue *f = v.find(k);
        return f ? f->asString() : std::string();
    };
    StoreKey key;
    key.workload = str("workload");
    key.variant = str("variant");
    key.scale = u64Field(v, "scale");
    key.seed = u64Field(v, "seed");
    key.maxInstructions = u64Field(v, "max_instructions");
    key.interval = u64Field(v, "interval");
    key.warmup = u64Field(v, "warmup");
    key.maxSamples = u64Field(v, "max_samples");
    key.salt = str("salt");
    return key;
}

/**
 * Whether a gc scan must spare @p path because it was modified within
 * the grace window before @p cutoff. Unreadable mtimes are spared too:
 * when in doubt, keep.
 */
bool
withinGrace(const fs::path &path, uint64_t graceSeconds,
            fs::file_time_type cutoff)
{
    if (graceSeconds == 0)
        return false;
    std::error_code ec;
    const fs::file_time_type mtime = fs::last_write_time(path, ec);
    if (ec)
        return true;
    return mtime >= cutoff;
}

}  // namespace

std::string
versionSalt()
{
#ifdef PBS_CODE_VERSION
    const char *code = PBS_CODE_VERSION;
#else
    const char *code = "unversioned";
#endif
    return std::string(code) + "/r" +
           std::to_string(workloads::registryVersion()) + "/s" +
           std::to_string(kCacheSchemaVersion);
}

std::string
cacheKey(const ExpPoint &pt)
{
    return contentHash(pointJson(pt) + "|" + versionSalt());
}

std::string
partialKey(const ExpPoint &pt, uint64_t index)
{
    return contentHash("partial|" +
                       pointJson(normalizedSamplePoint(pt)) + "|" +
                       std::to_string(index) + "|" + versionSalt());
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return (fs::path(dir_) / (key + ".json")).string();
}

std::string
ResultCache::partialPath(const std::string &key) const
{
    return (fs::path(dir_) / "partials" / (key + ".json")).string();
}

std::string
ResultCache::checkpointSetPath(const std::string &setHash) const
{
    return (fs::path(dir_) / "ckpt" / (setHash + kSetExtension)).string();
}

CacheLoad
ResultCache::load(const std::string &key, PointKind kind,
                  Measurement &out) const
{
    if (!enabled())
        return {};
    obs::Span span("cache_io", "load");
    util::JsonValue v;
    if (const CacheLoad r = readOwnDocument(entryPath(key), key, false, v);
        !r)
        return r;
    const util::JsonValue *result = v.find("result");
    return result && readMeasurement(*result, kind, out) ? kHit
                                                         : kRejected;
}

bool
ResultCache::store(const std::string &key, const ExpPoint &pt,
                   const Measurement &m) const
{
    if (!enabled())
        return false;
    obs::Span span("cache_io", "store");

    util::JsonWriter w;
    w.beginObject();
    w.key("salt").value(versionSalt());
    w.key("point");
    writePoint(w, pt);
    w.key("result");
    writeMeasurement(w, pt.kind, m);
    w.endObject();

    return util::publishFile(entryPath(key), w.str() + "\n");
}

CacheLoad
ResultCache::loadPartial(const std::string &key,
                         sampling::IntervalSample &out) const
{
    if (!enabled())
        return {};
    obs::Span span("cache_io", "load-partial");
    util::JsonValue v;
    if (const CacheLoad r = readOwnDocument(partialPath(key), key, true, v);
        !r)
        return r;
    const util::JsonValue *sample = v.find("sample");
    return sample && readIntervalSample(*sample, out) ? kHit : kRejected;
}

bool
ResultCache::storePartial(const std::string &key, const ExpPoint &pt,
                          uint64_t index,
                          const sampling::IntervalSample &s) const
{
    if (!enabled())
        return false;
    obs::Span span("cache_io", "store-partial");

    util::JsonWriter w;
    w.beginObject();
    w.key("salt").value(versionSalt());
    w.key("point");
    writePoint(w, normalizedSamplePoint(pt));
    w.key("index").value(index);
    w.key("sample");
    writeIntervalSample(w, s);
    w.endObject();

    return util::publishFile(partialPath(key), w.str() + "\n");
}

CacheLoad
ResultCache::loadCheckpointSet(const StoreKey &key,
                               sampling::CheckpointSet &out) const
{
    if (!enabled())
        return {};
    obs::Span span("store_io", "load-checkpoint-set");
    const std::string setHash = storeSetHash(key);
    std::string text;
    if (const CacheLoad r = readEntry(checkpointSetPath(setHash), text); !r)
        return r;
    const size_t eol = text.find('\n');
    util::JsonValue header;
    std::string err;
    if (eol == std::string::npos ||
        !util::parseJson(text.substr(0, eol), header, err))
        return kRejected;

    // Stale generations, then identity: the stored key must hash to the
    // name the set was looked up under.
    const util::JsonValue *salt = header.find("salt");
    const util::JsonValue *stored = header.find("key");
    if (!salt || salt->asString() != key.salt || !stored)
        return kRejected;
    const util::JsonValue *arch = stored->find("arch_version");
    if (!arch || arch->asU64() != cpu::kArchStateVersion)
        return kRejected;
    if (storeSetHash(readStoreKey(*stored)) != setHash)
        return kRejected;

    // The blob lengths must tile the payload exactly before anything is
    // decoded; the payload hash catches corruption that keeps lengths.
    const util::JsonValue *totals = header.find("totals");
    const util::JsonValue *blobs = header.find("blobs");
    const util::JsonValue *hash = header.find("hash");
    if (!totals || !hash || !blobs ||
        blobs->type != util::JsonValue::Type::Array || blobs->items.empty())
        return kRejected;
    const char *payload = text.data() + eol + 1;
    const uint64_t payloadBytes = text.size() - eol - 1;
    uint64_t remaining = payloadBytes;
    for (const util::JsonValue &b : blobs->items) {
        const uint64_t n = b.asU64(UINT64_MAX);
        if (n > remaining)
            return kRejected;
        remaining -= n;
    }
    if (remaining != 0 ||
        util::fnv1a128Hex(payload, payloadBytes) != hash->asString())
        return kRejected;

    sampling::CheckpointSet set;
    set.checkpoints.reserve(blobs->items.size());
    try {
        for (const util::JsonValue &b : blobs->items) {
            const auto *p = reinterpret_cast<const uint8_t *>(payload);
            const uint64_t n = b.asU64();
            set.checkpoints.push_back(
                sampling::Checkpoint::deserialize({p, p + n}).state);
            payload += n;
        }
    } catch (const std::exception &) {
        return kRejected;
    }
    set.finalState = std::move(set.checkpoints.back());
    set.checkpoints.pop_back();
    set.totals.instructions = u64Field(*totals, "instructions");
    set.totals.branches = u64Field(*totals, "branches");
    set.totals.probBranches = u64Field(*totals, "prob_branches");
    out = std::move(set);
    return kHit;
}

bool
ResultCache::storeCheckpointSet(const StoreKey &key,
                                const sampling::CheckpointSet &set) const
{
    if (!enabled())
        return false;
    obs::Span span("store_io", "store-checkpoint-set");

    // Payload: every interval's PBSCKPT1 blob in order, then the final
    // state's.
    std::string payload;
    std::vector<uint64_t> lengths;
    auto append = [&](const cpu::ArchState &state) {
        const std::vector<uint8_t> blob =
            sampling::Checkpoint{state}.serialize();
        payload.append(blob.begin(), blob.end());
        lengths.push_back(blob.size());
    };
    for (const cpu::ArchState &state : set.checkpoints)
        append(state);
    append(set.finalState);

    util::JsonWriter w;
    w.beginObject();
    w.key("salt").value(key.salt);
    w.key("key").raw(storeKeyJson(key));
    w.key("totals").beginObject();
    w.key("instructions").value(set.totals.instructions);
    w.key("branches").value(set.totals.branches);
    w.key("prob_branches").value(set.totals.probBranches);
    w.endObject();
    w.key("blobs").beginArray();
    for (uint64_t n : lengths)
        w.value(n);
    w.endArray();
    w.key("hash").value(util::fnv1a128Hex(payload));
    w.endObject();

    return util::publishFile(checkpointSetPath(storeSetHash(key)),
                             w.str() + "\n" + payload);
}

ResultCache::GcResult
ResultCache::gc(bool all, uint64_t graceSeconds) const
{
    GcResult r;
    if (!enabled())
        return r;

    const std::string salt = versionSalt();
    const fs::file_time_type cutoff =
        fs::file_time_type::clock::now() -
        std::chrono::seconds(graceSeconds);

    // Every entry kind is one file whose first line carries the salt it
    // was written under. A crashed writer's `.tmp`, an unparsable
    // entry, and a `ckpt/<hash>/` directory of the retired
    // one-file-per-checkpoint layout are stale. A failed
    // directory_iterator construction (missing dir) yields the end
    // iterator, so a missing subdirectory simply contributes nothing.
    const fs::path root(dir_);
    const fs::path ckptRoot = root / "ckpt";
    for (const fs::path &where : {root, root / "partials", ckptRoot}) {
        std::error_code ec;
        for (const auto &entry : fs::directory_iterator(where, ec)) {
            const fs::path &path = entry.path();
            const fs::path ext = path.extension();
            const bool oldSetDir =
                where == ckptRoot && entry.is_directory();
            const bool file =
                entry.is_regular_file() &&
                (ext == ".json" || ext == kSetExtension || ext == ".tmp");
            if (!oldSetDir && !file)
                continue;
            // Anything inside the grace window is never touched — a
            // concurrent campaign may be mid-publish.
            if (withinGrace(path, graceSeconds, cutoff)) {
                r.kept++;
                continue;
            }

            bool stale = true;
            if (!all && file && ext != ".tmp") {
                std::string line;
                util::JsonValue v;
                std::string err;
                if (readFirstLine(path, line) &&
                    util::parseJson(line, v, err)) {
                    const util::JsonValue *s = v.find("salt");
                    stale = !s || s->asString() != salt;
                }
            }

            if (stale) {
                std::error_code rmEc;
                fs::remove_all(path, rmEc);
                if (!rmEc)
                    r.removed++;
            } else {
                r.kept++;
            }
        }
    }
    return r;
}

}  // namespace pbs::exp
