#include "exp/cache.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/obs.hh"
#include "sampling/store.hh"
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

/**
 * Parse the cache document at @p path and check that it belongs to this
 * code version and to @p key: the key recomputed from the stored point
 * (and, for a partial, its interval index) must be @p key, so a file
 * copied or renamed under another key is a miss. @return the parsed
 * document in @p v, or false on any mismatch.
 */
bool
readOwnDocument(const std::string &path, const std::string &key,
                bool partial, JsonValue &v)
{
    std::string text;
    std::string err;
    if (!readFile(path, text) || !parseJson(text, v, err))
        return false;
    const JsonValue *salt = v.find("salt");
    if (!salt || salt->asString() != versionSalt())
        return false;
    const JsonValue *stored = v.find("point");
    ExpPoint pt;
    if (!stored || !readPoint(*stored, pt))
        return false;
    if (!partial)
        return cacheKey(pt) == key;
    const JsonValue *index = v.find("index");
    return index && partialKey(pt, index->asU64()) == key;
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
ResultCache::checkpointSetDir(const std::string &setHash) const
{
    return (fs::path(dir_) / "ckpt" / setHash).string();
}

bool
ResultCache::load(const std::string &key, PointKind kind,
                  Measurement &out) const
{
    if (!enabled())
        return false;
    obs::Span span("cache_io", "load");
    JsonValue v;
    if (!readOwnDocument(entryPath(key), key, false, v))
        return false;
    const JsonValue *result = v.find("result");
    return result && readMeasurement(*result, kind, out);
}

bool
ResultCache::store(const std::string &key, const ExpPoint &pt,
                   const Measurement &m) const
{
    if (!enabled())
        return false;
    obs::Span span("cache_io", "store");

    JsonWriter w;
    w.beginObject();
    w.key("salt").value(versionSalt());
    w.key("point");
    writePoint(w, pt);
    w.key("result");
    writeMeasurement(w, pt.kind, m);
    w.endObject();

    return util::publishFile(entryPath(key), w.str() + "\n");
}

bool
ResultCache::loadPartial(const std::string &key,
                         sampling::IntervalSample &out) const
{
    if (!enabled())
        return false;
    obs::Span span("cache_io", "load-partial");
    JsonValue v;
    if (!readOwnDocument(partialPath(key), key, true, v))
        return false;
    const JsonValue *sample = v.find("sample");
    return sample && readIntervalSample(*sample, out);
}

bool
ResultCache::storePartial(const std::string &key, const ExpPoint &pt,
                          uint64_t index,
                          const sampling::IntervalSample &s) const
{
    if (!enabled())
        return false;
    obs::Span span("cache_io", "store-partial");

    JsonWriter w;
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

    // Results and per-interval partials: one JSON file per entry, with
    // the salt embedded at the top level of either kind. A failed
    // directory_iterator construction (missing dir) yields the end
    // iterator, so a missing subdirectory simply contributes nothing.
    auto sweepFiles = [&](const fs::path &where) {
        std::error_code ec;
        for (const auto &entry : fs::directory_iterator(where, ec)) {
            if (!entry.is_regular_file())
                continue;
            const fs::path &path = entry.path();
            if (path.extension() != ".json" &&
                path.extension() != ".tmp") {
                continue;
            }
            // An in-flight writer's entry (or leftover .tmp) inside
            // the grace window is never touched — a concurrent
            // campaign may be mid-publish.
            if (withinGrace(path, graceSeconds, cutoff)) {
                r.kept++;
                continue;
            }

            bool stale = true;
            if (!all && path.extension() == ".json") {
                std::string text;
                JsonValue v;
                std::string err;
                if (readFile(path, text) && parseJson(text, v, err)) {
                    const JsonValue *s = v.find("salt");
                    stale = !s || s->asString() != salt;
                }
            }

            if (stale) {
                std::error_code rmEc;
                fs::remove(path, rmEc);
                if (!rmEc)
                    r.removed++;
            } else {
                r.kept++;
            }
        }
    };
    sweepFiles(dir_);
    sweepFiles(fs::path(dir_) / "partials");

    // Checkpoint sets: one directory per set, judged by the salt its
    // manifest records (sampling/store.hh pins it under key.salt). A
    // directory without a readable manifest is a dead capture — but
    // only outside the grace window, since a concurrent campaign
    // writes the manifest last.
    std::error_code ec;
    const fs::path ckptRoot = fs::path(dir_) / "ckpt";
    for (const auto &entry : fs::directory_iterator(ckptRoot, ec)) {
        if (!entry.is_directory())
            continue;
        // The directory mtime refreshes as checkpoint files land, so
        // an in-progress capture (manifest not yet written) is always
        // inside the grace window.
        const fs::path &setDir = entry.path();
        const fs::path manifest = setDir / sampling::kStoreManifest;
        if (withinGrace(setDir, graceSeconds, cutoff)) {
            r.kept++;
            continue;
        }

        bool stale = true;
        if (!all) {
            std::string text;
            JsonValue v;
            std::string err;
            if (readFile(manifest, text) && parseJson(text, v, err)) {
                const JsonValue *key = v.find("key");
                const JsonValue *s = key ? key->find("salt") : nullptr;
                stale = !s || s->asString() != salt;
            }
        }

        if (stale) {
            std::error_code rmEc;
            fs::remove_all(setDir, rmEc);
            if (!rmEc)
                r.removed++;
        } else {
            r.kept++;
        }
    }
    return r;
}

}  // namespace pbs::exp
