#include "obs/manifest.hh"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

#include "util/clock.hh"
#include "util/hash.hh"
#include "util/json.hh"

namespace pbs::obs {

namespace {

struct Artifact
{
    std::string path;
    std::string schema;
    uint64_t bytes = 0;
    std::string fnv128;
};

struct ManifestState
{
    std::mutex mu;
    std::string binary;
    std::vector<std::string> argv;
    std::string salt;
    unsigned jobs = 0;
    uint64_t startNs = 0;
    std::vector<Artifact> artifacts;
};

ManifestState &
manifest()
{
    static ManifestState m;
    return m;
}

// Same pattern as detail::mode: one relaxed load keeps the disabled
// path free for every writer that calls manifestAddArtifact.
std::atomic<bool> gEnabled{false};

}  // namespace

void
manifestBegin(const char *binary, int argc, const char *const *argv)
{
    ManifestState &m = manifest();
    std::lock_guard<std::mutex> lk(m.mu);
    m.binary = binary;
    m.argv.clear();
    for (int i = 1; i < argc; i++)
        m.argv.push_back(argv[i]);
    m.startNs = util::monotonicNowNs();
}

void
manifestEnable()
{
    gEnabled.store(true, std::memory_order_relaxed);
}

bool
manifestEnabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

void
manifestSetSalt(const std::string &salt)
{
    ManifestState &m = manifest();
    std::lock_guard<std::mutex> lk(m.mu);
    m.salt = salt;
}

void
manifestSetJobs(unsigned jobs)
{
    ManifestState &m = manifest();
    std::lock_guard<std::mutex> lk(m.mu);
    m.jobs = jobs;
}

void
manifestAddArtifact(const std::string &path, const std::string &bytes,
                    const char *schema)
{
    if (!manifestEnabled())
        return;
    Artifact a;
    a.path = path;
    a.schema = schema ? schema : "";
    a.bytes = bytes.size();
    a.fnv128 = util::fnv1a128Hex(bytes.data(), bytes.size());
    ManifestState &m = manifest();
    std::lock_guard<std::mutex> lk(m.mu);
    m.artifacts.push_back(std::move(a));
}

size_t
manifestArtifactCount()
{
    ManifestState &m = manifest();
    std::lock_guard<std::mutex> lk(m.mu);
    return m.artifacts.size();
}

std::string
manifestJson()
{
    ManifestState &m = manifest();
    std::lock_guard<std::mutex> lk(m.mu);

    uint64_t wallNs =
        m.startNs ? util::monotonicNowNs() - m.startNs : 0;

    util::JsonWriter w;
    w.beginObject();
    w.key("schema").value("pbs-run-v1");
    w.key("binary").value(m.binary);
    w.key("argv").beginArray();
    for (const std::string &a : m.argv)
        w.value(a);
    w.endArray();
    w.key("code_salt").value(m.salt);
    w.key("jobs").value(m.jobs);
    w.key("wall_ms").value(wallNs / 1000000u);
    w.key("artifacts").beginArray();
    for (const Artifact &a : m.artifacts) {
        w.newline().beginObject();
        w.key("path").value(a.path);
        w.key("schema").value(a.schema);
        w.key("bytes").value(a.bytes);
        w.key("fnv128").value(a.fnv128);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
writeManifest(const std::string &path)
{
    std::string doc = manifestJson();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    bool ok = (n == doc.size());
    if (std::fclose(f) != 0)
        ok = false;
    return ok;
}

void
resetManifestForTest()
{
    ManifestState &m = manifest();
    std::lock_guard<std::mutex> lk(m.mu);
    gEnabled.store(false, std::memory_order_relaxed);
    m.binary.clear();
    m.argv.clear();
    m.salt.clear();
    m.jobs = 0;
    m.startNs = 0;
    m.artifacts.clear();
}

}  // namespace pbs::obs
