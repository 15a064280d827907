#include "sampling/store.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "obs/obs.hh"
#include "sampling/checkpoint.hh"
#include "util/hash.hh"
#include "util/json.hh"

namespace fs = std::filesystem;

namespace pbs::sampling {

namespace {

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error("checkpoint store: " + what);
}

std::string
checkpointFileName(size_t index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ckpt-%06zu.pbsckpt", index);
    return buf;
}

void
writeBlob(const fs::path &path, const std::vector<uint8_t> &blob)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fail("cannot write " + path.string());
    out.write(reinterpret_cast<const char *>(blob.data()),
              std::streamsize(blob.size()));
    out.close();  // surface flush errors (e.g. disk full) in good()
    if (!out.good())
        fail("error writing " + path.string());
}

std::vector<uint8_t>
readBlob(const fs::path &path, uint64_t expectedBytes)
{
    std::error_code ec;
    const uint64_t size = fs::file_size(path, ec);
    if (ec)
        fail("missing checkpoint file " + path.string());
    if (size != expectedBytes) {
        fail("truncated checkpoint file " + path.string() + " (" +
             std::to_string(size) + " of " +
             std::to_string(expectedBytes) + " bytes)");
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fail("missing checkpoint file " + path.string());
    std::vector<uint8_t> blob(static_cast<size_t>(expectedBytes));
    in.read(reinterpret_cast<char *>(blob.data()),
            std::streamsize(blob.size()));
    if (uint64_t(in.gcount()) != expectedBytes)
        fail("error reading " + path.string());
    return blob;
}

std::string
blobHash(const std::vector<uint8_t> &blob)
{
    return util::fnv1a128Hex(blob.data(), blob.size());
}

/** One manifest checkpoint entry: file name + integrity data. */
struct FileEntry
{
    std::string file;
    uint64_t instructions = 0;
    uint64_t bytes = 0;
    std::string hash;
};

void
writeFileEntry(util::JsonWriter &w, const FileEntry &e)
{
    w.beginObject();
    w.key("file").value(e.file);
    w.key("instructions").value(e.instructions);
    w.key("bytes").value(e.bytes);
    w.key("hash").value(e.hash);
    w.endObject();
}

FileEntry
readFileEntry(const util::JsonValue &v, const char *what)
{
    const util::JsonValue *file = v.find("file");
    const util::JsonValue *bytes = v.find("bytes");
    const util::JsonValue *hash = v.find("hash");
    if (!file || !bytes || !hash)
        fail(std::string("manifest ") + what + " entry is incomplete");
    FileEntry e;
    e.file = file->asString();
    if (const util::JsonValue *n = v.find("instructions"))
        e.instructions = n->asU64();
    e.bytes = bytes->asU64();
    e.hash = hash->asString();
    if (e.file.empty() ||
        e.file.find('/') != std::string::npos ||
        e.file.find("..") != std::string::npos)
        fail(std::string("manifest ") + what + " entry names an "
             "invalid file");
    return e;
}

/** Load + integrity-check one checkpoint file against its entry. */
cpu::ArchState
loadEntry(const fs::path &dir, const FileEntry &e)
{
    const std::vector<uint8_t> blob = readBlob(dir / e.file, e.bytes);
    if (blobHash(blob) != e.hash)
        fail("corrupt checkpoint file " + (dir / e.file).string() +
             " (content hash mismatch)");
    try {
        return Checkpoint::deserialize(blob).state;
    } catch (const std::invalid_argument &ex) {
        fail("malformed checkpoint file " + (dir / e.file).string() +
             ": " + ex.what());
    }
}

}  // namespace

std::string
storeKeyJson(const StoreKey &key)
{
    util::JsonWriter w;
    w.beginObject();
    w.key("workload").value(key.workload);
    w.key("variant").value(key.variant);
    w.key("scale").value(key.scale);
    w.key("seed").value(key.seed);
    w.key("max_instructions").value(key.maxInstructions);
    w.key("interval").value(key.interval);
    w.key("warmup").value(key.warmup);
    w.key("max_samples").value(key.maxSamples);
    w.key("arch_version").value(cpu::kArchStateVersion);
    w.key("salt").value(key.salt);
    w.endObject();
    return w.str();
}

std::string
storeSetHash(const StoreKey &key)
{
    return util::fnv1a128Hex(storeKeyJson(key));
}

SavedSet
saveCheckpointSet(const std::string &dir, const StoreKey &key,
                  const CheckpointSet &set)
{
    obs::Span span("store_io", "save-checkpoint-set");
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fail("cannot create directory " + dir);

    SavedSet saved;
    saved.setHash = storeSetHash(key);

    std::vector<FileEntry> entries;
    entries.reserve(set.checkpoints.size());
    for (size_t i = 0; i < set.checkpoints.size(); i++) {
        const std::vector<uint8_t> blob =
            Checkpoint{set.checkpoints[i]}.serialize();
        FileEntry e;
        e.file = checkpointFileName(i);
        e.instructions = set.checkpoints[i].instructions;
        e.bytes = blob.size();
        e.hash = blobHash(blob);
        writeBlob(fs::path(dir) / e.file, blob);
        entries.push_back(std::move(e));
        saved.files++;
        saved.bytes += blob.size();
    }

    const std::vector<uint8_t> finalBlob =
        Checkpoint{set.finalState}.serialize();
    FileEntry finalEntry;
    finalEntry.file = "final.pbsckpt";
    finalEntry.instructions = set.finalState.instructions;
    finalEntry.bytes = finalBlob.size();
    finalEntry.hash = blobHash(finalBlob);
    writeBlob(fs::path(dir) / finalEntry.file, finalBlob);
    saved.files++;
    saved.bytes += finalBlob.size();

    util::JsonWriter w;
    w.beginObject();
    w.key("schema").value(kStoreSchema);
    w.key("key").raw(storeKeyJson(key));
    w.key("set_hash").value(saved.setHash);
    w.key("totals").beginObject();
    w.key("instructions").value(set.totals.instructions);
    w.key("branches").value(set.totals.branches);
    w.key("prob_branches").value(set.totals.probBranches);
    w.endObject();
    w.key("final");
    writeFileEntry(w, finalEntry);
    w.key("checkpoints").beginArray();
    for (const auto &e : entries) {
        w.newline();
        writeFileEntry(w, e);
    }
    w.newline();
    w.endArray();
    w.endObject();
    w.newline();

    // Atomic publish: checkpoint payloads are already on disk, so a
    // readable manifest always names a complete set.
    const fs::path manifest = fs::path(dir) / kStoreManifest;
    const fs::path tmp = manifest.string() + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            fail("cannot write " + tmp.string());
        out << w.str();
        out.close();
        if (!out.good())
            fail("error writing " + tmp.string());
    }
    fs::rename(tmp, manifest, ec);
    if (ec) {
        fs::remove(tmp, ec);
        fail("cannot publish " + manifest.string());
    }

    // Only after the new manifest is live: drop checkpoint files a
    // previous, larger set left behind (the old manifest referenced
    // them until the rename, so deleting earlier would have risked a
    // broken set on a crash). Best-effort; loads ignore extras anyway.
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".pbsckpt")
            continue;
        const std::string name = entry.path().filename().string();
        if (name == finalEntry.file)
            continue;
        bool referenced = false;
        for (const auto &e : entries)
            referenced = referenced || e.file == name;
        if (!referenced) {
            std::error_code rmEc;
            fs::remove(entry.path(), rmEc);
        }
    }
    return saved;
}

CheckpointSet
loadCheckpointSet(const std::string &dir, const StoreKey &expect)
{
    obs::Span span("store_io", "load-checkpoint-set");
    const fs::path manifestPath = fs::path(dir) / kStoreManifest;
    std::ifstream in(manifestPath, std::ios::binary);
    if (!in)
        fail("no checkpoint set at " + dir + " (missing " +
             std::string(kStoreManifest) + ")");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());

    util::JsonValue v;
    std::string err;
    if (!util::parseJson(text, v, err))
        fail("unreadable manifest " + manifestPath.string() + ": " +
             err);

    const util::JsonValue *schema = v.find("schema");
    if (!schema || schema->asString() != kStoreSchema)
        fail("unknown manifest schema in " + manifestPath.string() +
             " (expected " + std::string(kStoreSchema) + ")");

    const util::JsonValue *key = v.find("key");
    if (!key)
        fail("manifest has no key object");

    // Salt and ArchState version first: they get precise messages
    // because they are the two ways a set goes stale under you.
    const std::string salt =
        key->find("salt") ? key->find("salt")->asString() : "";
    if (salt != expect.salt) {
        fail("code-version salt mismatch (set written under \"" + salt +
             "\", current \"" + expect.salt +
             "\"); re-save the checkpoint set");
    }
    const uint64_t archVersion =
        key->find("arch_version") ? key->find("arch_version")->asU64()
                                  : 0;
    if (archVersion != cpu::kArchStateVersion) {
        fail("ArchState version mismatch (set v" +
             std::to_string(archVersion) + ", current v" +
             std::to_string(cpu::kArchStateVersion) +
             "); re-save the checkpoint set");
    }

    StoreKey got;
    got.salt = salt;
    if (const auto *f = key->find("workload"))
        got.workload = f->asString();
    if (const auto *f = key->find("variant"))
        got.variant = f->asString();
    if (const auto *f = key->find("scale"))
        got.scale = f->asU64();
    if (const auto *f = key->find("seed"))
        got.seed = f->asU64();
    if (const auto *f = key->find("max_instructions"))
        got.maxInstructions = f->asU64();
    if (const auto *f = key->find("interval"))
        got.interval = f->asU64();
    if (const auto *f = key->find("warmup"))
        got.warmup = f->asU64();
    if (const auto *f = key->find("max_samples"))
        got.maxSamples = f->asU64();
    if (!(got == expect)) {
        fail("set was captured for a different run (" +
             storeKeyJson(got) + ", requested " + storeKeyJson(expect) +
             ")");
    }

    const util::JsonValue *setHash = v.find("set_hash");
    if (!setHash || setHash->asString() != storeSetHash(expect))
        fail("manifest set_hash does not match its key (manifest "
             "edited or corrupted)");

    const util::JsonValue *totals = v.find("totals");
    const util::JsonValue *finalEntry = v.find("final");
    const util::JsonValue *ckpts = v.find("checkpoints");
    if (!totals || !finalEntry || !ckpts ||
        ckpts->type != util::JsonValue::Type::Array)
        fail("manifest is missing totals/final/checkpoints");

    CheckpointSet set;
    auto u64 = [&](const char *k) {
        const util::JsonValue *f = totals->find(k);
        return f ? f->asU64() : 0;
    };
    set.totals.instructions = u64("instructions");
    set.totals.branches = u64("branches");
    set.totals.probBranches = u64("prob_branches");

    set.checkpoints.reserve(ckpts->items.size());
    for (const util::JsonValue &entry : ckpts->items) {
        set.checkpoints.push_back(
            loadEntry(dir, readFileEntry(entry, "checkpoint")));
    }
    set.finalState = loadEntry(dir, readFileEntry(*finalEntry, "final"));
    return set;
}

bool
tryLoadCheckpointSet(const std::string &dir, const StoreKey &expect,
                     CheckpointSet &out, std::string &error)
{
    try {
        out = loadCheckpointSet(dir, expect);
        return true;
    } catch (const std::exception &e) {
        error = e.what();
        return false;
    }
}

}  // namespace pbs::sampling
