#include "exp/point.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/hash.hh"

namespace pbs::exp {

const char *
pbsSetting(const ExpPoint &pt)
{
    if (!pt.pbs)
        return "off";
    if (!pt.stallOnBusy)
        return "no-stall";
    if (!pt.contextSupport)
        return "no-context";
    if (!pt.constValGuard)
        return "no-guard";
    return "on";
}

std::string
modeName(const ExpPoint &pt)
{
    return pt.functional ? "mpki" : pt.mode;
}

uint64_t
resolvedScale(const workloads::BenchmarkDesc &b, unsigned divisor)
{
    return std::max<uint64_t>(1, b.defaultScale / divisor);
}

workloads::Variant
variantFromName(const std::string &name)
{
    if (name == "predicated")
        return workloads::Variant::Predicated;
    if (name == "cfd")
        return workloads::Variant::Cfd;
    return workloads::Variant::Marked;
}

ExecMode
execModeFromName(const std::string &name)
{
    if (name == "detailed")
        return ExecMode::Detailed;
    if (name == "functional")
        return ExecMode::Functional;
    if (name == "sampled")
        return ExecMode::Sampled;
    throw std::invalid_argument("unknown execution mode '" + name +
                                "' (expected detailed, functional or "
                                "sampled)");
}

void
writePoint(util::JsonWriter &w, const ExpPoint &pt)
{
    w.beginObject();
    w.key("kind").value(pt.kind == PointKind::Rand ? "rand" : "sim");
    w.key("workload").value(pt.workload);
    w.key("predictor").value(pt.predictor);
    w.key("variant").value(pt.variant);
    w.key("wide").value(pt.wide);
    w.key("mode").value(pt.mode);
    w.key("functional").value(pt.functional);
    w.key("pbs").value(pt.pbs);
    w.key("sample_interval").value(pt.sampleInterval);
    w.key("sample_warmup").value(pt.sampleWarmup);
    w.key("sample_measure").value(pt.sampleMeasure);
    w.key("stall").value(pt.stallOnBusy);
    w.key("context").value(pt.contextSupport);
    w.key("guard").value(pt.constValGuard);
    w.key("filter").value(pt.filterProb);
    w.key("btb_entries").value(pt.numBranches);
    w.key("in_flight").value(pt.inFlightLimit);
    w.key("scale").value(pt.scale);
    w.key("seed").value(pt.seed);
    w.endObject();
}

std::string
pointJson(const ExpPoint &pt)
{
    util::JsonWriter w;
    writePoint(w, pt);
    return w.str();
}

bool
readPoint(const util::JsonValue &v, ExpPoint &out)
{
    if (v.type != util::JsonValue::Type::Object)
        return false;
    out = ExpPoint{};
    const util::JsonValue *f;
    if ((f = v.find("kind")))
        out.kind = f->asString() == "rand" ? PointKind::Rand
                                           : PointKind::Sim;
    if ((f = v.find("workload")))
        out.workload = f->asString();
    if ((f = v.find("predictor")))
        out.predictor = f->asString(out.predictor);
    if ((f = v.find("variant")))
        out.variant = f->asString(out.variant);
    if ((f = v.find("wide")))
        out.wide = f->asBool();
    if ((f = v.find("mode")))
        out.mode = f->asString(out.mode);
    if ((f = v.find("functional")))
        out.functional = f->asBool();
    if ((f = v.find("pbs")))
        out.pbs = f->asBool();
    if ((f = v.find("sample_interval")))
        out.sampleInterval = f->asU64();
    if ((f = v.find("sample_warmup")))
        out.sampleWarmup = f->asU64();
    if ((f = v.find("sample_measure")))
        out.sampleMeasure = f->asU64();
    if ((f = v.find("stall")))
        out.stallOnBusy = f->asBool(true);
    if ((f = v.find("context")))
        out.contextSupport = f->asBool(true);
    if ((f = v.find("guard")))
        out.constValGuard = f->asBool(true);
    if ((f = v.find("filter")))
        out.filterProb = f->asBool();
    if ((f = v.find("btb_entries")))
        out.numBranches = unsigned(f->asU64());
    if ((f = v.find("in_flight")))
        out.inFlightLimit = unsigned(f->asU64());
    if ((f = v.find("scale")))
        out.scale = f->asU64();
    if ((f = v.find("seed")))
        out.seed = f->asU64();
    return !out.workload.empty();
}

cpu::CoreConfig
pointCoreConfig(const ExpPoint &pt)
{
    cpu::CoreConfig cfg = pt.wide ? cpu::CoreConfig::eightWide()
                                  : cpu::CoreConfig::fourWide();
    execModeFromName(pt.mode);  // refuse unknown modes
    if (pt.sampleInterval)
        cfg.sample.interval = pt.sampleInterval;
    if (pt.sampleWarmup)
        cfg.sample.warmup = pt.sampleWarmup;
    if (pt.sampleMeasure)
        cfg.sample.measure = pt.sampleMeasure;
    if (pt.functional)
        cfg.mode = cpu::SimMode::Functional;
    cfg.predictor = pt.predictor;
    cfg.pbsEnabled = pt.pbs;
    cfg.pbs.stallOnBusy = pt.stallOnBusy;
    cfg.pbs.contextSupport = pt.contextSupport;
    cfg.pbs.constValGuard = pt.constValGuard;
    cfg.filterProbFromPredictor = pt.filterProb;
    if (pt.numBranches)
        cfg.pbs.numBranches = pt.numBranches;
    if (pt.inFlightLimit)
        cfg.pbs.inFlightLimit = pt.inFlightLimit;
    return cfg;
}

workloads::WorkloadParams
pointParams(const ExpPoint &pt)
{
    workloads::WorkloadParams p;
    p.seed = pt.seed;
    p.scale = pt.scale;
    return p;
}

ExpPoint
normalizedSamplePoint(const ExpPoint &pt)
{
    if (pt.mode != "sampled")
        return pt;
    const cpu::SampleParams sp = pointCoreConfig(pt).sample;
    ExpPoint out = pt;
    out.sampleInterval = sp.interval;
    out.sampleWarmup = sp.warmup;
    out.sampleMeasure = sp.measure;
    return out;
}

StoreKey
checkpointStoreKey(const ExpPoint &pt, const std::string &salt)
{
    const cpu::CoreConfig cfg = pointCoreConfig(pt);
    StoreKey key;
    key.workload = pt.workload;
    key.variant = pt.variant;
    key.scale = pt.scale;
    key.seed = pt.seed;
    key.maxInstructions = cfg.maxInstructions;
    key.interval = cfg.sample.interval;
    key.warmup = cfg.sample.warmup;
    key.salt = salt;
    return key;
}

std::string
directionStreamKey(const ExpPoint &pt)
{
    if (pt.kind != PointKind::Sim || pt.mode != "detailed" ||
        !pt.functional)
        return {};
    ExpPoint path = pt;
    path.predictor.clear();
    path.filterProb = false;
    util::JsonWriter w;
    w.beginObject();
    w.key("point");
    writePoint(w, path);
    w.key("max_instructions").value(pointCoreConfig(pt).maxInstructions);
    w.endObject();
    return w.str();
}

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
    w.key("arch_version").value(cpu::kArchStateVersion);
    w.key("salt").value(key.salt);
    w.endObject();
    return w.str();
}

std::string
storeSetHash(const StoreKey &key)
{
    return contentHash(storeKeyJson(key));
}

namespace {

void
writeU64Field(util::JsonWriter &w, const char *k, uint64_t v)
{
    w.key(k).value(v);
}

}  // namespace

void
writeMeasurement(util::JsonWriter &w, PointKind kind, const Measurement &m)
{
    w.beginObject();
    if (kind == PointKind::Rand) {
        w.key("rand").beginObject();
        w.key("pass").value(m.randPass);
        w.key("weak").value(m.randWeak);
        w.key("fail").value(m.randFail);
        w.endObject();
        w.endObject();
        return;
    }

    const auto &s = m.stats;
    w.key("stats").beginObject();
    writeU64Field(w, "instructions", s.instructions);
    writeU64Field(w, "cycles", s.cycles);
    writeU64Field(w, "branches", s.branches);
    writeU64Field(w, "prob_branches", s.probBranches);
    writeU64Field(w, "mispredicts", s.mispredicts);
    writeU64Field(w, "regular_mispredicts", s.regularMispredicts);
    writeU64Field(w, "prob_mispredicts", s.probMispredicts);
    writeU64Field(w, "steered", s.steeredBranches);
    w.endObject();

    const auto &p = m.pbs;
    w.key("pbs").beginObject();
    writeU64Field(w, "fetch_steered", p.fetchSteered);
    writeU64Field(w, "fetch_stalled", p.fetchStalled);
    writeU64Field(w, "stall_cycles", p.stallCycles);
    writeU64Field(w, "fetch_bootstrap", p.fetchBootstrap);
    writeU64Field(w, "fetch_unsupported", p.fetchUnsupported);
    writeU64Field(w, "fetch_depth_limited", p.fetchDepthLimited);
    writeU64Field(w, "records_pushed", p.recordsPushed);
    writeU64Field(w, "records_dropped", p.recordsDropped);
    writeU64Field(w, "const_val_flushes", p.constValFlushes);
    writeU64Field(w, "context_clears", p.contextClears);
    writeU64Field(w, "entries_allocated", p.entriesAllocated);
    writeU64Field(w, "entries_evicted", p.entriesEvicted);
    w.endObject();

    if (m.hasSampling) {
        const auto &e = m.sampling;
        w.key("sampling").beginObject();
        w.key("intervals").value(e.intervals);
        w.key("ff_instructions").value(e.ffInstructions);
        w.key("detailed_instructions").value(e.detailedInstructions);
        w.key("ipc").value(e.ipc);
        w.key("ipc_ci95").value(e.ipcCi95);
        w.key("mpki").value(e.mpki);
        w.key("mpki_ci95").value(e.mpkiCi95);
        w.key("exact").value(e.exact);
        w.endObject();
    }

    w.key("outputs").beginArray();
    for (double d : m.outputs)
        w.value(d);
    w.endArray();
    w.endObject();
}

bool
readMeasurement(const util::JsonValue &v, PointKind kind, Measurement &out)
{
    if (v.type != util::JsonValue::Type::Object)
        return false;
    out = Measurement{};

    if (kind == PointKind::Rand) {
        const util::JsonValue *r = v.find("rand");
        if (!r)
            return false;
        const util::JsonValue *f;
        if ((f = r->find("pass")))
            out.randPass = unsigned(f->asU64());
        if ((f = r->find("weak")))
            out.randWeak = unsigned(f->asU64());
        if ((f = r->find("fail")))
            out.randFail = unsigned(f->asU64());
        return true;
    }

    const util::JsonValue *s = v.find("stats");
    const util::JsonValue *p = v.find("pbs");
    const util::JsonValue *o = v.find("outputs");
    if (!s || !p || !o || o->type != util::JsonValue::Type::Array)
        return false;

    auto u64 = [](const util::JsonValue *obj, const char *k) {
        const util::JsonValue *f = obj->find(k);
        return f ? f->asU64() : 0;
    };
    out.stats.instructions = u64(s, "instructions");
    out.stats.cycles = u64(s, "cycles");
    out.stats.branches = u64(s, "branches");
    out.stats.probBranches = u64(s, "prob_branches");
    out.stats.mispredicts = u64(s, "mispredicts");
    out.stats.regularMispredicts = u64(s, "regular_mispredicts");
    out.stats.probMispredicts = u64(s, "prob_mispredicts");
    out.stats.steeredBranches = u64(s, "steered");

    out.pbs.fetchSteered = u64(p, "fetch_steered");
    out.pbs.fetchStalled = u64(p, "fetch_stalled");
    out.pbs.stallCycles = u64(p, "stall_cycles");
    out.pbs.fetchBootstrap = u64(p, "fetch_bootstrap");
    out.pbs.fetchUnsupported = u64(p, "fetch_unsupported");
    out.pbs.fetchDepthLimited = u64(p, "fetch_depth_limited");
    out.pbs.recordsPushed = u64(p, "records_pushed");
    out.pbs.recordsDropped = u64(p, "records_dropped");
    out.pbs.constValFlushes = u64(p, "const_val_flushes");
    out.pbs.contextClears = u64(p, "context_clears");
    out.pbs.entriesAllocated = u64(p, "entries_allocated");
    out.pbs.entriesEvicted = u64(p, "entries_evicted");

    if (const util::JsonValue *e = v.find("sampling")) {
        out.hasSampling = true;
        out.sampling.intervals = u64(e, "intervals");
        out.sampling.ffInstructions = u64(e, "ff_instructions");
        out.sampling.detailedInstructions =
            u64(e, "detailed_instructions");
        auto dbl = [](const util::JsonValue *obj, const char *k) {
            const util::JsonValue *f = obj->find(k);
            return f ? f->asDouble() : 0.0;
        };
        out.sampling.ipc = dbl(e, "ipc");
        out.sampling.ipcCi95 = dbl(e, "ipc_ci95");
        out.sampling.mpki = dbl(e, "mpki");
        out.sampling.mpkiCi95 = dbl(e, "mpki_ci95");
        const util::JsonValue *x = e->find("exact");
        out.sampling.exact = x && x->asBool();
    }

    out.outputs.reserve(o->items.size());
    for (const auto &item : o->items)
        out.outputs.push_back(item.asDouble());
    return true;
}

void
writeIntervalSample(util::JsonWriter &w, const sampling::IntervalSample &s)
{
    w.beginObject();
    w.key("instructions").value(s.instructions);
    w.key("cycles").value(s.cycles);
    w.key("mispredicts").value(s.mispredicts);
    w.key("regular_mispredicts").value(s.regularMispredicts);
    w.key("prob_mispredicts").value(s.probMispredicts);
    w.key("steered").value(s.steered);
    w.key("detailed").value(s.detailed);
    w.key("valid").value(s.valid);
    w.endObject();
}

bool
readIntervalSample(const util::JsonValue &v, sampling::IntervalSample &out)
{
    if (v.type != util::JsonValue::Type::Object)
        return false;
    out = sampling::IntervalSample{};
    auto u64 = [&](const char *k) {
        const util::JsonValue *f = v.find(k);
        return f ? f->asU64() : 0;
    };
    out.instructions = u64("instructions");
    out.cycles = u64("cycles");
    out.mispredicts = u64("mispredicts");
    out.regularMispredicts = u64("regular_mispredicts");
    out.probMispredicts = u64("prob_mispredicts");
    out.steered = u64("steered");
    out.detailed = u64("detailed");
    const util::JsonValue *valid = v.find("valid");
    out.valid = valid && valid->asBool();
    return true;
}

std::string
contentHash(const std::string &data)
{
    return util::fnv1a128Hex(data);
}

}  // namespace pbs::exp
