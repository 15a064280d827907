#include "oracle.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.hh"

namespace perfbench {

using pbs::cpu::CoreStats;
using pbs::util::JsonValue;
using pbs::util::JsonWriter;

namespace {

constexpr const char *kStatNames[] = {
    "instructions", "cycles", "branches", "prob_branches",
    "mispredicts", "regular_mispredicts", "prob_mispredicts", "steered"};

uint64_t *
statField(CoreStats &s, size_t i)
{
    uint64_t *f[] = {&s.instructions, &s.cycles, &s.branches,
                     &s.probBranches, &s.mispredicts,
                     &s.regularMispredicts, &s.probMispredicts,
                     &s.steeredBranches};
    return f[i];
}

void
writeStats(JsonWriter &w, CoreStats s)
{
    w.beginArray();
    for (size_t i = 0; i < 8; i++)
        w.value(*statField(s, i));
    w.endArray();
}

bool
readStats(const JsonValue *v, CoreStats &out)
{
    if (!v || v->type != JsonValue::Type::Array || v->items.size() != 8)
        return false;
    for (size_t i = 0; i < 8; i++)
        *statField(out, i) = v->items[i].asU64();
    return true;
}

std::string
outputsHash(const std::vector<double> &outputs)
{
    std::string joined;
    for (double d : outputs)
        joined += pbs::util::canonicalDouble(d) + ",";
    return pbs::exp::contentHash(joined);
}

template <class T>
std::string
mismatch(const char *what, T want, T got)
{
    std::ostringstream os;
    os.precision(17);
    os << what << ": expected " << want << ", got " << got;
    return os.str();
}

}  // namespace

Record
recordOf(const pbs::exp::Measurement &m)
{
    Record r;
    r.stats = m.stats;
    r.outputs = outputsHash(m.outputs);
    r.hasEstimate = m.hasSampling;
    if (m.hasSampling)
        r.estimate = m.sampling;
    return r;
}

std::string
diffRecord(const Record &want, const Record &got)
{
    CoreStats a = want.stats, b = got.stats;
    for (size_t i = 0; i < 8; i++) {
        if (*statField(a, i) != *statField(b, i))
            return mismatch(kStatNames[i], *statField(a, i),
                            *statField(b, i));
    }
    if (want.outputs != got.outputs)
        return mismatch("outputs", want.outputs, got.outputs);
    if (want.hasEstimate != got.hasEstimate)
        return mismatch("has_estimate", want.hasEstimate, got.hasEstimate);
    if (!want.hasEstimate)
        return "";
    const auto &e = want.estimate, &g = got.estimate;
    if (e.intervals != g.intervals)
        return mismatch("intervals", e.intervals, g.intervals);
    if (e.ffInstructions != g.ffInstructions)
        return mismatch("ff_instructions", e.ffInstructions,
                        g.ffInstructions);
    if (e.detailedInstructions != g.detailedInstructions)
        return mismatch("detailed_instructions", e.detailedInstructions,
                        g.detailedInstructions);
    if (e.ipc != g.ipc)
        return mismatch("ipc", e.ipc, g.ipc);
    if (e.ipcCi95 != g.ipcCi95)
        return mismatch("ipc_ci95", e.ipcCi95, g.ipcCi95);
    if (e.mpki != g.mpki)
        return mismatch("mpki", e.mpki, g.mpki);
    if (e.mpkiCi95 != g.mpkiCi95)
        return mismatch("mpki_ci95", e.mpkiCi95, g.mpkiCi95);
    if (e.exact != g.exact)
        return mismatch("exact", e.exact, g.exact);
    return "";
}

std::string
oracleKey(const std::string &job, const std::string &point)
{
    return job + " " + point;
}

std::string
oraclePath(const std::string &dir, unsigned pool, bool quick)
{
    char name[32];
    std::snprintf(name, sizeof name, "%s-%02u.jsonl",
                  quick ? "quick" : "seed", pool);
    return dir + "/" + name;
}

bool
loadOracle(const std::string &path, Oracle &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open " + path;
        return false;
    }
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        lineNo++;
        if (line.empty())
            continue;
        JsonValue v;
        std::string perr;
        Record r;
        const JsonValue *job, *point;
        if (!pbs::util::parseJson(line, v, perr) ||
            !(job = v.find("job")) || !(point = v.find("point")) ||
            !readStats(v.find("stats"), r.stats) || !v.find("outputs")) {
            err = path + ":" + std::to_string(lineNo) + ": malformed record";
            return false;
        }
        r.outputs = v.find("outputs")->asString();
        if (const JsonValue *e = v.find("estimate")) {
            r.hasEstimate = true;
            auto u64 = [&](const char *k) {
                const JsonValue *f = e->find(k);
                return f ? f->asU64() : 0;
            };
            auto dbl = [&](const char *k) {
                const JsonValue *f = e->find(k);
                return f ? f->asDouble() : 0.0;
            };
            r.estimate.intervals = u64("intervals");
            r.estimate.ffInstructions = u64("ff_instructions");
            r.estimate.detailedInstructions = u64("detailed_instructions");
            r.estimate.ipc = dbl("ipc");
            r.estimate.ipcCi95 = dbl("ipc_ci95");
            r.estimate.mpki = dbl("mpki");
            r.estimate.mpkiCi95 = dbl("mpki_ci95");
            const JsonValue *x = e->find("exact");
            r.estimate.exact = x && x->asBool();
        }
        if (const JsonValue *ref = v.find("reference")) {
            if (!readStats(ref, r.reference)) {
                err = path + ":" + std::to_string(lineNo) +
                      ": malformed reference";
                return false;
            }
            r.hasReference = true;
        }
        out[oracleKey(job->asString(), point->asString())] = std::move(r);
    }
    return true;
}

bool
saveOracle(const std::string &path, const Oracle &oracle)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    for (const auto &[key, r] : oracle) {
        const size_t sp = key.find(' ');
        JsonWriter w;
        w.beginObject();
        w.key("job").value(key.substr(0, sp));
        w.key("point").value(key.substr(sp + 1));
        w.key("stats");
        writeStats(w, r.stats);
        w.key("outputs").value(r.outputs);
        if (r.hasEstimate) {
            const auto &e = r.estimate;
            w.key("estimate").beginObject();
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
        if (r.hasReference) {
            w.key("reference");
            writeStats(w, r.reference);
        }
        w.endObject();
        out << w.str() << "\n";
    }
    return bool(out);
}

}  // namespace perfbench
