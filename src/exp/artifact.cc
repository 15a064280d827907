#include "exp/artifact.hh"

#include <cinttypes>
#include <cstdio>

namespace pbs::exp {

namespace {

void
writeEntry(JsonWriter &w, const ExpPoint &pt, const Measurement &m)
{
    w.beginObject();
    w.key("point");
    writePoint(w, pt);
    w.key("result");
    writeMeasurement(w, pt.kind, m);
    if (pt.kind == PointKind::Sim) {
        // Convenience derived metrics (recomputable from the counters).
        w.key("derived").beginObject();
        w.key("ipc").value(m.stats.ipc());
        w.key("mpki").value(m.stats.mpki());
        w.key("regular_mpki").value(m.stats.regularMpki());
        w.endObject();
    }
    w.endObject();
}

}  // namespace

std::string
sweepJson(const std::vector<ExpPoint> &points, Engine &engine,
          const std::string &specEcho)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("pbs-sweep-v1");
    if (!specEcho.empty())
        w.key("spec").raw(specEcho);
    w.key("points").beginArray();
    for (const auto &pt : points) {
        w.newline();
        writeEntry(w, pt, engine.measure(pt));
    }
    w.newline();
    w.endArray();
    w.endObject();
    w.newline();
    return w.str();
}

std::string
sweepCsv(const std::vector<ExpPoint> &points, Engine &engine)
{
    std::string out =
        "kind,workload,predictor,variant,wide,mode,functional,pbs,"
        "stall,context,guard,filter,btb_entries,in_flight,scale,seed,"
        "instructions,cycles,ipc,mpki,branches,prob_branches,"
        "mispredicts,regular_mispredicts,prob_mispredicts,steered,"
        "fetch_steered,stall_cycles,output0,rand_pass,rand_weak,"
        "rand_fail,sample_intervals,ipc_ci95,mpki_ci95\n";

    char buf[64];
    auto u64 = [&](uint64_t v) {
        std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
        out += buf;
        out += ',';
    };
    for (const auto &pt : points) {
        const Measurement &m = engine.measure(pt);
        out += pt.kind == PointKind::Rand ? "rand," : "sim,";
        out += pt.workload + ',' + pt.predictor + ',' + pt.variant + ',';
        out += pt.wide ? "1," : "0,";
        out += pt.mode + ',';
        out += pt.functional ? "1," : "0,";
        out += pt.pbs ? "1," : "0,";
        out += pt.stallOnBusy ? "1," : "0,";
        out += pt.contextSupport ? "1," : "0,";
        out += pt.constValGuard ? "1," : "0,";
        out += pt.filterProb ? "1," : "0,";
        u64(pt.numBranches);
        u64(pt.inFlightLimit);
        u64(pt.scale);
        u64(pt.seed);
        if (pt.kind == PointKind::Rand) {
            out += ",,,,,,,,,,,,,";  // sim-only columns
            out += std::to_string(m.randPass) + ',' +
                   std::to_string(m.randWeak) + ',' +
                   std::to_string(m.randFail);
            out += ",,,\n";  // sampling-only columns
            continue;
        }
        u64(m.stats.instructions);
        u64(m.stats.cycles);
        out += canonicalDouble(m.stats.ipc()) + ',';
        out += canonicalDouble(m.stats.mpki()) + ',';
        u64(m.stats.branches);
        u64(m.stats.probBranches);
        u64(m.stats.mispredicts);
        u64(m.stats.regularMispredicts);
        u64(m.stats.probMispredicts);
        u64(m.stats.steeredBranches);
        u64(m.pbs.fetchSteered);
        u64(m.pbs.stallCycles);
        out += m.outputs.empty() ? ""
                                 : canonicalDouble(m.outputs[0]);
        out += ",,,";  // rand-only columns
        if (m.hasSampling) {
            out += ',' + std::to_string(m.sampling.intervals) + ',' +
                   canonicalDouble(m.sampling.ipcCi95) + ',' +
                   canonicalDouble(m.sampling.mpkiCi95) + '\n';
        } else {
            out += ",,,\n";
        }
    }
    return out;
}

std::string
runSummaryJson(const EngineCounters &counters, size_t points,
               uint64_t elapsedMs, const std::string &out,
               const std::string &csv)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("pbs-exp-summary-v1");
    w.key("points").value(uint64_t(points));
    w.key("computed").value(counters.computed);
    w.key("disk_hits").value(counters.diskHits);
    w.key("mem_hits").value(counters.memHits);
    w.key("stored").value(counters.stored);
    w.key("store_failed").value(counters.storeFailed);
    w.key("campaign_groups").value(counters.campaignGroups);
    w.key("captures").value(counters.captures);
    w.key("ckpt_set_loads").value(counters.ckptSetLoads);
    w.key("partial_hits").value(counters.partialHits);
    w.key("partial_computed").value(counters.partialComputed);
    w.key("partial_stored").value(counters.partialStored);
    w.key("elapsed_ms").value(elapsedMs);
    if (!out.empty())
        w.key("out").value(out);
    if (!csv.empty())
        w.key("csv").value(csv);
    w.endObject();
    w.newline();
    return w.str();
}

}  // namespace pbs::exp
