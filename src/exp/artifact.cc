#include "exp/artifact.hh"

#include <cinttypes>
#include <cstdio>
#include <span>

#include "stats/stats.hh"
#include "stats/table.hh"

namespace pbs::exp {

namespace {

void
writeEntry(util::JsonWriter &w, const ExpPoint &pt, const Measurement &m)
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

/** The title line of one configuration's table in sweepTable(). */
std::string
configTitle(const ExpPoint &pt)
{
    std::string t = pt.workload + ", " + pt.predictor + ", pbs " +
                    pbsSetting(pt) + ", " + modeName(pt) + ", " +
                    pt.variant + (pt.wide ? ", 8-wide" : ", 4-wide") +
                    ", scale " + std::to_string(pt.scale);
    if (pt.mode == "sampled") {
        // The effective parameters, defaults resolved.
        const cpu::SampleParams sp = pointCoreConfig(pt).sample;
        t += ", sample " + std::to_string(sp.interval) + "/" +
             std::to_string(sp.warmup) + "/" + std::to_string(sp.measure);
    }
    return t;
}

/** Whether @p a and @p b differ at most in their seed. */
bool
sameConfig(ExpPoint a, const ExpPoint &b)
{
    a.seed = b.seed;
    return a == b;
}

std::string
output0(const Measurement &m)
{
    return m.outputs.empty() ? "-" : stats::TextTable::num(m.outputs[0], 5);
}

/** One configuration's seeds: rows plus the across-seed line. */
std::string
seedTable(std::span<const ExpPoint> seeds, Engine &engine)
{
    stats::TextTable table;
    stats::RunningStat ipc, mpki, steered;
    const bool sampled = engine.measure(seeds.front()).hasSampling;
    if (sampled) {
        table.header({"seed", "instructions", "samples", "detail%", "ipc",
                      "+/-95%", "mpki", "+/-95%", "output[0]"});
    } else {
        table.header({"seed", "instructions", "cycles", "ipc", "mpki",
                      "prob-branches", "steered", "output[0]"});
    }
    for (const ExpPoint &pt : seeds) {
        const Measurement &m = engine.measure(pt);
        const cpu::CoreStats &s = m.stats;
        if (sampled) {
            const sampling::SampleEstimate &e = m.sampling;
            const double detailPct = s.instructions
                ? 100.0 * double(e.detailedInstructions) /
                      double(s.instructions)
                : 0.0;
            ipc.push(e.ipc);
            mpki.push(e.mpki);
            table.row({std::to_string(pt.seed),
                       std::to_string(s.instructions),
                       e.exact ? "exact" : std::to_string(e.intervals),
                       stats::TextTable::num(detailPct, 1),
                       stats::TextTable::num(e.ipc, 3),
                       stats::TextTable::num(e.ipcCi95, 3),
                       stats::TextTable::num(e.mpki, 2),
                       stats::TextTable::num(e.mpkiCi95, 2), output0(m)});
            continue;
        }
        const double steeredFrac = s.probBranches
            ? double(s.steeredBranches) / double(s.probBranches) : 0.0;
        ipc.push(s.ipc());
        mpki.push(s.mpki());
        steered.push(steeredFrac);
        table.row({std::to_string(pt.seed), std::to_string(s.instructions),
                   std::to_string(s.cycles),
                   stats::TextTable::num(s.ipc(), 3),
                   stats::TextTable::num(s.mpki(), 2),
                   std::to_string(s.probBranches),
                   stats::TextTable::pct(steeredFrac), output0(m)});
    }

    std::string out = table.render();
    if (seeds.size() > 1) {
        char buf[160];
        if (sampled) {
            std::snprintf(buf, sizeof(buf),
                          "\n%zu seeds: ipc %.3f +/- %.3f, mpki %.2f +/- "
                          "%.2f (across-seed 95%% CI)\n",
                          seeds.size(), ipc.mean(), ipc.ci95HalfWidth(),
                          mpki.mean(), mpki.ci95HalfWidth());
        } else {
            std::snprintf(buf, sizeof(buf),
                          "\n%zu seeds: ipc %.3f +/- %.3f, mpki %.2f +/- "
                          "%.2f, steered %.1f%%\n",
                          seeds.size(), ipc.mean(), ipc.ci95HalfWidth(),
                          mpki.mean(), mpki.ci95HalfWidth(),
                          steered.mean() * 100.0);
        }
        out += buf;
    }
    return out;
}

}  // namespace

std::string
sweepJson(const std::vector<ExpPoint> &points, Engine &engine,
          const std::string &specEcho)
{
    util::JsonWriter w;
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
        out += util::canonicalDouble(m.stats.ipc()) + ',';
        out += util::canonicalDouble(m.stats.mpki()) + ',';
        u64(m.stats.branches);
        u64(m.stats.probBranches);
        u64(m.stats.mispredicts);
        u64(m.stats.regularMispredicts);
        u64(m.stats.probMispredicts);
        u64(m.stats.steeredBranches);
        u64(m.pbs.fetchSteered);
        u64(m.pbs.stallCycles);
        out += m.outputs.empty() ? ""
                                 : util::canonicalDouble(m.outputs[0]);
        out += ",,,";  // rand-only columns
        if (m.hasSampling) {
            out += ',' + std::to_string(m.sampling.intervals) + ',' +
                   util::canonicalDouble(m.sampling.ipcCi95) + ',' +
                   util::canonicalDouble(m.sampling.mpkiCi95) + '\n';
        } else {
            out += ",,,\n";
        }
    }
    return out;
}

std::string
sweepTable(const std::vector<ExpPoint> &points, Engine &engine)
{
    std::string out;
    for (size_t begin = 0; begin < points.size();) {
        size_t end = begin + 1;
        while (end < points.size() && sameConfig(points[end], points[begin]))
            end++;
        if (begin > 0)
            out += '\n';
        out += configTitle(points[begin]) + '\n';
        out += seedTable(std::span(points).subspan(begin, end - begin),
                         engine);
        begin = end;
    }
    return out;
}

std::string
runSummaryJson(const EngineCounters &counters, size_t points,
               uint64_t elapsedMs, const std::string &out,
               const std::string &csv)
{
    util::JsonWriter w;
    w.beginObject();
    w.key("schema").value("pbs-exp-summary-v1");
    w.key("points").value(uint64_t(points));
    w.key("computed").value(counters.computed);
    w.key("disk_hits").value(counters.diskHits);
    w.key("disk_rejected").value(counters.diskRejected);
    w.key("mem_hits").value(counters.memHits);
    w.key("stored").value(counters.stored);
    w.key("store_failed").value(counters.storeFailed);
    w.key("campaign_groups").value(counters.campaignGroups);
    w.key("captures").value(counters.captures);
    w.key("ckpt_set_loads").value(counters.ckptSetLoads);
    w.key("partial_hits").value(counters.partialHits);
    w.key("partial_computed").value(counters.partialComputed);
    w.key("partial_stored").value(counters.partialStored);
    w.key("stream_replays").value(counters.streamReplays);
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
