#include "runner.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "cpu/core.hh"
#include "exp/cache.hh"
#include "exp/engine.hh"
#include "ledger.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "pace.hh"
#include "sampling/checkpoint.hh"
#include "sampling/functional.hh"
#include "sampling/sampled.hh"
#include "stats.hh"
#include "trace.hh"
#include "util/clock.hh"
#include "util/json.hh"
#include "util/task_pool.hh"
#include "workloads/common.hh"

namespace perfbench {

namespace fs = std::filesystem;
using pbs::exp::ExpPoint;
using pbs::exp::Measurement;
using pbs::util::monotonicNowNs;

namespace {

/** The paper's Fig. 7 geomean PBS gains (4-wide). */
constexpr double kPaperGainTournament = 0.09;
constexpr double kPaperGainTage = 0.067;

/** Setup repetitions per timed run (the median is reported). */
constexpr unsigned kSetupReps = 101;

/**
 * Nominal seconds per pass: a pass of any of the three jobs takes 4.5 to
 * 6 s on a quiet 4-vCPU host. A timed run makes seconds / kPassSeconds
 * passes, however fast the code is, so every commit is timed over the
 * same number of samples.
 */
constexpr double kPassSeconds = 5.0;

/** Ladder repetitions per rung in the traced run (the best counts). */
constexpr unsigned kLadderReps = 2;

volatile uint64_t setupSink = 0;

/**
 * One setup of a job: emit every point's program, predecode it, and
 * construct the engine its points run on (the detailed core; for
 * sampled points also the functional fast-forward engine).
 * @return elapsed host ns.
 */
uint64_t
setupOnce(const Job &job)
{
    const uint64_t t0 = monotonicNowNs();
    for (size_t i = 0; i < job.points.size(); i++) {
        const ExpPoint &pt = job.points[i];
        const uint64_t id = i + 1;
        const auto &b = pbs::workloads::benchmarkByName(pt.workload);
        pbs::isa::Program prog;
        {
            Span s("workloads.build", id, -1);
            prog = b.build(pbs::exp::pointParams(pt),
                           pbs::exp::variantFromName(pt.variant));
        }
        {
            Span s("isa.decode", id, -1);
            setupSink = setupSink + pbs::isa::DecodedImage::decode(prog).size();
        }
        const pbs::cpu::CoreConfig cfg = pbs::exp::pointCoreConfig(pt);
        if (pt.mode == "sampled") {
            Span s("sampling.construct", id, -1);
            pbs::sampling::FunctionalEngine fe(prog);
            setupSink = setupSink + fe.pc();
        }
        {
            Span s("cpu.construct", id, -1);
            pbs::cpu::Core core(prog, pt.mode == "sampled"
                                          ? pbs::sampling::detailedMeasureConfig(cfg)
                                          : cfg);
            setupSink = setupSink + core.pc();
        }
    }
    return monotonicNowNs() - t0;
}

/** What one closed-loop pass over a job produced. */
struct PassOutcome
{
    uint64_t wallNs = 0;              ///< sum of group walls (+ warm rerun)
    std::vector<uint64_t> groupNs;
    /** Sampled before every unit (group, then warm rerun) and at the end. */
    Pace pace;
    std::vector<Measurement> results;
    std::vector<std::string> errors;  ///< non-empty: the point threw

    // Campaign jobs only.
    uint64_t warmNs = 0;
    pbs::exp::EngineCounters cold, warm;
    std::vector<Measurement> warmResults;
    std::vector<std::string> warmErrors;

    /** Units of timed work: the groups, then a campaign's warm rerun. */
    size_t units() const { return pace.samples().size() - 1; }

    /** Unit @p u's host time rescaled to the reference speed. */
    double rescaledNs(size_t u) const
    {
        return pace.rescale(
            double(u < groupNs.size() ? groupNs[u] : warmNs), u);
    }

    double rescaledWallNs() const
    {
        double ns = 0;
        for (size_t u = 0; u < units(); u++)
            ns += rescaledNs(u);
        return ns;
    }
};

PassOutcome
runPass(const Job &job, const std::string &cacheDir)
{
    const size_t n = job.points.size();
    PassOutcome o;
    o.results.resize(n);
    o.errors.resize(n);
    o.groupNs.resize(job.groups.size());

    if (!job.campaign) {
        pbs::exp::Engine eng(pbs::exp::EngineConfig{});
        for (size_t g = 0; g < job.groups.size(); g++) {
            const size_t i = job.groups[g].front();
            o.pace.sample();
            Span s("exp.measure", i + 1, -1);
            const uint64_t t0 = monotonicNowNs();
            try {
                o.results[i] = eng.measure(job.points[i]);
            } catch (const std::exception &e) {
                o.errors[i] = e.what();
            }
            o.groupNs[g] = monotonicNowNs() - t0;
            o.wallNs += o.groupNs[g];
        }
        o.pace.sample();
        return o;
    }

    fs::remove_all(cacheDir);
    pbs::exp::EngineConfig cfg;
    cfg.cacheDir = cacheDir;
    cfg.jobs = job.jobs;
    cfg.campaign = true;
    pbs::exp::Engine eng(cfg);
    for (size_t g = 0; g < job.groups.size(); g++) {
        std::vector<ExpPoint> pts;
        for (size_t i : job.groups[g])
            pts.push_back(job.points[i]);
        std::string err;
        o.pace.sample();
        {
            Span s("exp.runAll", job.groups[g].front() + 1, -1);
            const uint64_t t0 = monotonicNowNs();
            try {
                eng.runAll(pts);
            } catch (const std::exception &e) {
                err = e.what();
            }
            o.groupNs[g] = monotonicNowNs() - t0;
        }
        o.wallNs += o.groupNs[g];
        for (size_t i : job.groups[g]) {
            if (err.empty())
                o.results[i] = eng.measure(job.points[i]);
            else
                o.errors[i] = err;
        }
    }
    o.cold = eng.counters();

    // Warm rerun from the same cache: every point must load from disk.
    o.warmResults.resize(n);
    o.warmErrors.resize(n);
    pbs::exp::Engine warm(cfg);
    o.pace.sample();
    {
        Span s("exp.warm_rerun", 0, -1);
        const uint64_t t0 = monotonicNowNs();
        try {
            warm.runAll(job.points);
        } catch (const std::exception &e) {
            for (auto &err : o.warmErrors)
                err = e.what();
        }
        o.warmNs = monotonicNowNs() - t0;
    }
    o.pace.sample();
    o.wallNs += o.warmNs;
    o.warm = warm.counters();  // before the memo reads below
    for (size_t i = 0; i < n; i++) {
        if (o.warmErrors[i].empty())
            o.warmResults[i] = warm.measure(job.points[i]);
    }
    return o;
}

/** Check one pass against the oracle; print the first mismatches. */
void
checkPass(const Job &job, const Oracle &oracle, const PassOutcome &o,
          FailTally &tally)
{
    std::vector<bool> ok(job.points.size(), true);
    unsigned reported = 0;
    auto fail = [&](size_t i, const std::string &why) {
        ok[i] = false;
        if (reported++ < 5) {
            std::fprintf(stderr, "perfbench: %s %s: %s\n", job.name.c_str(),
                         job.keys[i].c_str(), why.c_str());
        }
    };
    for (size_t i = 0; i < job.points.size(); i++) {
        auto it = oracle.find(oracleKey(job.name, job.keys[i]));
        if (it == oracle.end()) {
            fail(i, "no oracle record");
            continue;
        }
        if (!o.errors[i].empty()) {
            fail(i, "threw: " + o.errors[i]);
            continue;
        }
        std::string d = diffRecord(it->second, recordOf(o.results[i]));
        if (!d.empty()) {
            fail(i, d);
            continue;
        }
        if (!job.campaign)
            continue;
        if (!o.warmErrors[i].empty())
            fail(i, "warm rerun threw: " + o.warmErrors[i]);
        else if (!(d = diffRecord(it->second, recordOf(o.warmResults[i])))
                      .empty())
            fail(i, "warm rerun: " + d);
    }
    const uint64_t recomputed = job.campaign ? o.warm.computed : 0;
    if (recomputed)
        std::fprintf(stderr, "perfbench: warm rerun recomputed %llu points\n",
                     (unsigned long long)recomputed);
    tally.addPass(ok, recomputed);
}

/** Expected instruction count of every point (oracle, else measured). */
std::vector<uint64_t>
pointInstructions(const Job &job, const Oracle &oracle,
                  const PassOutcome &o)
{
    std::vector<uint64_t> insts(job.points.size());
    for (size_t i = 0; i < job.points.size(); i++) {
        auto it = oracle.find(oracleKey(job.name, job.keys[i]));
        insts[i] = it != oracle.end() ? it->second.stats.instructions
                                      : o.results[i].stats.instructions;
    }
    return insts;
}

Oracle
readOracle(const Options &opts, unsigned pool)
{
    Oracle oracle;
    std::string err;
    if (!loadOracle(oraclePath(opts.oracleDir, pool, opts.divisor != 1),
                    oracle, err))
        throw std::runtime_error(err);
    return oracle;
}

/**
 * The run's input set's sampled-campaign points, each with its stored
 * detailed reference. With @p live (the sampled-campaign job) a point's
 * estimate is the run's own; without it, the stored one.
 */
std::vector<Record>
sampledRecords(const Options &opts, unsigned pool, const Oracle &oracle,
               const PassOutcome *live)
{
    const Job sj = makeJob("sampled-campaign", pool, opts.divisor);
    std::vector<Record> out;
    for (size_t i = 0; i < sj.points.size(); i++) {
        auto it = oracle.find(oracleKey(sj.name, sj.keys[i]));
        if (it == oracle.end() || !it->second.hasReference)
            throw std::runtime_error("oracle lacks " + sj.keys[i]);
        Record r = it->second;
        if (live && live->errors[i].empty())
            r.estimate = live->results[i].sampling;
        out.push_back(r);
    }
    return out;
}

/** The input set a run uses (the quick scale stores set 0 only). */
unsigned
runPool(const Options &opts)
{
    return opts.divisor != 1 ? 0 : poolIndex(opts.seed);
}

std::string
cacheDirFor(const Options &opts, const char *what)
{
    return opts.scratchDir + "/perfbench-" + what + "-" +
           std::to_string(::getpid());
}

void
printGains(const Job &job, const std::vector<pbs::cpu::CoreStats> &stats)
{
    auto [tour, tage] = fig07Gains(job, stats);
    std::printf("fig07 geomean PBS gain: tournament %+.1f%% (paper %+.1f%%), "
                "tage-sc-l %+.1f%% (paper %+.1f%%); model error %+.1f / "
                "%+.1f points. The model is otherwise unvalidated against "
                "hardware.\n",
                tour * 100, kPaperGainTournament * 100, tage * 100,
                kPaperGainTage * 100, (tour - kPaperGainTournament) * 100,
                (tage - kPaperGainTage) * 100);
}

double
finite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

}  // namespace

Accuracy
accuracyOf(const std::vector<Record> &records)
{
    Accuracy a;
    for (const Record &r : records) {
        const double refIpc = r.reference.ipc();
        const double refMpki = r.reference.mpki();
        const double err = std::fabs(r.estimate.ipc - refIpc);
        a.ipcErrPct += refIpc > 0 ? 100.0 * err / refIpc : 0.0;
        a.mpkiAbsErr += std::fabs(r.estimate.mpki - refMpki);
        a.coverage += err <= r.estimate.ipcCi95 ? 1.0 : 0.0;
        a.points++;
    }
    if (a.points) {
        a.ipcErrPct /= double(a.points);
        a.mpkiAbsErr /= double(a.points);
        a.coverage /= double(a.points);
    }
    return a;
}

std::pair<double, double>
fig07Gains(const Job &job, const std::vector<pbs::cpu::CoreStats> &stats)
{
    // workload -> (predictor, pbs) -> IPCs over seeds
    std::map<std::string, std::map<std::pair<std::string, bool>,
                                   std::vector<double>>> ipc;
    for (size_t i = 0; i < job.points.size(); i++) {
        const ExpPoint &pt = job.points[i];
        ipc[pt.workload][{pt.predictor, pt.pbs}].push_back(stats[i].ipc());
    }
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0.0 : s / double(v.size());
    };
    auto gain = [&](const std::string &pred) {
        double logSum = 0;
        size_t n = 0;
        for (auto &[w, cells] : ipc) {
            const double off = mean(cells[{pred, false}]);
            const double on = mean(cells[{pred, true}]);
            if (off > 0 && on > 0) {
                logSum += std::log(on / off);
                n++;
            }
        }
        return n ? std::exp(logSum / double(n)) - 1.0 : 0.0;
    };
    return {gain("tournament"), gain("tage-sc-l")};
}

RunResult
runTimed(const Options &opts)
{
    const unsigned pool = runPool(opts);
    const Job job = makeJob(opts.workload, pool, opts.divisor);
    const Oracle oracle = readOracle(opts, pool);
    const std::string cacheDir = cacheDirFor(opts, "cache");

    // Each setup is rescaled by the pace sampled around it.
    std::vector<double> setupNs;
    Pace setupPace;
    setupPace.sample();
    for (unsigned r = 0; r < kSetupReps; r++) {
        setupNs.push_back(double(setupOnce(job)));
        setupPace.sample();
    }
    for (size_t r = 0; r < setupNs.size(); r++)
        setupNs[r] = setupPace.rescale(setupNs[r], r);

    // A fixed number of closed-loop passes, set by --seconds alone.
    const unsigned passCount =
        std::max(1u, unsigned(opts.seconds / kPassSeconds));
    std::vector<PassOutcome> passes;
    const uint64_t start = monotonicNowNs();
    for (unsigned p = 0; p < passCount; p++)
        passes.push_back(runPass(job, cacheDir));
    fs::remove_all(cacheDir);

    FailTally tally;
    for (const PassOutcome &o : passes)
        checkPass(job, oracle, o, tally);

    const std::vector<uint64_t> insts =
        pointInstructions(job, oracle, passes.front());
    uint64_t passInsts = 0;
    for (uint64_t n : insts)
        passInsts += n;
    // The host's speed drifts over minutes (other tenants) while little
    // time is stolen from it, so each unit of closed-loop work is
    // rescaled to the reference speed by the pace sampled just before
    // and just after it. Slow moments the pace misses only ever add
    // time, so each unit counts with its best rescaled time over the
    // run's passes: the job wall is the sum of those, and a point's host
    // ns per instruction is its group's best over the group's
    // instructions.
    auto best = [&](size_t unit) {
        double b = passes.front().rescaledNs(unit);
        for (const PassOutcome &o : passes)
            b = std::min(b, o.rescaledNs(unit));
        return b;
    };
    std::vector<double> pointNs(job.points.size());
    double bestWallNs = 0;
    for (size_t g = 0; g < job.groups.size(); g++) {
        uint64_t gi = 0;
        for (size_t i : job.groups[g])
            gi += insts[i];
        const double b = best(g);
        bestWallNs += b;
        for (size_t i : job.groups[g])
            pointNs[i] = b / double(std::max<uint64_t>(gi, 1));
    }
    if (job.campaign)
        bestWallNs += best(job.groups.size());
    const double wallS = bestWallNs / 1e9;

    // Measured on the sampled campaign; the other jobs run no sampled
    // point and report the stored figures of the same input set.
    const bool liveAccuracy = job.name == "sampled-campaign";
    const Accuracy acc = accuracyOf(sampledRecords(
        opts, pool, oracle, liveAccuracy ? &passes.front() : nullptr));

    std::vector<double> walls, rawWalls, paceNs;
    for (const PassOutcome &o : passes) {
        walls.push_back(o.rescaledWallNs());
        rawWalls.push_back(double(o.wallNs));
        paceNs.push_back(o.pace.medianNs());
    }
    const Quartiles wq = quartiles(walls);
    const Quartiles rq = quartiles(rawWalls);
    const Quartiles pq = quartiles(paceNs);
    std::printf("perfbench %s: seed %llu (input set %u), %zu points, "
                "%zu passes in %.1f s, %u setups\n",
                job.name.c_str(), (unsigned long long)opts.seed, pool,
                job.points.size(), passes.size(),
                double(monotonicNowNs() - start) / 1e9, kSetupReps);
    std::printf("host pace: reference kernel %.3f ms per pass (median; "
                "quartiles %.3f .. %.3f), %.3f ms over setups; %.3f ms is "
                "the reference speed\n",
                pq.q2 / 1e6, pq.q1 / 1e6, pq.q3 / 1e6,
                setupPace.medianNs() / 1e6, kReferenceNs / 1e6);
    std::printf("pass wall: measured median %.4f s (quartiles %.4f .. "
                "%.4f), rescaled median %.4f s (%.4f .. %.4f); job wall "
                "from each group's best rescaled pass %.4f s\n",
                rq.q2 / 1e9, rq.q1 / 1e9, rq.q3 / 1e9, wq.q2 / 1e9,
                wq.q1 / 1e9, wq.q3 / 1e9, wallS);
    std::printf("inst_ns over %zu points: p50 %.3f, p80 %.3f ns (p%u is the "
                "highest percentile with >= 10 points beyond it)\n",
                pointNs.size(), percentile(pointNs, 50),
                percentile(pointNs, 80),
                highestPercentileWithTail(pointNs.size(), 10));
    std::printf("sampled accuracy over %zu %s points: IPC error %.4f%%, "
                "MPKI error %.4f, 95%% CI coverage %.4f\n",
                acc.points, liveAccuracy ? "live" : "stored (oracle)",
                acc.ipcErrPct, acc.mpkiAbsErr, acc.coverage);
    std::printf("failed_frac %.6f (%llu of %llu point runs)\n",
                tally.failedFrac(), (unsigned long long)tally.failed,
                (unsigned long long)tally.attempted);
    if (job.name == "fig07-detailed") {
        std::vector<pbs::cpu::CoreStats> stats;
        for (const Measurement &m : passes.front().results)
            stats.push_back(m.stats);
        printGains(job, stats);
    }

    RunResult r;
    r.correct = tally.failed == 0;
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    r.metrics = {
        {"setup_s", median(setupNs) / 1e9, "s"},
        {"job_wall_s", wallS, "s"},
        {"sim_mips", double(passInsts) / wallS / 1e6, "MIPS"},
        {"inst_ns_p50", percentile(pointNs, 50), "ns"},
        {"inst_ns_p80", percentile(pointNs, 80), "ns"},
        {"peak_rss_mb", double(pbs::obs::peakRssKb()) / 1024.0, "MB"},
        {"ok_frac", tally.okFrac(), "frac"},
        {"sampled_ipc_err_pct", acc.ipcErrPct, "%"},
        {"sampled_mpki_abs_err", acc.mpkiAbsErr, "MPKI"},
        {"ci95_coverage", acc.coverage, "frac"},
    };
    return r;
}

RunResult
runTraced(const Options &opts)
{
    const unsigned pool = runPool(opts);
    const Job job = makeJob(opts.workload, pool, opts.divisor);
    const Oracle oracle = readOracle(opts, pool);
    const std::string cacheDir = cacheDirFor(opts, "cache");
    FailTally tally;
    std::vector<std::string> failures;

    // Untraced reference pass, then everything again under spans.
    PassOutcome plain = runPass(job, cacheDir);
    checkPass(job, oracle, plain, tally);

    Tracer::instance().enable();
    pbs::obs::Options obsOpts;
    obsOpts.metrics = true;
    pbs::obs::enable(obsOpts);
    pbs::pool::TaskPool::instance().resetCounters();

    setupOnce(job);
    PassOutcome traced = runPass(job, cacheDir);
    checkPass(job, oracle, traced, tally);
    fs::remove_all(cacheDir);

    // Worker utilization from the public obs snapshot (pool workers
    // exist only for multi-job work).
    pbs::pool::recordPoolMetrics();
    double busyNs = 0, wallNs = 0, steals = 0;
    {
        pbs::util::JsonValue snap;
        std::string err;
        if (pbs::util::parseJson(pbs::obs::metricsJson(), snap, err)) {
            if (const auto *w = snap.find("workers")) {
                for (const auto &[tid, t] : w->members) {
                    const auto *name = t.find("name");
                    if (!name || name->asString().find("worker") ==
                                     std::string::npos)
                        continue;
                    busyNs += double(t.find("busy_ns")->asU64());
                    wallNs += double(t.find("wall_ns")->asU64());
                }
            }
            if (const auto *p = snap.find("pool"))
                if (const auto *s = p->find("steals"))
                    steals = double(s->asU64());
        } else {
            failures.push_back("unreadable metrics snapshot: " + err);
        }
    }

    // Direct result-cache round trip of every point's measurement (only
    // the campaign uses the cache).
    const std::string storeDir = cacheDirFor(opts, "store");
    fs::remove_all(storeDir);
    if (job.campaign) {
        pbs::exp::ResultCache rc(storeDir);
        for (size_t i = 0; i < job.points.size(); i++) {
            const ExpPoint &pt = job.points[i];
            const std::string key = pbs::exp::cacheKey(pt);
            bool stored, loaded;
            Measurement back;
            {
                Span s("exp.cache_store", i + 1, -1);
                stored = rc.store(key, pt, traced.results[i]);
            }
            {
                Span s("exp.cache_load", i + 1, -1);
                loaded = rc.load(key, pt.kind, back);
            }
            if (!stored || !loaded || !(back == traced.results[i]))
                failures.push_back(job.keys[i] + ": cache round trip differs");
        }
    }
    fs::remove_all(storeDir);

    // Sampling phases through the public API, one checkpoint set at a
    // time, checked against what the campaign produced.
    uint64_t ckptBytes = 0, detailedInsts = 0, warmupInsts = 0;
    if (job.campaign) {
        pbs::pool::TaskPool::instance().configure(job.jobs);
        for (const auto &group : job.groups) {
            const ExpPoint &pt0 = job.points[group.front()];
            const auto &b = pbs::workloads::benchmarkByName(pt0.workload);
            const pbs::isa::Program prog =
                b.build(pbs::exp::pointParams(pt0),
                        pbs::exp::variantFromName(pt0.variant));
            pbs::sampling::CheckpointSet set;
            {
                Span s("sampling.capture", group.front() + 1, -1);
                set = pbs::sampling::captureCheckpoints(
                    prog, pbs::exp::pointCoreConfig(pt0));
            }
            {
                Span s("sampling.ckpt_roundtrip", group.front() + 1, -1);
                for (const auto &state : set.checkpoints) {
                    const std::vector<uint8_t> bytes =
                        pbs::sampling::Checkpoint{state}.serialize();
                    ckptBytes += bytes.size();
                    if (pbs::sampling::Checkpoint::deserialize(bytes)
                            .serialize() != bytes)
                        failures.push_back(pt0.workload +
                                           ": checkpoint round trip differs");
                }
            }
            for (size_t i : group) {
                const pbs::cpu::CoreConfig cfg =
                    pbs::exp::pointCoreConfig(job.points[i]);
                const pbs::cpu::CoreConfig det =
                    pbs::sampling::detailedMeasureConfig(cfg);
                const size_t n = set.checkpoints.size();
                std::vector<pbs::sampling::IntervalSample> samples(n);
                Span point("sampling.point", i + 1, -1);
                if (n >= 2) {
                    // Intervals run on pool workers: parent them
                    // explicitly under the fan-out span.
                    Span fan("util.parallelFor");
                    const int64_t parent = fan.index();
                    pbs::pool::TaskPool::instance().parallelFor(
                        n,
                        [&](size_t k) {
                            Span s("sampling.interval", i + 1, parent);
                            samples[k] = pbs::sampling::measureInterval(
                                prog, det, set.checkpoints[k],
                                cfg.sample.warmup, cfg.sample.measure);
                        },
                        "perfbench");
                }
                pbs::sampling::SampledRun run;
                bool aggregated = false;
                {
                    Span s("sampling.aggregate");
                    aggregated = n >= 2 && pbs::sampling::aggregateSamples(
                                               set.totals, set.finalState,
                                               samples, run);
                }
                if (!aggregated) {
                    Span s("sampling.exact");
                    run = pbs::sampling::runExactDetailed(prog, det);
                }
                for (const auto &smp : samples) {
                    if (smp.valid)
                        warmupInsts += smp.detailed - smp.instructions;
                }
                detailedInsts += run.est.detailedInstructions;
                const Measurement &m = traced.results[i];
                if (!(run.stats == m.stats) || !(run.est == m.sampling))
                    failures.push_back(job.keys[i] +
                                       ": sampling phases differ from "
                                       "the campaign");
            }
        }
    }

    // Fidelity ladder and replays: the first point of each workload.
    std::vector<LadderProgram> ladder;
    {
        std::map<std::string, bool> seen;
        for (size_t i = 0; i < job.points.size(); i++) {
            const ExpPoint &pt = job.points[i];
            if (seen[pt.workload])
                continue;
            seen[pt.workload] = true;
            LadderProgram lp;
            lp.point = pt;
            lp.point.pbs = false;
            lp.spanId = job.points.size() + ladder.size() + 1;
            lp.prog = pbs::workloads::benchmarkByName(pt.workload)
                          .build(pbs::exp::pointParams(pt),
                                 pbs::exp::variantFromName(pt.variant));
            ladder.push_back(std::move(lp));
        }
    }
    const LedgerResult led =
        runLedger(ladder, {"tournament", "tage-sc-l"},
                  opts.divisor != 1 ? 1 : kLadderReps);
    failures.insert(failures.end(), led.failures.begin(),
                    led.failures.end());

    if (job.campaign && traced.cold.captures != job.groups.size())
        failures.push_back("campaign captured " +
                           std::to_string(traced.cold.captures) +
                           " checkpoint sets, expected " +
                           std::to_string(job.groups.size()));

    // Steering: steered / probabilistic branches over PBS-on points.
    uint64_t steered = 0, probBranches = 0;
    for (size_t i = 0; i < job.points.size(); i++) {
        if (!job.points[i].pbs)
            continue;
        steered += traced.results[i].stats.steeredBranches;
        probBranches += traced.results[i].stats.probBranches;
    }

    const auto self = Tracer::instance().selfNsByName();
    auto selfMs = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : double(it->second) / 1e6;
    };

    const std::string spanPath = opts.scratchDir + "/perfbench-spans-" +
                                 job.name + "-" +
                                 std::to_string(opts.seed) + ".json";
    if (!Tracer::instance().write(spanPath))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     spanPath.c_str());

    const double plainS = plain.rescaledWallNs() / 1e9;
    const double tracedS = traced.rescaledWallNs() / 1e9;
    const double overheadS = tracedS - plainS;
    std::printf("perfbench %s traced: seed %llu (input set %u), %zu points, "
                "%zu ladder programs, %llu equality checks, %zu failed\n",
                job.name.c_str(), (unsigned long long)opts.seed, pool,
                job.points.size(), ladder.size(),
                (unsigned long long)led.checks, failures.size());
    std::printf("job_wall_s untraced %.4f, traced %.4f: tracing overhead "
                "%+.4f s; spans written to %s\n",
                plainS, tracedS, overheadS, spanPath.c_str());
    for (size_t k = 0; k < failures.size() && k < 10; k++)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     failures[k].c_str());

    RunResult r;
    r.correct = tally.failed == 0 && failures.empty();
    r.attempted = tally.attempted + led.checks;
    r.failed = tally.failed + failures.size();
    r.metrics = {
        {"workloads.build_ms", selfMs("workloads.build"), "ms"},
        {"isa.decode_ms", selfMs("isa.decode"), "ms"},
        {"sampling.func_ns_per_inst", led.funcNsPerInst, "ns"},
        {"cpu.bookkeeping_ns_per_inst", led.bookkeepingNsPerInst, "ns"},
        {"cpu.timing_ns_per_inst", led.timingNsPerInst, "ns"},
        {"bpred.ns_per_inst", led.bpredNsPerInst, "ns"},
    };
    for (const std::string &p : zooPredictors()) {
        auto it = led.nsPerBranch.find(p);
        r.metrics.push_back({"bpred." + p + ".ns_per_branch",
                             it == led.nsPerBranch.end() ? 0.0 : it->second,
                             "ns"});
    }
    const pbs::exp::EngineCounters &warm = traced.warm;
    r.metrics.insert(
        r.metrics.end(),
        {
            {"core.pbs_ns_per_inst", led.pbsNsPerInst, "ns"},
            {"core.steered_frac",
             probBranches ? double(steered) / double(probBranches) : 0.0,
             "frac"},
            {"mem.ns_per_access", led.memNsPerAccess, "ns"},
            {"mem.l1i_miss_rate", led.l1iMissRate, "frac"},
            {"mem.l1d_miss_rate", led.l1dMissRate, "frac"},
            {"mem.l2_miss_rate", led.l2MissRate, "frac"},
            {"sampling.capture_ms", selfMs("sampling.capture"), "ms"},
            {"sampling.interval_ms", selfMs("sampling.interval"), "ms"},
            {"sampling.aggregate_ms", selfMs("sampling.aggregate"), "ms"},
            {"sampling.detailed_insts", double(detailedInsts), "count"},
            {"sampling.warmup_frac",
             detailedInsts ? double(warmupInsts) / double(detailedInsts)
                           : 0.0,
             "frac"},
            {"sampling.ckpt_roundtrip_ms", selfMs("sampling.ckpt_roundtrip"),
             "ms"},
            {"sampling.ckpt_mb", double(ckptBytes) / 1e6, "MB"},
            {"exp.cache_store_ms", selfMs("exp.cache_store"), "ms"},
            {"exp.cache_load_ms", selfMs("exp.cache_load"), "ms"},
            {"exp.warm_rerun_ms", double(traced.warmNs) / 1e6, "ms"},
            {"exp.disk_hit_frac",
             warm.requested ? double(warm.diskHits) / double(warm.requested)
                            : 0.0,
             "frac"},
            {"exp.captures", double(traced.cold.captures), "count"},
            {"util.pool_busy_frac", wallNs > 0 ? busyNs / wallNs : 0.0,
             "frac"},
            {"util.pool_idle_ms", (wallNs - busyNs) / 1e6, "ms"},
            {"util.pool_steals", steals, "count"},
            {"trace.overhead_s", overheadS, "s"},
        });
    return r;
}

std::string
resultJson(const RunResult &r)
{
    pbs::util::JsonWriter w;
    w.beginObject();
    w.key("correct").value(r.correct);
    w.key("attempted").value(r.attempted);
    w.key("failed").value(r.failed);
    w.key("metrics").beginObject();
    for (const Metric &m : r.metrics) {
        w.key(m.name).beginObject();
        w.key("value").value(finite(m.value));
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

int
regenOracle(const std::string &dir, bool quick)
{
    const unsigned jobs =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    const unsigned divisor = quick ? 20 : 1;
    const unsigned pools = quick ? 1 : kOraclePool;
    fs::create_directories(dir);
    for (unsigned pool = 0; pool < pools; pool++) {
        Oracle oracle;
        for (const std::string &name : jobNames()) {
            const Job job = makeJob(name, pool, divisor);
            pbs::exp::EngineConfig cfg;
            cfg.jobs = jobs;
            cfg.campaign = job.campaign;
            pbs::exp::Engine eng(cfg);
            eng.runAll(job.points);
            std::vector<ExpPoint> refs;
            if (job.campaign) {
                for (const ExpPoint &pt : job.points)
                    refs.push_back(detailedReference(pt));
                eng.runAll(refs);
            }
            std::vector<pbs::cpu::CoreStats> stats;
            for (size_t i = 0; i < job.points.size(); i++) {
                Record rec = recordOf(eng.measure(job.points[i]));
                if (job.campaign) {
                    rec.hasReference = true;
                    rec.reference = eng.measure(refs[i]).stats;
                }
                stats.push_back(rec.stats);
                oracle[oracleKey(job.name, job.keys[i])] = rec;
            }
            if (name == "fig07-detailed") {
                std::printf("input set %u: ", pool);
                printGains(job, stats);
            }
        }
        const std::string path = oraclePath(dir, pool, quick);
        if (!saveOracle(path, oracle)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("wrote %s (%zu records)\n", path.c_str(), oracle.size());
        std::fflush(stdout);
    }
    return 0;
}

}  // namespace perfbench
