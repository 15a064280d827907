#include "exp/engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

#include "cpu/core.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/sink.hh"
#include "randtest/battery.hh"
#include "sampling/functional.hh"
#include "util/clock.hh"
#include "util/task_pool.hh"

namespace pbs::exp {

namespace {

/**
 * Pull the uniform-value stream out of a finished trace run, in
 * generation order (original code) or PBS consumption order — the
 * Table III protocol (paper Sec. VII-E).
 */
std::vector<double>
extractUniformStream(const cpu::Core &core,
                     const workloads::BenchmarkDesc &b,
                     bool consumedOrder)
{
    std::vector<double> out;
    const unsigned k = b.uniformsPerInstance;
    for (const auto &e : core.probTrace()) {
        uint64_t seq = consumedOrder ? e.consumedSeq : e.selfSeq;
        uint64_t base = workloads::traceRegion(e.probId) +
                        seq * uint64_t(k) * 8;
        for (unsigned j = 0; j < k; j++)
            out.push_back(core.memory().readDouble(base + j * 8));
    }
    return out;
}

/**
 * Run @p region, timing it into @p ms when that is non-null; untimed
 * runs read no clock.
 */
template <class Region>
void
timed(double *ms, Region &&region)
{
    const uint64_t t0 = ms ? util::monotonicNowNs() : 0;
    region();
    if (ms)
        *ms = util::nsToMs(util::monotonicNowNs() - t0);
}

/**
 * A run of @p prog on the detailed core (either fidelity), recording
 * its branch directions into @p capture when that is non-null and
 * timing core.run() into @p simMs when that is non-null.
 */
Measurement
runCore(const isa::Program &prog, const cpu::CoreConfig &cfg,
        OutputsFn outputsOf, cpu::DirectionStream *capture,
        double *simMs = nullptr)
{
    obs::Span span("measure", "detailed");
    cpu::Core core(prog, cfg);
    core.recordDirections(capture);
    timed(simMs, [&] { core.run(); });
    Measurement m;
    m.stats = core.stats();
    m.pbs = core.pbs().stats();
    m.outputs = outputsOf(core.memory());
    obs::counterAdd("insts.measure", m.stats.instructions);
    obs::counterAdd("cpu.block_insts", core.dispatchCounts().blockInsts);
    obs::counterAdd("cpu.stepped_insts",
                    core.dispatchCounts().steppedInsts);
    return m;
}

/** The program of a Sim point. */
isa::Program
buildProgram(const ExpPoint &pt)
{
    return workloads::benchmarkByName(pt.workload)
        .build(pointParams(pt), variantFromName(pt.variant));
}

/**
 * A Sim point that is not sampled, on the engine its mode selects: the
 * functional fast-forward engine or the detailed core (detailed and
 * mpki fidelities). With @p simMs, the simulation's wall time lands
 * there (timePoint() documents the timed regions).
 */
Measurement
computeSim(const ExpPoint &pt, double *simMs)
{
    const auto &b = workloads::benchmarkByName(pt.workload);
    const cpu::CoreConfig cfg = pointCoreConfig(pt);
    // The program is a temporary: Core and FunctionalEngine keep their
    // own decoded copy, so it is freed before they run.
    if (execModeFromName(pt.mode) != ExecMode::Functional)
        return runCore(buildProgram(pt), cfg, b.simOutput, nullptr, simMs);

    obs::Span span("ff", "functional");
    sampling::FunctionalEngine engine(buildProgram(pt), cfg.maxInstructions);
    timed(simMs, [&] { engine.run(); });
    Measurement m;
    m.stats = engine.stats();
    m.outputs = b.simOutput(engine.memory());
    obs::counterAdd("insts.ff", m.stats.instructions);
    obs::counterAdd("cpu.block_insts", engine.dispatchCounts().blockInsts);
    obs::counterAdd("cpu.stepped_insts",
                    engine.dispatchCounts().steppedInsts);
    return m;
}

Measurement
computeRand(const ExpPoint &pt)
{
    const auto &b = workloads::benchmarkByName(pt.workload);
    cpu::CoreConfig cfg = pointCoreConfig(pt);
    cfg.traceProbBranches = true;
    workloads::WorkloadParams p = pointParams(pt);
    p.traceUniforms = true;

    cpu::Core core(b.build(p, variantFromName(pt.variant)), cfg);
    core.run();
    auto stream =
        extractUniformStream(core, b, /*consumedOrder=*/pt.pbs);
    auto tally = randtest::tallyResults(randtest::runBattery(stream));

    Measurement m;
    m.randPass = tally.pass;
    m.randWeak = tally.weak;
    m.randFail = tally.fail;
    return m;
}

/** A sampled Sim point: it runs on a checkpoint set. */
bool
isSampled(const ExpPoint &pt)
{
    return pt.kind == PointKind::Sim && pt.mode == "sampled";
}

/** Display label for a point's trace span. */
std::string
pointLabel(const ExpPoint &pt)
{
    return pt.workload + " " + pt.predictor + (pt.pbs ? "+pbs" : "");
}

}  // namespace

uint64_t
pointCost(const ExpPoint &pt)
{
    uint64_t cost = pt.scale ? pt.scale : 1;
    if (pt.mode == "functional") {
        // Architectural-only: ~6x cheaper than detailed timing.
        cost = std::max<uint64_t>(1, cost / 6);
    } else if (pt.mode == "sampled") {
        // One functional pass over the whole run plus a detailed
        // (timing-speed) fraction of it: (warmup + measure) / interval
        // of the instructions at the 4x timing multiplier. A sparse
        // 2M-interval Pareto point is genuinely cheaper than the
        // default 500k config and must schedule accordingly.
        const cpu::SampleParams sp = pointCoreConfig(pt).sample;
        const uint64_t ff = std::max<uint64_t>(1, cost / 6);
        const uint64_t detailed =
            4 * cost * (sp.warmup + sp.measure) / sp.interval;
        cost = ff + detailed;
    } else if (!pt.functional) {
        cost *= 4;  // the timing model is ~4x the mpki fidelity
    }
    if (pt.wide)
        cost *= 2;
    if (pt.kind == PointKind::Rand)
        cost *= 4;  // trace recording + the 114-instance battery
    return cost;
}

Measurement
Engine::computePoint(const ExpPoint &pt, double *simMs)
{
    if (pt.kind == PointKind::Rand)
        return computeRand(pt);
    if (!isSampled(pt))
        return computeSim(pt, simMs);
    // A one-point group on a cacheless engine: it captures its own set.
    Engine alone;
    const PendingPoint job{pt, cacheKey(pt), pointCost(pt)};
    const isa::Program prog = buildProgram(pt);
    timed(simMs, [&] { alone.runCheckpointSet(prog, {job}, {0}); });
    return alone.memo_.at(job.key);
}

double
TimedRun::mips() const
{
    return bestMs > 0.0
        ? double(result.stats.instructions) / bestMs / 1000.0
        : 0.0;
}

TimedRun
timePoint(const ExpPoint &pt, unsigned repeats)
{
    if (pt.kind != PointKind::Sim)
        throw std::invalid_argument("timePoint: only Sim points are "
                                    "timed");
    std::vector<double> ms(std::max(1u, repeats));
    TimedRun run;
    for (double &rep : ms)
        run.result = Engine::computePoint(pt, &rep);
    // Best-of is the noise-robust estimate; median and mean show how
    // noisy the host was.
    std::sort(ms.begin(), ms.end());
    const size_t n = ms.size();
    run.bestMs = ms.front();
    run.medianMs = n % 2 ? ms[n / 2] : 0.5 * (ms[n / 2 - 1] + ms[n / 2]);
    double sum = 0.0;
    for (double x : ms)
        sum += x;
    run.meanMs = sum / double(n);
    return run;
}

Measurement
streamedRun(const isa::Program &prog, const cpu::CoreConfig &cfg,
            const std::string &key, OutputsFn outputsOf, StreamSlot &slot,
            bool &replayed)
{
    replayed = false;
    if (slot.key == key && !slot.stream.usable())
        return runCore(prog, cfg, outputsOf, nullptr);
    if (slot.key == key) {
        cpu::Core core(prog, cfg);
        core.replay(slot.stream);
        Measurement m;
        m.stats = core.stats();
        m.pbs = slot.pbs;
        m.outputs = slot.outputs;
        obs::counterAdd("insts.replay", m.stats.instructions);
        replayed = true;
        return m;
    }
    // Free the previous stream before recording the next one.
    slot = StreamSlot{};
    cpu::DirectionStream stream;
    Measurement m = runCore(prog, cfg, outputsOf, &stream);
    slot.key = key;
    slot.stream = std::move(stream);
    slot.pbs = m.pbs;
    slot.outputs = m.outputs;
    return m;
}

Measurement
Engine::computeStreamed(const ExpPoint &pt, StreamSlot &slot)
{
    const std::string key = directionStreamKey(pt);
    if (key.empty())
        return computePoint(pt);
    bool replayed = false;
    Measurement m = streamedRun(
        buildProgram(pt), pointCoreConfig(pt), key,
        workloads::benchmarkByName(pt.workload).simOutput, slot, replayed);
    if (replayed) {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_.streamReplays++;
    }
    return m;
}

Engine::Engine(EngineConfig cfg)
    : cfg_(std::move(cfg)), cache_(cfg_.cacheDir)
{
}

const Measurement *
Engine::lookup(const std::string &key, const ExpPoint &pt)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_.requested++;
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            counters_.memHits++;
            return &it->second;
        }
    }
    Measurement m;
    const CacheLoad r = cache_.load(key, pt.kind, m);
    if (r)
        return &insert(key, pt, std::move(m), /*fromDisk=*/true);
    noteRejected(r);
    return nullptr;
}

void
Engine::noteRejected(CacheLoad r)
{
    if (r.status != CacheLoad::Rejected)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.diskRejected++;
}

const Measurement &
Engine::insert(const std::string &key, const ExpPoint &pt,
               Measurement m, bool fromDisk)
{
    bool shouldStore = false;
    const Measurement *result;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = memo_.emplace(key, std::move(m));
        if (inserted) {
            if (fromDisk) {
                counters_.diskHits++;
            } else {
                counters_.computed++;
                shouldStore = cache_.enabled();
            }
        }
        result = &it->second;
    }
    if (shouldStore) {
        if (cache_.store(key, pt, *result)) {
            std::lock_guard<std::mutex> lock(mutex_);
            counters_.stored++;
        } else {
            noteStoreFailure("result");
        }
    }
    return *result;
}

void
Engine::noteStoreFailure(const char *what)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.storeFailed++;
    if (storeWarned_)
        return;
    storeWarned_ = true;
    obs::logWarnf("pbs_exp: warning: failed to write %s entry under %s "
                  "(disk full or unwritable?); results will be "
                  "recomputed on the next run",
                  what, cache_.dir().c_str());
}

void
Engine::armProgress(const std::vector<PendingPoint> &jobs)
{
    hbTotal_ = jobs.size();
    hbDone_.store(0, std::memory_order_relaxed);
    if (!cfg_.heartbeat)
        return;
    hbTotalCost_ = 0;
    for (const PendingPoint &job : jobs)
        hbTotalCost_ += job.cost;
    hbDoneCost_.store(0, std::memory_order_relaxed);
    hbStartNs_ = util::monotonicNowNs();
    hbLastNs_.store(hbStartNs_, std::memory_order_relaxed);
    obs::logLinef("pbs_exp: progress 0/%zu points", jobs.size());
}

void
Engine::notePointDone(const PendingPoint &job)
{
    const size_t done = hbDone_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cfg_.progress) {
        obs::logLinef("[%zu/%zu] %s %s%s scale=%llu seed=%llu", done,
                      hbTotal_, job.pt.workload.c_str(),
                      job.pt.predictor.c_str(), job.pt.pbs ? "+pbs" : "",
                      (unsigned long long)job.pt.scale,
                      (unsigned long long)job.pt.seed);
    }
    if (!cfg_.heartbeat || hbTotal_ == 0)
        return;
    const uint64_t doneCost =
        hbDoneCost_.fetch_add(job.cost, std::memory_order_relaxed) +
        job.cost;
    const uint64_t now = util::monotonicNowNs();
    uint64_t last = hbLastNs_.load(std::memory_order_relaxed);
    const bool final = done == hbTotal_;
    // ~1 Hz: one winner per window emits; the final point always does.
    if (!final && (now - last < 1000000000ull ||
                   !hbLastNs_.compare_exchange_strong(last, now)))
        return;
    const double elapsedS = double(now - hbStartNs_) / 1e9;
    if (final) {
        obs::logLinef("pbs_exp: progress %zu/%zu points, done in %.1fs",
                      done, hbTotal_, elapsedS);
        return;
    }
    const double etaS =
        doneCost > 0
            ? elapsedS * double(hbTotalCost_ - doneCost) / double(doneCost)
            : 0.0;
    obs::logLinef("pbs_exp: progress %zu/%zu points, eta ~%.0fs", done,
                  hbTotal_, etaS);
}

const Measurement &
Engine::measure(const ExpPoint &pt)
{
    const std::string key = cacheKey(pt);
    if (const Measurement *m = lookup(key, pt))
        return *m;
    if (isSampled(pt)) {
        if (sharded())
            throw std::logic_error("Engine::measure: a campaign shard "
                                   "aggregates no sampled result");
        // A one-point group through the sweep's runner: a campaign
        // engine loads and publishes the set and its partials.
        runCheckpointSet(buildProgram(pt), {{pt, key, pointCost(pt)}}, {0});
        std::lock_guard<std::mutex> lock(mutex_);
        return memo_.at(key);
    }
    // Take the slot while computing, so concurrent callers never share
    // it (one of them then finds it empty and records its own).
    StreamSlot slot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slot = std::move(slot_);
    }
    Measurement m = computeStreamed(pt, slot);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slot_ = std::move(slot);
    }
    return insert(key, pt, std::move(m), /*fromDisk=*/false);
}

void
Engine::runAll(const std::vector<ExpPoint> &points)
{
    // All fan-out below this point — sweep points, checkpoint-set
    // interval tasks, and stream replays — shares one scheduler,
    // sized here.
    pool::TaskPool::instance().configure(std::max(1u, cfg_.jobs));

    // Pre-pass (serial): resolve memo/disk hits and deduplicate, so the
    // pool only ever simulates.
    std::vector<PendingPoint> jobs;
    {
        std::unordered_map<std::string, bool> seen;
        for (const auto &pt : points) {
            std::string key = cacheKey(pt);
            if (seen.count(key))
                continue;
            seen.emplace(key, true);
            if (lookup(key, pt))
                continue;
            jobs.push_back({pt, std::move(key), pointCost(pt)});
        }
    }
    // A campaign shard measures interval slices only; every other
    // point is left to the unsharded run.
    if (sharded())
        std::erase_if(jobs, [](const PendingPoint &job) {
            return !isSampled(job.pt);
        });
    if (jobs.empty())
        return;
    armProgress(jobs);
    runPool(std::move(jobs));
}

void
Engine::runPool(std::vector<PendingPoint> jobs)
{
    // One task per point, except for points that share work:
    //  - the points of one direction-stream key: the first records the
    //    stream, then the rest fan out over the pool and replay it
    //    (they only read the task's slot);
    //  - the sampled points of one checkpoint set: the set is captured
    //    (or loaded) once and every (point, interval) fans out over it.
    // Grouping follows the job order, so it is deterministic.
    struct Task
    {
        std::vector<size_t> points;  ///< indices into jobs
        uint64_t cost = 0;
        bool checkpointSet = false;
    };
    std::vector<Task> tasks;
    {
        const std::string salt = versionSalt();
        std::unordered_map<std::string, size_t> taskOfKey;
        for (size_t i = 0; i < jobs.size(); i++) {
            const ExpPoint &pt = jobs[i].pt;
            const bool sampled = isSampled(pt);
            // A set hash is 32 hex digits, a stream key a JSON object:
            // the two kinds of key never collide.
            const std::string key =
                sampled ? storeSetHash(checkpointStoreKey(pt, salt))
                        : directionStreamKey(pt);
            size_t t = tasks.size();
            if (!key.empty())
                t = taskOfKey.emplace(key, t).first->second;
            if (t == tasks.size())
                tasks.push_back({{}, 0, sampled});
            tasks[t].points.push_back(i);
            tasks[t].cost += jobs[i].cost;
        }
    }

    // Cost-aware ordering: big tasks first. With the stealing
    // scheduler this is only a placement hint — the caller starts at
    // index 0 and thieves take the largest remaining range — but it
    // still front-loads the expensive points (results are
    // order-independent either way).
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const Task &a, const Task &b) {
                         return a.cost > b.cost;
                     });

    auto runPoint = [&](const PendingPoint &job, StreamSlot &slot) {
        obs::Span span("point", pointLabel(job.pt));
        insert(job.key, job.pt, computeStreamed(job.pt, slot),
               /*fromDisk=*/false);
        notePointDone(job);
    };
    pool::TaskPool::instance().parallelFor(
        tasks.size(),
        [&](size_t t) {
            const std::vector<size_t> &points = tasks[t].points;
            if (tasks[t].checkpointSet) {
                runCheckpointSet(buildProgram(jobs[points.front()].pt),
                                 jobs, points);
                for (size_t i : points)
                    notePointDone(jobs[i]);
                return;
            }
            StreamSlot slot;
            runPoint(jobs[points.front()], slot);
            if (points.size() == 1)
                return;
            pool::TaskPool::instance().parallelFor(
                points.size() - 1,
                [&](size_t r) { runPoint(jobs[points[r + 1]], slot); },
                "replay");
        },
        "sweep");
}

void
Engine::runCheckpointSet(const isa::Program &prog,
                         const std::vector<PendingPoint> &jobs,
                         const std::vector<size_t> &group)
{
    // One work record per point, each validated before the set is
    // touched: the measure length is not part of the set, so a point
    // whose warmup + measure overruns its interval can join a valid
    // point's group.
    struct ConfigWork
    {
        const PendingPoint *job = nullptr;
        cpu::CoreConfig detCfg;
        std::vector<sampling::IntervalSample> samples;
    };
    std::vector<ConfigWork> works(group.size());
    for (size_t c = 0; c < group.size(); c++) {
        ConfigWork &cw = works[c];
        cw.job = &jobs[group[c]];
        const cpu::CoreConfig cfg = pointCoreConfig(cw.job->pt);
        sampling::validateParams(cfg.sample);
        cw.detCfg = sampling::detailedMeasureConfig(cfg);
    }

    // Every point in a group shares workload, variant, scale, seed,
    // instruction cap, and the capture-shaping sampling parameters —
    // only the detailed-measure configuration differs.
    const ExpPoint &pt0 = jobs[group.front()].pt;

    // A durable campaign loads the persisted set, else captures it
    // once and persists it; any other sweep just captures it. The
    // capture config is pt0's: capture only reads the StoreKey-pinned
    // fields, which are equal across the group.
    const bool durable = cfg_.campaign;
    const StoreKey skey = checkpointStoreKey(pt0, versionSalt());
    sampling::CheckpointSet set;
    const CacheLoad loaded =
        durable ? cache_.loadCheckpointSet(skey, set) : CacheLoad{};
    if (!loaded) {
        noteRejected(loaded);
        set = sampling::captureCheckpoints(prog, pointCoreConfig(pt0));
        if (durable && cache_.enabled() &&
            !cache_.storeCheckpointSet(skey, set))
            noteStoreFailure("checkpoint-set");
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_.campaignGroups++;
        (loaded ? counters_.ckptSetLoads : counters_.captures)++;
    }
    const size_t intervals = set.checkpoints.size();
    for (ConfigWork &cw : works)
        cw.samples.resize(intervals);

    // Partial pre-pass (serial): a durable campaign resumes every
    // (config, interval) the cache already holds; only the gaps hit
    // the pool. A shard considers only its own slice of the
    // intervals. A set too small to sample (< 2 intervals) measures
    // nothing — every configuration takes the exact-detailed fallback
    // below.
    struct Gap
    {
        size_t config = 0;
        size_t interval = 0;
    };
    std::vector<Gap> gaps;
    for (size_t c = 0; intervals >= 2 && c < works.size(); c++) {
        for (size_t i = 0; i < intervals; i++) {
            if (sharded() && i % cfg_.shardCount != cfg_.shardIndex - 1)
                continue;
            if (durable) {
                const CacheLoad r = cache_.loadPartial(
                    partialKey(works[c].job->pt, i), works[c].samples[i]);
                if (r) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    counters_.partialHits++;
                    continue;
                }
                noteRejected(r);
            }
            gaps.push_back({c, i});
        }
    }

    // Fan out the gaps: one task per missing (config, interval), all
    // against the shared, never-released checkpoint set. Results land
    // in the pre-sized samples slots, so steal order cannot change a
    // byte of the aggregate.
    pool::TaskPool::instance().parallelFor(
        gaps.size(),
        [&](size_t g) {
            ConfigWork &cw = works[gaps[g].config];
            const size_t i = gaps[g].interval;
            const sampling::IntervalSample s = sampling::measureInterval(
                prog, cw.detCfg, set.checkpoints[i],
                cw.detCfg.sample.warmup, cw.detCfg.sample.measure);
            cw.samples[i] = s;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                counters_.partialComputed++;
            }
            if (!durable || !cache_.enabled())
                return;
            if (cache_.storePartial(partialKey(cw.job->pt, i), cw.job->pt,
                                    i, s)) {
                std::lock_guard<std::mutex> lock(mutex_);
                counters_.partialStored++;
            } else {
                noteStoreFailure("partial");
            }
        },
        "intervals");

    // Aggregate each configuration, with the exact-detailed fallback
    // for sets too small to sample. A shard holds only its slice, so
    // it leaves aggregation to the unsharded run.
    if (sharded())
        return;
    const auto &b = workloads::benchmarkByName(pt0.workload);
    pool::TaskPool::instance().parallelFor(
        works.size(),
        [&](size_t c) {
            const ConfigWork &cw = works[c];
            sampling::SampledRun run;
            if (intervals < 2 ||
                !sampling::aggregateSamples(set.totals, set.finalState,
                                            cw.samples, run)) {
                run = sampling::runExactDetailed(prog, cw.detCfg);
            }
            Measurement m;
            m.stats = run.stats;
            m.hasSampling = true;
            m.sampling = run.est;
            m.outputs = b.simOutput(run.finalState.mem);
            insert(cw.job->key, cw.job->pt, std::move(m),
                   /*fromDisk=*/false);
        },
        "aggregate");
}

void
recordEngineMetrics(const EngineCounters &c)
{
    if (!obs::metricsEnabled())
        return;
    obs::counterAdd("exp.requested", c.requested);
    obs::counterAdd("exp.mem_hits", c.memHits);
    obs::counterAdd("exp.disk_hits", c.diskHits);
    obs::counterAdd("exp.disk_rejected", c.diskRejected);
    obs::counterAdd("exp.computed", c.computed);
    obs::counterAdd("exp.stored", c.stored);
    obs::counterAdd("exp.store_failed", c.storeFailed);
    obs::counterAdd("exp.campaign_groups", c.campaignGroups);
    obs::counterAdd("exp.captures", c.captures);
    obs::counterAdd("exp.ckpt_set_loads", c.ckptSetLoads);
    obs::counterAdd("exp.partial_hits", c.partialHits);
    obs::counterAdd("exp.partial_computed", c.partialComputed);
    obs::counterAdd("exp.partial_stored", c.partialStored);
    obs::counterAdd("exp.stream_replays", c.streamReplays);
}

}  // namespace pbs::exp
