#include "exp/engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

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
 * One Sim point on the engine its mode selects: the functional
 * fast-forward engine, the sampled simulator, or the detailed core
 * (detailed and mpki fidelities).
 */
Measurement
computeSim(const ExpPoint &pt)
{
    const auto &b = workloads::benchmarkByName(pt.workload);
    const cpu::CoreConfig cfg = pointCoreConfig(pt);
    // A temporary per engine: Core and FunctionalEngine keep their own
    // decoded copy, so the program is freed before they run.
    auto build = [&] {
        return b.build(pointParams(pt), variantFromName(pt.variant));
    };

    Measurement m;
    switch (cfg.execMode) {
      case cpu::ExecMode::Functional: {
        obs::Span span("ff", "functional");
        sampling::FunctionalEngine engine(build(), cfg.maxInstructions);
        engine.run();
        m.stats = engine.stats();
        m.outputs = b.simOutput(engine.memory());
        obs::counterAdd("insts.ff", m.stats.instructions);
        obs::counterAdd("cpu.block_insts",
                        engine.dispatchCounts().blockInsts);
        obs::counterAdd("cpu.stepped_insts",
                        engine.dispatchCounts().steppedInsts);
        return m;
      }
      case cpu::ExecMode::Sampled: {
        sampling::SampledRun s = sampling::runSampled(build(), cfg);
        m.stats = s.stats;
        m.hasSampling = true;
        m.sampling = s.est;
        m.outputs = b.simOutput(s.finalState.mem);
        return m;
      }
      case cpu::ExecMode::Detailed:
        break;
    }

    obs::Span span("measure", "detailed");
    cpu::Core core(build(), cfg);
    core.run();
    m.stats = core.stats();
    m.pbs = core.pbs().stats();
    m.outputs = b.simOutput(core.memory());
    obs::counterAdd("insts.measure", m.stats.instructions);
    obs::counterAdd("cpu.block_insts", core.dispatchCounts().blockInsts);
    obs::counterAdd("cpu.stepped_insts",
                    core.dispatchCounts().steppedInsts);
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
Engine::computePoint(const ExpPoint &pt)
{
    return pt.kind == PointKind::Rand ? computeRand(pt) : computeSim(pt);
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
Engine::armHeartbeat(const std::vector<PendingPoint> &jobs)
{
    if (!cfg_.heartbeat)
        return;
    hbTotal_ = jobs.size();
    hbTotalCost_ = 0;
    for (const PendingPoint &job : jobs)
        hbTotalCost_ += job.cost;
    hbDone_.store(0, std::memory_order_relaxed);
    hbDoneCost_.store(0, std::memory_order_relaxed);
    hbStartNs_ = util::monotonicNowNs();
    hbLastNs_.store(hbStartNs_, std::memory_order_relaxed);
    obs::logLinef("pbs_exp: progress 0/%zu points", jobs.size());
}

void
Engine::noteHeartbeat(uint64_t cost)
{
    if (!cfg_.heartbeat || hbTotal_ == 0)
        return;
    const uint64_t doneCost =
        hbDoneCost_.fetch_add(cost, std::memory_order_relaxed) + cost;
    const size_t done = hbDone_.fetch_add(1, std::memory_order_relaxed) + 1;
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
    return insert(key, pt, computePoint(pt), /*fromDisk=*/false);
}

void
Engine::runAll(const std::vector<ExpPoint> &points)
{
    // All fan-out below this point — sweep points, campaign interval
    // tasks, and the nested per-interval fan-out inside each sampled
    // point — shares one scheduler, sized here.
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
    const auto isSampled = [](const PendingPoint &job) {
        return job.pt.kind == PointKind::Sim && job.pt.mode == "sampled";
    };
    // A campaign shard measures interval slices only; every other
    // point is left to the unsharded run.
    if (cfg_.campaign && cfg_.shardCount)
        std::erase_if(jobs, [&](const PendingPoint &job) {
            return !isSampled(job);
        });
    if (jobs.empty())
        return;
    armHeartbeat(jobs);

    if (cfg_.campaign) {
        // Sampled Sim points reschedule around their shared checkpoint
        // sets; everything else (detailed, functional, rand) runs on
        // the ordinary pool. Both paths land in the same memo/cache,
        // so artifacts are byte-identical either way.
        std::vector<PendingPoint> sampled, rest;
        for (auto &job : jobs)
            (isSampled(job) ? sampled : rest).push_back(std::move(job));
        runCampaign(std::move(sampled));
        runPool(std::move(rest));
        return;
    }
    runPool(std::move(jobs));
}

void
Engine::runPool(std::vector<PendingPoint> jobs)
{
    if (jobs.empty())
        return;

    // Cost-aware ordering: big points first. With the stealing
    // scheduler this is only a placement hint — the caller starts at
    // index 0 and thieves take the largest remaining range — but it
    // still front-loads the expensive points (results are
    // order-independent either way).
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const PendingPoint &a, const PendingPoint &b) {
                         return a.cost > b.cost;
                     });

    std::atomic<size_t> done{0};
    pool::TaskPool::instance().parallelFor(
        jobs.size(),
        [&](size_t i) {
            const PendingPoint &job = jobs[i];
            {
                obs::Span span("point", pointLabel(job.pt));
                insert(job.key, job.pt, computePoint(job.pt),
                       /*fromDisk=*/false);
            }
            size_t n = done.fetch_add(1) + 1;
            if (cfg_.progress) {
                obs::logLinef("[%zu/%zu] %s %s%s scale=%llu seed=%llu",
                              n, jobs.size(), job.pt.workload.c_str(),
                              job.pt.predictor.c_str(),
                              job.pt.pbs ? "+pbs" : "",
                              (unsigned long long)job.pt.scale,
                              (unsigned long long)job.pt.seed);
            }
            noteHeartbeat(job.cost);
        },
        "sweep");
}

void
Engine::runCampaign(std::vector<PendingPoint> jobs)
{
    if (jobs.empty())
        return;

    // Group by checkpoint-set identity (std::map: deterministic group
    // order). Every point in a group shares workload, variant, scale,
    // seed, instruction cap, and the capture-shaping sampling
    // parameters — only the detailed-measure configuration differs.
    const std::string salt = versionSalt();
    std::map<std::string, std::vector<PendingPoint>> groups;
    for (auto &job : jobs) {
        const std::string setHash =
            storeSetHash(checkpointStoreKey(job.pt, salt));
        groups[setHash].push_back(std::move(job));
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_.campaignGroups += groups.size();
    }

    for (auto &[setHash, group] : groups) {
        const ExpPoint &pt0 = group.front().pt;
        const auto &b = workloads::benchmarkByName(pt0.workload);
        const isa::Program prog =
            b.build(pointParams(pt0), variantFromName(pt0.variant));
        const StoreKey skey = checkpointStoreKey(pt0, salt);

        // Load the persisted set, else capture once and persist it.
        // The capture config is pt0's: capture only reads the
        // StoreKey-pinned fields, which are equal across the group.
        sampling::CheckpointSet set;
        const CacheLoad loaded = cache_.loadCheckpointSet(skey, set);
        if (loaded) {
            std::lock_guard<std::mutex> lock(mutex_);
            counters_.ckptSetLoads++;
        } else {
            noteRejected(loaded);
            set = sampling::captureCheckpoints(prog,
                                               pointCoreConfig(pt0));
            {
                std::lock_guard<std::mutex> lock(mutex_);
                counters_.captures++;
            }
            if (cache_.enabled() && !cache_.storeCheckpointSet(skey, set))
                noteStoreFailure("checkpoint-set");
        }

        // One work record per configuration in the group.
        const size_t intervals = set.checkpoints.size();
        struct ConfigWork
        {
            const PendingPoint *job = nullptr;
            cpu::CoreConfig detCfg;
            uint64_t warmup = 0;
            uint64_t measure = 0;
            std::vector<sampling::IntervalSample> samples;
        };
        std::vector<ConfigWork> works(group.size());
        for (size_t c = 0; c < group.size(); c++) {
            ConfigWork &cw = works[c];
            cw.job = &group[c];
            const cpu::CoreConfig cfg = pointCoreConfig(group[c].pt);
            cw.detCfg = sampling::detailedMeasureConfig(cfg);
            cw.warmup = cfg.sample.warmup;
            cw.measure = cfg.sample.measure;
            cw.samples.resize(intervals);
        }

        // Partial pre-pass (serial): resume every (config, interval)
        // the cache already holds; only the gaps hit the pool. A shard
        // considers only its own slice of the intervals. A set too
        // small to sample (< 2 intervals) measures nothing — every
        // configuration takes the exact-detailed fallback below, just
        // as runSampledOnSet() would.
        struct Task
        {
            size_t config = 0;
            size_t interval = 0;
        };
        std::vector<Task> tasks;
        for (size_t c = 0; intervals >= 2 && c < works.size(); c++) {
            for (size_t i = 0; i < intervals; i++) {
                if (cfg_.shardCount &&
                    i % cfg_.shardCount != cfg_.shardIndex - 1)
                    continue;
                const std::string pk =
                    partialKey(works[c].job->pt, i);
                const CacheLoad r =
                    cache_.loadPartial(pk, works[c].samples[i]);
                if (r) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    counters_.partialHits++;
                } else {
                    noteRejected(r);
                    tasks.push_back({c, i});
                }
            }
        }

        // Fan out the gaps: one task per missing (config, interval),
        // all against the shared, never-released checkpoint set.
        // Results land in the pre-sized samples slots, so steal order
        // cannot change a byte of the aggregate.
        pool::TaskPool::instance().parallelFor(
            tasks.size(),
            [&](size_t t) {
                ConfigWork &cw = works[tasks[t].config];
                const size_t i = tasks[t].interval;
                const sampling::IntervalSample s =
                    sampling::measureInterval(prog, cw.detCfg,
                                              set.checkpoints[i],
                                              cw.warmup, cw.measure);
                cw.samples[i] = s;
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    counters_.partialComputed++;
                }
                if (!cache_.enabled())
                    return;
                if (cache_.storePartial(partialKey(cw.job->pt, i),
                                        cw.job->pt, i, s)) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    counters_.partialStored++;
                } else {
                    noteStoreFailure("partial");
                }
            },
            "campaign");

        // Aggregate each configuration — bit-identical to the
        // per-point runSampled() path, including the exact-detailed
        // fallback for sets too small to sample. A shard holds only
        // its slice, so it leaves aggregation to the unsharded run.
        size_t done = 0;
        for (ConfigWork &cw : works) {
            if (cfg_.shardCount) {
                noteHeartbeat(cw.job->cost);
                continue;
            }
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
            done++;
            if (cfg_.progress) {
                obs::logLinef("[campaign %zu/%zu] %s %s%s scale=%llu "
                              "seed=%llu",
                              done, works.size(),
                              cw.job->pt.workload.c_str(),
                              cw.job->pt.predictor.c_str(),
                              cw.job->pt.pbs ? "+pbs" : "",
                              (unsigned long long)cw.job->pt.scale,
                              (unsigned long long)cw.job->pt.seed);
            }
            noteHeartbeat(cw.job->cost);
        }
    }
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
}

}  // namespace pbs::exp
