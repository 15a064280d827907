#include "sampling/sampled.hh"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "cpu/core.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "sampling/functional.hh"
#include "stats/stats.hh"

namespace pbs::sampling {

namespace {

uint64_t
scaled(uint64_t counter, double factor)
{
    return uint64_t(std::llround(double(counter) * factor));
}

}  // namespace

void
validateParams(const cpu::SampleParams &sp)
{
    if (sp.interval == 0 || sp.measure == 0)
        throw std::invalid_argument(
            "sampled mode: interval and measure must be > 0");
    if (sp.warmup + sp.measure > sp.interval)
        throw std::invalid_argument(
            "sampled mode: warmup + measure must not exceed interval");
}

cpu::CoreConfig
detailedMeasureConfig(const cpu::CoreConfig &cfg)
{
    cpu::CoreConfig detCfg = cfg;
    detCfg.mode = cpu::SimMode::Timing;
    return detCfg;
}

SampledRun
runExactDetailed(const isa::Program &prog, const cpu::CoreConfig &detCfg)
{
    obs::Span span("measure", "exact-detailed");
    cpu::Core core(prog, detCfg);
    core.run();
    obs::counterAdd("insts.measure", core.stats().instructions);
    SampledRun r;
    r.stats = core.stats();
    r.est.exact = true;
    r.est.ffInstructions = 0;
    r.est.detailedInstructions = r.stats.instructions;
    r.est.ipc = r.stats.ipc();
    r.est.mpki = r.stats.mpki();
    r.finalState = core.saveArch();
    return r;
}

CheckpointSet
captureCheckpoints(const isa::Program &prog, const cpu::CoreConfig &cfg)
{
    const cpu::SampleParams &sp = cfg.sample;
    validateParams(sp);

    // Capture one checkpoint per interval at (k * interval - warmup),
    // the start of that interval's detailed warmup.
    obs::Span span("ff", "fast-forward");
    FunctionalEngine ff(prog, cfg.maxInstructions);
    CheckpointSet set;
    for (uint64_t k = 1;; k++) {
        const uint64_t target = k * sp.interval - sp.warmup;
        const uint64_t cur = ff.stats().instructions;
        if (cfg.maxInstructions && target >= cfg.maxInstructions)
            break;
        ff.step(target - cur);
        if (ff.halted())
            break;
        {
            obs::Span cap("capture");
            set.checkpoints.push_back(ff.saveArch());
        }
    }
    ff.run();  // to completion: exact totals, outputs, final memory
    set.totals = ff.stats();
    set.finalState = ff.saveArch();
    obs::counterAdd("insts.ff", set.totals.instructions);
    obs::counterAdd("cpu.block_insts", ff.dispatchCounts().blockInsts);
    obs::counterAdd("cpu.stepped_insts", ff.dispatchCounts().steppedInsts);
    obs::counterAdd("sampling.checkpoints_captured", set.checkpoints.size());
    return set;
}

IntervalSample
measureInterval(const isa::Program &prog, const cpu::CoreConfig &detCfg,
                const cpu::ArchState &chk, uint64_t warmup,
                uint64_t measure)
{
    obs::Span span("interval");
    cpu::CoreStats base, w, m;
    cpu::Core core(prog, detCfg);
    {
        obs::Span sub("restore");
        core.restoreArch(chk);
        base = core.stats();
    }
    {
        obs::Span sub("warmup");
        core.step(warmup);
        w = core.stats();
    }
    {
        obs::Span sub("measure");
        core.step(measure);
        m = core.stats();
    }
    obs::counterAdd("insts.warmup", w.instructions - base.instructions);
    obs::counterAdd("insts.measure", m.instructions - w.instructions);

    IntervalSample s;
    s.instructions = m.instructions - w.instructions;
    s.cycles = m.cycles - w.cycles;
    s.mispredicts = m.mispredicts - w.mispredicts;
    s.regularMispredicts = m.regularMispredicts - w.regularMispredicts;
    s.probMispredicts = m.probMispredicts - w.probMispredicts;
    s.steered = m.steeredBranches - w.steeredBranches;
    s.detailed = m.instructions;
    s.valid = s.instructions > 0 && s.cycles > 0;
    return s;
}

bool
aggregateSamples(const cpu::CoreStats &totals,
                 const cpu::ArchState &finalState,
                 const std::vector<IntervalSample> &samples,
                 SampledRun &out)
{
    // Point estimates use the ratio estimator over all measured
    // instructions; confidence intervals come from the per-interval
    // variance (intervals are equal-sized except a possibly truncated
    // final one, so the two agree asymptotically).
    obs::Span span("aggregate");
    stats::RunningStat cpi, mpki;
    IntervalSample tot;
    uint64_t validCount = 0;
    for (const IntervalSample &s : samples) {
        if (!s.valid)
            continue;
        validCount++;
        cpi.push(double(s.cycles) / double(s.instructions));
        mpki.push(1000.0 * double(s.mispredicts) /
                  double(s.instructions));
        tot.instructions += s.instructions;
        tot.cycles += s.cycles;
        tot.mispredicts += s.mispredicts;
        tot.regularMispredicts += s.regularMispredicts;
        tot.probMispredicts += s.probMispredicts;
        tot.steered += s.steered;
        tot.detailed += s.detailed;
    }
    if (validCount < 2)
        return false;

    const double meanCpi = double(tot.cycles) / double(tot.instructions);
    const double meanMpki =
        1000.0 * double(tot.mispredicts) / double(tot.instructions);

    SampledRun r;
    const uint64_t n = totals.instructions;
    const double factor = double(n) / double(tot.instructions);

    r.stats.instructions = n;
    r.stats.branches = totals.branches;
    r.stats.probBranches = totals.probBranches;
    r.stats.cycles = scaled(tot.cycles, factor);
    r.stats.mispredicts = scaled(tot.mispredicts, factor);
    r.stats.regularMispredicts = scaled(tot.regularMispredicts, factor);
    r.stats.probMispredicts = scaled(tot.probMispredicts, factor);
    r.stats.steeredBranches = scaled(tot.steered, factor);

    r.est.intervals = validCount;
    r.est.ffInstructions = n;
    r.est.detailedInstructions = tot.detailed;
    r.est.ipc = meanCpi > 0.0 ? 1.0 / meanCpi : 0.0;
    // Delta method: var(1/X) ~ var(X) / mean(X)^4.
    r.est.ipcCi95 = meanCpi > 0.0
        ? cpi.ci95HalfWidth() / (meanCpi * meanCpi) : 0.0;
    r.est.mpki = meanMpki;
    r.est.mpkiCi95 = mpki.ci95HalfWidth();

    r.finalState = finalState;
    out = std::move(r);
    return true;
}

}  // namespace pbs::sampling
