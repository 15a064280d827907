/**
 * @file
 * Sampled sweep: push a workload to scales where full detailed
 * simulation stops being practical, and watch sampled mode keep up.
 *
 * The sweep runs pi at 1x, 4x and 16x its standard scale. Each scale
 * is measured three ways:
 *  - detailed (only at 1x — the baseline, and the reason this sweep
 *    is infeasible in detailed mode: at 16x it would take ~16x the
 *    baseline wall time),
 *  - functional (architectural only, exact outputs, no timing),
 *  - sampled (SMARTS: functional fast-forward + detailed warmup +
 *    measured intervals fanned out over 4 threads), which reports
 *    IPC and MPKI with 95% confidence intervals.
 *
 * Build tree:  ./build/examples/sampled_sweep
 */

#include <chrono>
#include <cstdio>

#include "cpu/core.hh"
#include "sampling/functional.hh"
#include "sampling/sampled.hh"
#include "util/task_pool.hh"
#include "workloads/common.hh"

namespace {

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

int
main()
{
    using namespace pbs;

    const auto &b = workloads::benchmarkByName("pi");
    double detailedMsAt1x = 0.0;

    std::printf("%-6s %-10s %14s %10s %22s %16s\n", "scale", "mode",
                "instructions", "wall_ms", "ipc (95% CI)",
                "mpki (95% CI)");

    for (unsigned mult : {1u, 4u, 16u}) {
        workloads::WorkloadParams p;
        p.seed = 12345;
        p.scale = b.defaultScale * mult;
        isa::Program prog = b.build(p, workloads::Variant::Marked);

        // Detailed baseline: only affordable at 1x.
        if (mult == 1) {
            cpu::CoreConfig cfg;
            cfg.predictor = "tage-sc-l";
            cpu::Core core(prog, cfg);
            auto t0 = std::chrono::steady_clock::now();
            core.run();
            detailedMsAt1x = msSince(t0);
            const auto &s = core.stats();
            std::printf("%-6u %-10s %14llu %10.0f %15.3f %s %10.2f\n",
                        mult, "detailed",
                        (unsigned long long)s.instructions,
                        detailedMsAt1x, s.ipc(), "      ", s.mpki());
        } else {
            std::printf("%-6u %-10s %14s %10.0f  (projected; skipped)\n",
                        mult, "detailed", "-", detailedMsAt1x * mult);
        }

        // Functional: exact architectural results at every scale.
        {
            sampling::FunctionalEngine engine(prog);
            auto t0 = std::chrono::steady_clock::now();
            engine.run();
            double ms = msSince(t0);
            std::printf("%-6u %-10s %14llu %10.0f %15s %17s   pi=%.5f\n",
                        mult, "functional",
                        (unsigned long long)engine.stats().instructions,
                        ms, "-", "-",
                        b.simOutput(engine.memory())[0]);
        }

        // Sampled: timing estimates with confidence intervals.
        {
            cpu::CoreConfig cfg;
            cfg.predictor = "tage-sc-l";
            pool::TaskPool::instance().configure(4);
            auto t0 = std::chrono::steady_clock::now();
            sampling::SampledRun s = sampling::runSampled(prog, cfg);
            double ms = msSince(t0);
            std::printf("%-6u %-10s %14llu %10.0f %9.3f +/- %-6.3f "
                        "%7.2f +/- %-5.2f  (%llu samples)\n",
                        mult, "sampled",
                        (unsigned long long)s.stats.instructions, ms,
                        s.est.ipc, s.est.ipcCi95, s.est.mpki,
                        s.est.mpkiCi95,
                        (unsigned long long)s.est.intervals);
        }
    }

    std::printf(
        "\nAt 16x scale the detailed core would need ~%.1f s; sampled "
        "mode delivers IPC\nand MPKI estimates with tight confidence "
        "intervals in a fraction of that, and\nthe functional pass "
        "guarantees the architectural results stay exact.\n",
        detailedMsAt1x * 16 / 1000.0);
    return 0;
}
