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

#include <cstdio>

#include "exp/engine.hh"
#include "util/task_pool.hh"
#include "workloads/common.hh"

int
main()
{
    using namespace pbs;

    const auto &b = workloads::benchmarkByName("pi");
    double detailedMsAt1x = 0.0;
    // Sampled intervals fan out over 4 workers.
    pool::TaskPool::instance().configure(4);

    std::printf("%-6s %-10s %14s %10s %22s %16s\n", "scale", "mode",
                "instructions", "wall_ms", "ipc (95% CI)",
                "mpki (95% CI)");

    for (unsigned mult : {1u, 4u, 16u}) {
        // Each mode is one point, timed by exp::timePoint: simulation
        // only, after program build.
        exp::ExpPoint pt;
        pt.workload = "pi";
        pt.predictor = "tage-sc-l";
        pt.seed = 12345;
        pt.scale = b.defaultScale * mult;
        auto run = [&](const char *mode) {
            pt.mode = mode;
            return exp::timePoint(pt, 1);
        };

        // Detailed baseline: only affordable at 1x.
        if (mult == 1) {
            const exp::TimedRun r = run("detailed");
            detailedMsAt1x = r.bestMs;
            const auto &s = r.result.stats;
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
            const exp::TimedRun r = run("functional");
            std::printf("%-6u %-10s %14llu %10.0f %15s %17s   pi=%.5f\n",
                        mult, "functional",
                        (unsigned long long)r.result.stats.instructions,
                        r.bestMs, "-", "-", r.result.outputs[0]);
        }

        // Sampled: timing estimates with confidence intervals.
        {
            const exp::TimedRun r = run("sampled");
            const sampling::SampleEstimate &e = r.result.sampling;
            std::printf("%-6u %-10s %14llu %10.0f %9.3f +/- %-6.3f "
                        "%7.2f +/- %-5.2f  (%llu samples)\n",
                        mult, "sampled",
                        (unsigned long long)r.result.stats.instructions,
                        r.bestMs, e.ipc, e.ipcCi95, e.mpki, e.mpkiCi95,
                        (unsigned long long)e.intervals);
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
