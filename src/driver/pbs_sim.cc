/**
 * @file
 * pbs_sim: single runs and multi-seed batches, a thin front end over
 * the experiment engine (driver/runner.hh).
 *
 *   pbs_sim --workload pi --predictor tage_scl --seeds 8 --jobs 4
 *   pbs_sim --list
 */

#include <cstdio>
#include <exception>

#include "driver/options.hh"
#include "driver/runner.hh"
#include "exp/cache.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/telemetry.hh"
#include "util/task_pool.hh"

namespace {

using namespace pbs;

/** Write the requested observability artifacts (after the run). */
void
writeObsArtifacts(const driver::DriverOptions &opts)
{
    pool::recordPoolMetrics();
    // Stop the sampler before the manifest goes out: its final sample
    // must be on disk (and registered) for the artifact list to be
    // complete.
    obs::telemetryStop();
    if (!opts.traceFile.empty() && !obs::writeTrace(opts.traceFile))
        std::fprintf(stderr, "pbs_sim: warning: cannot write trace %s\n",
                     opts.traceFile.c_str());
    if (!opts.metricsFile.empty() &&
        !obs::writeMetrics(opts.metricsFile)) {
        std::fprintf(stderr,
                     "pbs_sim: warning: cannot write metrics %s\n",
                     opts.metricsFile.c_str());
    }
    if (!opts.manifestFile.empty()) {
        obs::manifestSetSalt(exp::versionSalt());
        obs::manifestSetJobs(pool::TaskPool::instance().jobs());
        obs::manifestSetPolicy(pool::TaskPool::instance().policy() ==
                                       pool::Policy::Static
                                   ? "static"
                                   : "steal");
        if (!obs::writeManifest(opts.manifestFile))
            std::fprintf(stderr,
                         "pbs_sim: warning: cannot write manifest %s\n",
                         opts.manifestFile.c_str());
    }
}

void
printLists()
{
    std::printf("workloads:\n");
    for (const auto &b : workloads::allBenchmarks())
        std::printf("  %-12s (category %d, %u prob. branch%s)\n",
                    b.name.c_str(), b.category, b.numProbBranches,
                    b.numProbBranches == 1 ? "" : "es");
    std::printf("predictors:\n");
    for (const auto &p : driver::predictorNames())
        std::printf("  %s\n", p.c_str());
}

}  // namespace

int
main(int argc, char **argv)
{
    obs::manifestBegin("pbs_sim", argc, argv);
    auto parsed = driver::parseArgs(argc, argv);
    if (!parsed.ok) {
        std::fprintf(stderr, "pbs_sim: %s\n%s", parsed.error.c_str(),
                     driver::usageText().c_str());
        return 2;
    }
    const driver::DriverOptions &opts = parsed.opts;

    if (opts.help) {
        std::printf("%s", driver::usageText().c_str());
        return 0;
    }
    if (opts.list) {
        printLists();
        return 0;
    }

    obs::Options obsOpts;
    obsOpts.trace = !opts.traceFile.empty();
    obsOpts.metrics = !opts.metricsFile.empty();
    if (obsOpts.trace || obsOpts.metrics)
        obs::enable(obsOpts);
    if (!opts.manifestFile.empty())
        obs::manifestEnable();
    if (!opts.telemetryFile.empty() &&
        !obs::telemetryStart(opts.telemetryFile,
                             opts.telemetryIntervalMs)) {
        std::fprintf(stderr,
                     "pbs_sim: warning: cannot write telemetry %s\n",
                     opts.telemetryFile.c_str());
    }

    try {
        if (opts.format == "json") {
            std::printf("%s", driver::batchJson(
                                  opts, driver::measureBatch(opts))
                                  .c_str());
        } else {
            driver::runWorkload(opts);
        }
        writeObsArtifacts(opts);
        return 0;
    } catch (const std::exception &e) {
        // Join the sampler before static destruction tears down its
        // state under a live thread.
        obs::telemetryStop();
        std::fprintf(stderr, "pbs_sim: %s\n", e.what());
        return 1;
    }
}
