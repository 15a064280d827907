/**
 * @file
 * pbs_exp: the experiment engine CLI.
 *
 *   pbs_exp --spec bench/standard.spec --out results.json --jobs 8
 *   pbs_exp --workloads pi,dop --predictors tournament,tage-sc-l \
 *           --pbs off,on --modes sampled --seeds 4 --csv grid.csv
 *   pbs_exp --report fig07 --div 10 --jobs 8
 *   pbs_exp --gc
 *
 * Sweep results are content-address-cached under .pbs-cache/ (see
 * --cache-dir / --no-cache); artifacts are deterministic. One output
 * rule: when no file holds the results, stdout carries them. A sweep
 * writing --out/--csv, or a --shard run, prints its volatile run
 * summary (cache counters, elapsed time) to stdout; a sweep without
 * either file prints the per-point table to stdout and the summary to
 * stderr, as --report does.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "exp/artifact.hh"
#include "exp/cache.hh"
#include "exp/cli.hh"
#include "exp/engine.hh"
#include "exp/pareto.hh"
#include "exp/reports.hh"
#include "exp/spec.hh"
#include "obs/manifest.hh"
#include "obs/obs.hh"
#include "obs/sink.hh"
#include "obs/telemetry.hh"

namespace {

using namespace pbs;

struct ExpCliOptions
{
    std::string specFile;
    /** Axis flags in command-line order, applied over the spec file. */
    std::vector<std::pair<std::string, std::string>> axes;

    std::string out;
    std::string csv;
    std::string report;
    unsigned divisor = 1;
    unsigned jobs = 1;
    bool jobsSet = false;                 ///< --jobs given
    std::string cacheDir = exp::kDefaultCacheDir;
    bool cacheDirSet = false;             ///< --cache-dir given
    bool noCache = false;
    bool campaign = false;
    unsigned shardIndex = 0;              ///< --shard K/N (1-based K)
    unsigned shardCount = 0;              ///< 0 = unsharded
    bool gc = false;
    bool gcAll = false;
    uint64_t gcGrace = exp::kDefaultGcGraceSeconds;
    bool gcGraceSet = false;              ///< --grace given
    bool quiet = false;
    bool list = false;
    bool help = false;

    bool pareto = false;
    unsigned repeats = 1;                 ///< --pareto timing repeats
    bool repeatsSet = false;              ///< --repeats given

    exp::ObsFlags obsFlags;               ///< --trace, --metrics, ...
    bool progress = false;                ///< heartbeat done/total + ETA
    bool logTimestamps = false;           ///< timestamp every sink line
};

const char *kUsage =
    "usage: pbs_exp --spec <file> [axis flags] [output flags]\n"
    "       pbs_exp --workloads <w1,w2,...> [axis flags] [output flags]\n"
    "       pbs_exp --pareto --workloads <list> [axis flags] [--csv F]\n"
    "       pbs_exp --campaign --shard <k/n> [axis flags] [--cache-dir D]\n"
    "       pbs_exp --report <name> [--div N]\n"
    "       pbs_exp --gc [--all] [--grace <seconds>]\n"
    "       pbs_exp --list\n"
    "\n"
    "Sweep axes (comma-separated lists; override the spec file):\n"
    "  --spec <file>        key=value sweep spec (see bench/*.spec)\n"
    "  --workloads <list>   benchmarks, or 'all'\n"
    "  --predictors <list>  direction predictors\n"
    "  --variants <list>    marked | predicated | cfd\n"
    "  --widths <list>      4 | 8\n"
    "  --modes <list>       detailed | functional | sampled | mpki\n"
    "                       (timing = detailed; see README)\n"
    "  --pbs <list>         off | on | no-stall | no-context | no-guard\n"
    "  --scales <list>      explicit iteration counts\n"
    "  --div <n>            divide each workload's default scale\n"
    "  --seed <n>           first seed (default 12345)\n"
    "  --seeds <n>          consecutive seeds per config (default 1)\n"
    "  --sample-interval <n>  sampled: insts between measurements\n"
    "  --sample-warmup <n>    sampled: detailed warmup per sample (>= 1)\n"
    "  --sample-measure <n>   sampled: measured insts per sample\n"
    "  --sample-grid <list>   sampled: interval/warmup/measure triples\n"
    "                       (a true axis over sampled points; drives\n"
    "                       the --pareto sweep)\n"
    "\n"
    "Execution and output:\n"
    "  --jobs <n>           worker threads (default 1)\n"
    "  --out <file>         write the JSON artifact\n"
    "  --csv <file>         write the CSV artifact\n"
    "                       (with neither, stdout carries a per-point\n"
    "                       table and the run summary goes to stderr)\n"
    "  --cache-dir <dir>    result cache location (default .pbs-cache)\n"
    "  --no-cache           disable the result cache\n"
    "  --campaign           make a sampled sweep durable: keep each\n"
    "                       checkpoint set and per-interval sample in\n"
    "                       the cache, so an interrupted sweep resumes\n"
    "                       mid-point and --shard can split it\n"
    "  --shard <k/n>        with --campaign: measure only intervals\n"
    "                       i mod n == k-1 into the cache as partials\n"
    "                       and aggregate nothing; a later unsharded\n"
    "                       campaign over the same cache assembles the\n"
    "                       artifact without re-simulating\n"
    "  --quiet              suppress per-point progress on stderr\n"
    "  --progress           ~1 Hz heartbeat line on stderr (points\n"
    "                       done/total + cost-model ETA; composes with\n"
    "                       --quiet to get only the heartbeat)\n"
    "  --log-timestamps     prefix every progress/warning line with a\n"
    "                       UTC ISO-8601 timestamp and severity\n"
    "  --trace <file>       write a pbs-trace-v1 span timeline (Chrome\n"
    "                       trace-event JSON; load in Perfetto) — one\n"
    "                       track per pool worker\n"
    "  --metrics <file>     write a pbs-metrics-v1 snapshot (cache and\n"
    "                       phase counters, per-worker utilization;\n"
    "                       see docs/observability.md)\n"
    "  --manifest <file>    write a pbs-run-v1 run manifest (argv, code\n"
    "                       salt, FNV-128 hash of every artifact this\n"
    "                       run wrote)\n"
    "  --telemetry <file>   append pbs-timeseries-v1 samples (counters,\n"
    "                       pool stats, RSS) while the run is in flight\n"
    "  --telemetry-interval <ms>  sampler tick period (default 1000)\n"
    "\n"
    "Sampling Pareto sweep (serial and uncached, for clean timing):\n"
    "  --pareto             error-vs-MIPS sweep over the sample grid\n"
    "                       (sampled vs detailed reference; table to\n"
    "                       stdout, --csv for the artifact)\n"
    "  --repeats <n>        --pareto: wall-time repeats per point\n"
    "\n"
    "Maintenance and reports:\n"
    "  --gc                 prune cache entries from other code versions\n"
    "  --gc --all           prune the entire cache\n"
    "  --grace <seconds>    --gc: spare anything modified this recently\n"
    "                       (default 300; 0 prunes unconditionally)\n"
    "  --report <name>      render a fig/table report through the\n"
    "                       cached engine\n"
    "  --list               list workloads, predictors, reports\n";

int
fail(const std::string &msg)
{
    std::fprintf(stderr, "pbs_exp: %s\n%s", msg.c_str(), kUsage);
    return 2;
}

/** @p schema tags the file in the run manifest ("" = schema-less CSV). */
bool
writeFileOrComplain(const std::string &path, const std::string &text,
                    const char *schema = "")
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "pbs_exp: cannot write %s\n", path.c_str());
        return false;
    }
    out << text;
    out.close();  // surface flush errors (e.g. disk full) in good()
    if (!out.good()) {
        std::fprintf(stderr, "pbs_exp: error writing %s\n",
                     path.c_str());
        return false;
    }
    obs::manifestAddArtifact(path, text, schema);
    return true;
}

/**
 * Reject flags the chosen action would silently ignore (exit 2, naming
 * the flag).
 */
int
validateCli(const ExpCliOptions &o)
{
    if (o.help || o.list)
        return 0;
    if (o.pareto) {
        // The Pareto sweep times every point serially and uncached.
        if (o.jobs > 1)
            return fail("--jobs has no effect with --pareto (points run "
                        "serially so their wall times are clean)");
        if (o.campaign)
            return fail("--campaign has no effect with --pareto");
        if (o.cacheDirSet || o.noCache)
            return fail(std::string(o.noCache ? "--no-cache"
                                              : "--cache-dir") +
                        " has no effect with --pareto (the Pareto "
                        "sweep never uses the result cache)");
    } else if (o.repeatsSet) {
        return fail("--repeats applies only to --pareto");
    }
    if (!o.gc && (o.gcAll || o.gcGraceSet))
        return fail(std::string(o.gcAll ? "--all" : "--grace") +
                    " applies only to --gc");
    if (o.shardCount) {
        if (!o.campaign)
            return fail("--shard applies only to --campaign sweeps");
        if (!o.out.empty() || !o.csv.empty())
            return fail(std::string(o.out.empty() ? "--csv" : "--out") +
                        " has no effect with --shard (a shard stores "
                        "partials and aggregates nothing; run the "
                        "unsharded campaign for the artifact)");
        if (o.noCache)
            return fail("--no-cache has no effect with --shard (a shard "
                        "exists to fill the shared cache)");
        if (!o.report.empty())
            return fail("--shard applies to sweeps, not --report");
    }
    if (o.campaign) {
        if (o.noCache)
            return fail("--campaign has no effect with --no-cache (a "
                        "campaign keeps its work in the cache)");
        if (!o.report.empty() || o.gc)
            return fail(std::string("--campaign applies to sweeps, not ") +
                        (o.gc ? "--gc" : "--report"));
    }
    if (o.gc) {
        if (!o.specFile.empty() || !o.axes.empty() || !o.out.empty() ||
            !o.csv.empty() || !o.report.empty()) {
            return fail("--gc only prunes the cache; run the sweep or "
                        "report as a separate invocation");
        }
        // gc runs no points and prints one summary line: the sweep's
        // worker count, progress lines and their timestamps do nothing.
        const char *ignored = o.jobsSet        ? "--jobs"
                              : o.progress     ? "--progress"
                              : o.quiet        ? "--quiet"
                              : o.logTimestamps ? "--log-timestamps"
                              : o.noCache      ? "--no-cache"
                                               : nullptr;
        if (ignored)
            return fail(std::string(ignored) + " has no effect with --gc");
    }
    return 0;
}

int
parseCli(int argc, char **argv, ExpCliOptions &o)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    size_t i = 0;
    std::string v;
    auto takeValue = [&](const std::string &, const char *key) {
        return exp::takeOptionValue(args, i, key, v);
    };

    // Axis flags map straight onto spec keys.
    struct AxisFlag
    {
        const char *flag;
        const char *key;
    };
    const AxisFlag axisFlags[] = {
        {"--workloads", "workload"},  {"--workload", "workload"},
        {"--predictors", "predictor"}, {"--predictor", "predictor"},
        {"--variants", "variant"},    {"--widths", "width"},
        {"--modes", "mode"},          {"--mode", "mode"},
        {"--pbs", "pbs"},             {"--scales", "scale"},
        {"--scale", "scale"},         {"--seed", "seed"},
        {"--seeds", "seeds"},
        {"--sample-interval", "sample-interval"},
        {"--sample-warmup", "sample-warmup"},
        {"--sample-measure", "sample-measure"},
        {"--sample-grid", "sample-grid"},
    };

    for (i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        int m;
        std::string err;
        if ((m = o.obsFlags.take(args, i, err)) != 0) {
            if (m < 0)
                return fail(err);
            continue;
        }
        if (arg == "--help" || arg == "-h") {
            o.help = true;
            continue;
        }
        if (arg == "--list") {
            o.list = true;
            continue;
        }
        if (arg == "--gc") {
            o.gc = true;
            continue;
        }
        if (arg == "--pareto") {
            o.pareto = true;
            continue;
        }
        if ((m = takeValue(arg, "--repeats")) != 0) {
            if (m < 0 || !exp::parseUnsignedArg(v, o.repeats) ||
                o.repeats == 0)
                return fail("bad --repeats value");
            o.repeatsSet = true;
            continue;
        }
        if (arg == "--all") {
            o.gcAll = true;
            continue;
        }
        if (arg == "--no-cache") {
            o.noCache = true;
            continue;
        }
        if (arg == "--campaign") {
            o.campaign = true;
            continue;
        }
        if ((m = takeValue(arg, "--shard")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            const size_t slash = v.find('/');
            uint64_t k = 0, n = 0;
            if (slash == std::string::npos ||
                !exp::parseU64Arg(v.substr(0, slash), k) ||
                !exp::parseU64Arg(v.substr(slash + 1), n)) {
                return fail("--shard value must be K/N (e.g. 1/2): " +
                            v);
            }
            if (n == 0 || k == 0 || k > n || n > 0xffffffffull) {
                return fail("--shard index out of range: " + v +
                            " (need 1 <= K <= N)");
            }
            o.shardIndex = unsigned(k);
            o.shardCount = unsigned(n);
            continue;
        }
        if ((m = takeValue(arg, "--grace")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!exp::parseU64Arg(v, o.gcGrace))
                return fail("bad --grace value: " + v);
            o.gcGraceSet = true;
            continue;
        }
        if (arg == "--quiet") {
            o.quiet = true;
            continue;
        }
        if (arg == "--progress") {
            o.progress = true;
            continue;
        }
        if (arg == "--log-timestamps") {
            o.logTimestamps = true;
            continue;
        }
        if ((m = takeValue(arg, "--spec")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            o.specFile = v;
            continue;
        }
        if ((m = takeValue(arg, "--out")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            o.out = v;
            continue;
        }
        if ((m = takeValue(arg, "--csv")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            o.csv = v;
            continue;
        }
        if ((m = takeValue(arg, "--report")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            o.report = v;
            continue;
        }
        if ((m = takeValue(arg, "--cache-dir")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            o.cacheDir = v;
            o.cacheDirSet = true;
            continue;
        }
        if ((m = takeValue(arg, "--jobs")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!exp::parseUnsignedArg(v, o.jobs) || o.jobs == 0)
                return fail("bad --jobs value: " + v);
            o.jobsSet = true;
            continue;
        }
        if ((m = takeValue(arg, "--div")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!exp::parseUnsignedArg(v, o.divisor) ||
                o.divisor == 0) {
                return fail("bad --div value: " + v);
            }
            o.axes.emplace_back("div", v);
            continue;
        }

        bool matched = false;
        for (const auto &axis : axisFlags) {
            if ((m = takeValue(arg, axis.flag)) != 0) {
                if (m < 0)
                    return fail(arg + " needs a value");
                // Validate eagerly so bad flags fail before any work.
                exp::SweepSpec probe;
                std::string err = exp::applySpecKey(probe, axis.key, v);
                if (!err.empty())
                    return fail(std::string(axis.flag) + ": " + err);
                o.axes.emplace_back(axis.key, v);
                matched = true;
                break;
            }
        }
        if (!matched)
            return fail("unknown option: " + arg);
    }
    return validateCli(o);
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
    for (const auto &p : bpred::predictorNames())
        std::printf("  %s\n", p.c_str());
    std::printf("reports:\n");
    for (const auto &r : exp::allReports())
        std::printf("  %-10s %s\n", r.name.c_str(), r.title.c_str());
    std::printf("spec keys: workload predictor variant width mode pbs "
                "scale div seed seeds sample-interval sample-warmup "
                "sample-measure sample-grid\n");
}

/**
 * Reject axis values the sweep would silently ignore (exit 2, naming
 * the flag, or the spec key when the spec file set it): sample-* keys
 * and --campaign on a grid with no sampled mode, and PBS on a
 * functional-only grid (the functional engine executes with PBS-off
 * semantics).
 */
int
rejectIgnoredAxes(const exp::SweepSpec &spec, const ExpCliOptions &o)
{
    auto name = [&](const std::string &key) {
        for (const auto &kv : o.axes) {
            if (kv.first == key)
                return "--" + key;
        }
        return o.specFile + ": " + key;
    };
    const std::string sampleKey = exp::ignoredSampleKey(spec);
    if (!sampleKey.empty())
        return fail(name(sampleKey) + " applies only to sampled points "
                    "(the grid has no sampled mode)");
    const auto &modes = spec.modes;
    if (o.campaign &&
        std::find(modes.begin(), modes.end(), "sampled") == modes.end())
        return fail("--campaign applies only to sampled points (the "
                    "grid has no sampled mode)");
    const bool functionalOnly =
        std::all_of(modes.begin(), modes.end(),
                    [](const std::string &m) { return m == "functional"; });
    for (const auto &pbs : spec.pbsModes) {
        if (functionalOnly && pbs != "off")
            return fail(name("pbs") + ": '" + pbs + "' has no effect in "
                        "functional mode (architectural execution, "
                        "PBS-off semantics); use mpki, detailed or "
                        "sampled");
    }
    return 0;
}

/** Write the observability artifacts, with the engine's counters. */
void
finishObs(const ExpCliOptions &o, const exp::Engine *engine)
{
    if (engine)
        exp::recordEngineMetrics(engine->counters());
    o.obsFlags.finish("pbs_exp");
}

}  // namespace

int
main(int argc, char **argv)
{
    obs::manifestBegin("pbs_exp", argc, argv);
    ExpCliOptions o;
    if (int rc = parseCli(argc, argv, o))
        return rc;

    if (o.help) {
        std::printf("%s", kUsage);
        return 0;
    }
    if (o.list) {
        printLists();
        return 0;
    }

    const std::string cacheDir = o.noCache ? "" : o.cacheDir;

    o.obsFlags.start("pbs_exp");
    if (o.logTimestamps)
        obs::setSinkTimestamps(true);

    if (o.gc) {
        exp::ResultCache cache(cacheDir);
        auto r = cache.gc(o.gcAll, o.gcGrace);
        std::printf("{\"schema\":\"pbs-exp-gc-v1\",\"kept\":%llu,"
                    "\"removed\":%llu}\n",
                    (unsigned long long)r.kept,
                    (unsigned long long)r.removed);
        return 0;
    }

    exp::EngineConfig ecfg;
    ecfg.cacheDir = cacheDir;
    ecfg.jobs = o.jobs;
    ecfg.progress = !o.quiet;
    ecfg.campaign = o.campaign;
    ecfg.heartbeat = o.progress;
    ecfg.shardIndex = o.shardIndex;
    ecfg.shardCount = o.shardCount;
    exp::Engine engine(ecfg);

    try {
        if (!o.report.empty()) {
            // A report's grid is fixed by the report itself (--div is
            // the one shared knob).
            bool nonDivAxis = false;
            for (const auto &kv : o.axes)
                nonDivAxis = nonDivAxis || kv.first != "div";
            if (!o.specFile.empty() || nonDivAxis)
                return fail("--spec and axis flags have no effect with "
                            "--report");
            if (!o.out.empty() || !o.csv.empty())
                return fail("--out/--csv have no effect with --report "
                            "(reports print to stdout)");
            // Reports print to stdout; keep the summary on stderr.
            exp::ReportContext ctx{engine, o.divisor};
            int rc = exp::runReport(o.report, ctx);
            std::fprintf(stderr, "%s",
                         exp::runSummaryJson(engine.counters(), 0, 0,
                                             "", "").c_str());
            finishObs(o, &engine);
            return rc;
        }

        if (o.specFile.empty() && o.axes.empty())
            return fail("one of --spec, axis flags, --pareto, "
                        "--report, or --gc is required");

        exp::SweepSpec spec;
        if (!o.specFile.empty()) {
            auto parsed = exp::parseSpecFile(o.specFile);
            if (!parsed.ok)
                return fail(parsed.error);
            spec = parsed.spec;
        }
        // Explicitly-passed CLI axes override the file, in CLI order.
        for (const auto &[key, value] : o.axes) {
            std::string err = exp::applySpecKey(spec, key, value);
            if (!err.empty())
                return fail(err);
        }

        if (o.pareto) {
            if (!o.out.empty())
                return fail("--pareto prints a table to stdout; --csv "
                            "writes the artifact");
            exp::ParetoConfig pcfg;
            pcfg.spec = spec;
            pcfg.repeats = o.repeats;
            pcfg.progress = !o.quiet;
            const auto rows = exp::runParetoSweep(pcfg);
            std::printf("%s", exp::paretoTable(rows).c_str());
            if (!o.csv.empty() &&
                !writeFileOrComplain(o.csv, exp::paretoCsv(rows)))
                return 1;
            finishObs(o, nullptr);
            return 0;
        }

        if (int rc = rejectIgnoredAxes(spec, o))
            return rc;
        auto expanded = exp::expandSpec(spec);
        if (!expanded.ok)
            return fail(expanded.error);

        const auto t0 = std::chrono::steady_clock::now();
        {
            obs::Span span("sweep");
            engine.runAll(expanded.points);
        }
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();

        // No file holds the results: stdout carries the table.
        const bool tableOut =
            o.out.empty() && o.csv.empty() && o.shardCount == 0;
        {
            obs::Span span("artifact");
            if (tableOut) {
                std::printf("%s", exp::sweepTable(expanded.points, engine)
                                      .c_str());
            }
            if (!o.out.empty()) {
                auto text = exp::sweepJson(expanded.points, engine,
                                           exp::specJson(spec));
                if (!writeFileOrComplain(o.out, text, "pbs-sweep-v1"))
                    return 1;
            }
            if (!o.csv.empty()) {
                auto text = exp::sweepCsv(expanded.points, engine);
                if (!writeFileOrComplain(o.csv, text))
                    return 1;
            }
        }

        std::fprintf(tableOut ? stderr : stdout, "%s",
                     exp::runSummaryJson(engine.counters(),
                                         expanded.points.size(),
                                         uint64_t(elapsed), o.out, o.csv)
                         .c_str());
        finishObs(o, &engine);
        return 0;
    } catch (const std::exception &e) {
        // Join the sampler before static destruction tears down its
        // state under a live thread.
        obs::telemetryStop();
        std::fprintf(stderr, "pbs_exp: %s\n", e.what());
        return 1;
    }
}
