#include "driver/options.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace pbs::driver {

int
takeOptionValue(const std::vector<std::string> &args, size_t &i,
                const char *key, std::string &value)
{
    const std::string &arg = args[i];
    const std::string prefix = std::string(key) + "=";
    if (arg.rfind(prefix, 0) == 0) {
        value = arg.substr(prefix.size());
        return 1;
    }
    if (arg != key)
        return 0;
    if (i + 1 >= args.size())
        return -1;
    value = args[++i];
    return 1;
}

bool
parseU64Arg(const std::string &s, uint64_t &out)
{
    // Reject signs ourselves: strtoull silently wraps "-1".
    if (s.empty() || s[0] == '-' || s[0] == '+')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (errno == ERANGE || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseUnsignedArg(const std::string &s, unsigned &out)
{
    uint64_t v;
    if (!parseU64Arg(s, v) || v > 0xffffffffull)
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

std::string
canonicalPredictor(const std::string &name)
{
    std::string n;
    n.reserve(name.size());
    for (char c : name)
        n.push_back(c == '_' ? '-' : char(std::tolower(
                        static_cast<unsigned char>(c))));
    // Aliases for the TAGE-SC-L spelling.
    if (n == "tage-scl" || n == "tagescl" || n == "tage-sc-l")
        n = "tage-sc-l";
    if (n == "tour")
        n = "tournament";
    if (n == "taken")
        n = "always-taken";
    if (n == "not-taken")
        n = "always-not-taken";
    for (const auto &known : predictorNames()) {
        if (n == known)
            return known;
    }
    return "";
}

const std::vector<std::string> &
predictorNames()
{
    static const std::vector<std::string> names = {
        "bimodal", "gshare", "local", "loop", "tournament", "tage",
        "tage-sc-l", "always-taken", "always-not-taken", "random",
        "perfect",
    };
    return names;
}

ParseResult
parseArgs(int argc, const char *const *argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; i++)
        args.emplace_back(argv[i]);
    return parseArgs(args);
}

ParseResult
parseArgs(const std::vector<std::string> &args)
{
    ParseResult r;
    DriverOptions &o = r.opts;

    auto fail = [&](const std::string &msg) {
        r.ok = false;
        r.error = msg;
        return r;
    };

    // "--key value" / "--key=value": 1 = matched (value in @p v),
    // 0 = different option, -1 = key given without a value.
    size_t i = 0;
    std::string v;
    auto takeValue = [&](const std::string &, const char *key) {
        return takeOptionValue(args, i, key, v);
    };

    for (i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        int m;

        if (arg == "--help" || arg == "-h") {
            o.help = true;
        } else if (arg == "--list") {
            o.list = true;
        } else if (arg == "--pbs") {
            o.pbs = true;
        } else if (arg == "--no-pbs") {
            o.pbs = false;
        } else if (arg == "--wide") {
            o.wide = true;
        } else if (arg == "--no-stall") {
            o.noStall = true;
        } else if (arg == "--no-context") {
            o.noContext = true;
        } else if (arg == "--no-guard") {
            o.noGuard = true;
        } else if ((m = takeValue(arg, "--trace")) != 0) {
            if (m < 0 || v.empty())
                return fail("--trace needs an output file (the span "
                            "timeline)");
            o.traceFile = v;
        } else if ((m = takeValue(arg, "--metrics")) != 0) {
            if (m < 0 || v.empty())
                return fail(arg + " needs an output file");
            o.metricsFile = v;
        } else if ((m = takeValue(arg, "--manifest")) != 0) {
            if (m < 0 || v.empty())
                return fail(arg + " needs an output file");
            o.manifestFile = v;
        } else if ((m = takeValue(arg, "--telemetry")) != 0) {
            if (m < 0 || v.empty())
                return fail(arg + " needs an output file");
            o.telemetryFile = v;
        } else if ((m = takeValue(arg, "--telemetry-interval")) != 0) {
            if (m < 0 || !parseU64Arg(v, o.telemetryIntervalMs) ||
                o.telemetryIntervalMs == 0) {
                return fail("bad --telemetry-interval value (ms, >= 1)");
            }
        } else if ((m = takeValue(arg, "--workload")) != 0 ||
                   (m = takeValue(arg, "--benchmark")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            o.workload = v;
        } else if ((m = takeValue(arg, "--predictor")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            o.predictor = v;
        } else if ((m = takeValue(arg, "--mode")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (v == "mpki") {
                // The detailed core without timing (predictors and PBS
                // still update).
                o.mode = "detailed";
                o.functional = true;
            } else if (v == "detailed" || v == "functional" ||
                       v == "sampled") {
                o.mode = v;
                o.functional = false;  // the last --mode wins
            } else {
                return fail("--mode: unknown mode '" + v + "' (expected "
                            "detailed, functional, sampled or mpki)");
            }
        } else if ((m = takeValue(arg, "--sample-interval")) != 0) {
            if (m < 0 || !parseU64Arg(v, o.sampleInterval) ||
                o.sampleInterval == 0) {
                return fail("bad --sample-interval value");
            }
        } else if ((m = takeValue(arg, "--sample-warmup")) != 0) {
            if (m < 0 || !parseU64Arg(v, o.sampleWarmup))
                return fail("bad --sample-warmup value");
        } else if ((m = takeValue(arg, "--sample-measure")) != 0) {
            if (m < 0 || !parseU64Arg(v, o.sampleMeasure) ||
                o.sampleMeasure == 0) {
                return fail("bad --sample-measure value");
            }
        } else if ((m = takeValue(arg, "--variant")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (v == "marked")
                o.variant = workloads::Variant::Marked;
            else if (v == "predicated")
                o.variant = workloads::Variant::Predicated;
            else if (v == "cfd")
                o.variant = workloads::Variant::Cfd;
            else
                return fail("unknown variant: " + v);
        } else if ((m = takeValue(arg, "--scale")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!parseU64Arg(v, o.scale))
                return fail("bad --scale value: " + v);
        } else if ((m = takeValue(arg, "--div")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!parseUnsignedArg(v, o.divisor) || o.divisor == 0)
                return fail("bad --div value: " + v);
        } else if ((m = takeValue(arg, "--seed")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!parseU64Arg(v, o.seed))
                return fail("bad --seed value: " + v);
        } else if ((m = takeValue(arg, "--seeds")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!parseUnsignedArg(v, o.seeds) || o.seeds == 0)
                return fail("bad --seeds value: " + v);
        } else if ((m = takeValue(arg, "--jobs")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (!parseUnsignedArg(v, o.jobs) || o.jobs == 0)
                return fail("bad --jobs value: " + v);
        } else if ((m = takeValue(arg, "--format")) != 0) {
            if (m < 0)
                return fail(arg + " needs a value");
            if (v != "text" && v != "json")
                return fail("bad --format value: " + v +
                            " (expected text or json)");
            o.format = v;
        } else if (!arg.empty() && arg[0] != '-' && o.workload.empty()) {
            // Positional benchmark name.
            o.workload = arg;
        } else {
            return fail("unknown option: " + arg);
        }
    }

    if (o.help || o.list) {
        r.ok = true;
        return r;
    }

    if (o.workload.empty()) {
        return fail("--workload is required (the fig/table reports "
                    "render through pbs_exp --report)");
    }

    if (o.pbs && o.mode == "functional") {
        return fail("--mode functional executes architecturally only "
                    "(PBS-off semantics); drop --pbs or use --mode "
                    "sampled/detailed");
    }
    if (o.mode != "sampled" &&
        (o.sampleInterval || o.sampleWarmup || o.sampleMeasure)) {
        return fail("--sample-* options require --mode sampled");
    }

    const std::string canon = canonicalPredictor(o.predictor);
    if (canon.empty())
        return fail("unknown predictor: " + o.predictor);
    o.predictor = canon;
    try {
        workloads::benchmarkByName(o.workload);
    } catch (const std::invalid_argument &e) {
        return fail(e.what());
    }

    r.ok = true;
    return r;
}

std::string
usageText()
{
    std::ostringstream os;
    os <<
        "usage: pbs_sim --workload <name> [options]\n"
        "       pbs_sim --list\n"
        "\n"
        "Simulation options:\n"
        "  --workload <name>    benchmark to run (see --list)\n"
        "  --predictor <name>   direction predictor (default tage-sc-l;\n"
        "                       '_' and case are normalized, so tage_scl"
        " works)\n"
        "  --pbs                enable Probabilistic Branch Support\n"
        "  --no-stall           PBS: fall back to prediction under"
        " pressure\n"
        "  --no-context         PBS: disable the Context-Table\n"
        "  --no-guard           PBS: disable the Const-Val guard\n"
        "  --wide               8-wide / 256-entry-ROB core\n"
        "  --mode <m>           detailed (default) | functional |\n"
        "                       sampled | mpki\n"
        "                       (see README \"Simulation modes\")\n"
        "  --sample-interval <n>  sampled: insts between measurements\n"
        "  --sample-warmup <n>    sampled: detailed warmup per sample\n"
        "  --sample-measure <n>   sampled: measured insts per sample\n"
        "  --variant <v>        marked | predicated | cfd\n"
        "  --scale <n>          iteration count (0 = workload default)\n"
        "  --div <n>            divide the default scale by n\n"
        "\n"
        "Observability (docs/observability.md):\n"
        "  --trace <file>       write a pbs-trace-v1 span timeline\n"
        "                       (Chrome trace-event JSON; load in\n"
        "                       Perfetto or chrome://tracing)\n"
        "  --metrics <file>     write a pbs-metrics-v1 snapshot\n"
        "                       (counters, per-phase wall time,\n"
        "                       per-worker utilization)\n"
        "  --manifest <file>    write a pbs-run-v1 run manifest (argv,\n"
        "                       code salt, FNV-128 hash of every\n"
        "                       artifact this run wrote)\n"
        "  --telemetry <file>   append pbs-timeseries-v1 samples\n"
        "                       (counters, pool stats, RSS) while the\n"
        "                       run is in flight\n"
        "  --telemetry-interval <ms>  sampler tick period\n"
        "                       (default 1000)\n"
        "\n"
        "Batch options:\n"
        "  --seed <n>           first seed (default 12345)\n"
        "  --seeds <n>          run n consecutive seeds (default 1)\n"
        "  --jobs <n>           worker threads for the batch (default 1)\n"
        "  --format <f>         batch output: text (default) or json\n"
        "                       (the pbs-batch-v2 schema; see README)\n"
        "\n"
        "The paper's fig/table reports: pbs_exp --report <name>.\n";
    return os.str();
}

}  // namespace pbs::driver
