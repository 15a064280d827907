#include "exp/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "exp/cache.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/telemetry.hh"
#include "util/task_pool.hh"

namespace pbs::exp {

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

int
ObsFlags::take(const std::vector<std::string> &args, size_t &i,
               std::string &error)
{
    struct FileFlag
    {
        const char *flag;
        std::string ObsFlags::*file;
    };
    static const FileFlag files[] = {
        {"--trace", &ObsFlags::traceFile},
        {"--metrics", &ObsFlags::metricsFile},
        {"--manifest", &ObsFlags::manifestFile},
        {"--telemetry", &ObsFlags::telemetryFile},
    };
    std::string v;
    for (const FileFlag &f : files) {
        const int m = takeOptionValue(args, i, f.flag, v);
        if (m == 0)
            continue;
        if (m < 0 || v.empty()) {
            error = std::string(f.flag) + " needs an output file";
            return -1;
        }
        this->*f.file = v;
        return 1;
    }
    const int m = takeOptionValue(args, i, "--telemetry-interval", v);
    if (m == 0)
        return 0;
    if (m < 0 || !parseU64Arg(v, telemetryIntervalMs) ||
        telemetryIntervalMs == 0) {
        error = "--telemetry-interval: bad value (ms, >= 1)";
        return -1;
    }
    return 1;
}

void
ObsFlags::start(const char *prog) const
{
    obs::Options o;
    o.trace = !traceFile.empty();
    o.metrics = !metricsFile.empty();
    if (o.trace || o.metrics)
        obs::enable(o);
    if (!manifestFile.empty())
        obs::manifestEnable();
    if (!telemetryFile.empty() &&
        !obs::telemetryStart(telemetryFile, telemetryIntervalMs)) {
        std::fprintf(stderr, "%s: warning: cannot write telemetry %s\n",
                     prog, telemetryFile.c_str());
    }
}

void
ObsFlags::finish(const char *prog) const
{
    pool::recordPoolMetrics();
    obs::telemetryStop();
    if (!traceFile.empty() && !obs::writeTrace(traceFile))
        std::fprintf(stderr, "%s: warning: cannot write trace %s\n", prog,
                     traceFile.c_str());
    if (!metricsFile.empty() && !obs::writeMetrics(metricsFile))
        std::fprintf(stderr, "%s: warning: cannot write metrics %s\n",
                     prog, metricsFile.c_str());
    if (manifestFile.empty())
        return;
    const pool::TaskPool &p = pool::TaskPool::instance();
    obs::manifestSetSalt(versionSalt());
    obs::manifestSetJobs(p.jobs());
    obs::manifestSetPolicy(p.policy() == pool::Policy::Static ? "static"
                                                              : "steal");
    if (!obs::writeManifest(manifestFile))
        std::fprintf(stderr, "%s: warning: cannot write manifest %s\n",
                     prog, manifestFile.c_str());
}

}  // namespace pbs::exp
