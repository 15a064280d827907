#include "jobs.hh"

#include <algorithm>
#include <stdexcept>

#include "driver/reports.hh"
#include "workloads/common.hh"

namespace perfbench {

using pbs::exp::ExpPoint;

namespace {

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
addPoint(Job &job, ExpPoint pt)
{
    job.keys.push_back(pointKey(pt));
    job.points.push_back(std::move(pt));
}

/** Every point in its own group (the point-at-a-time jobs). */
void
groupEachPoint(Job &job)
{
    for (size_t i = 0; i < job.points.size(); i++)
        job.groups.push_back({i});
}

Job
fig07Job(unsigned pool, unsigned div)
{
    Job job;
    job.name = "fig07-detailed";
    for (const auto &b : pbs::workloads::allBenchmarks()) {
        for (const char *pred : {"tournament", "tage-sc-l"}) {
            for (bool pbs : {false, true}) {
                if (b.name == "genetic") {
                    for (unsigned s = 1; s <= 8; s++) {
                        addPoint(job, pbs::driver::timingPoint(
                                          b, pred, pbs, false, div,
                                          programSeed(pool, s)));
                    }
                } else {
                    addPoint(job, pbs::driver::timingPoint(
                                      b, pred, pbs, false, div,
                                      programSeed(pool, 0)));
                }
            }
        }
    }
    groupEachPoint(job);
    return job;
}

Job
zooJob(unsigned pool, unsigned div)
{
    Job job;
    job.name = "zoo-mpki";
    const uint64_t seed = programSeed(pool, 0);
    for (const auto &b : pbs::workloads::allBenchmarks()) {
        for (const std::string &pred : zooPredictors()) {
            addPoint(job, pbs::driver::functionalPoint(b, pred, false, div,
                                                       seed));
        }
        for (const char *pred : {"tournament", "tage-sc-l"})
            addPoint(job, pbs::driver::functionalPoint(b, pred, true, div,
                                                       seed));
    }
    groupEachPoint(job);
    return job;
}

Job
sampledJob(unsigned pool, unsigned div)
{
    Job job;
    job.name = "sampled-campaign";
    job.jobs = 2;
    job.campaign = true;
    // Two seeds per workload: the input set's own and the anchor, which
    // is never the tuning seed 12345.
    for (const auto &b : pbs::workloads::allBenchmarks()) {
        for (uint64_t seed : {programSeed(pool, 0), kCampaignAnchorSeed}) {
            std::vector<size_t> group;
            for (const char *pred : {"tournament", "tage-sc-l"}) {
                for (bool pbs : {false, true}) {
                    ExpPoint pt = pbs::driver::timingPoint(
                        b, pred, pbs, false, 1, seed);
                    pt.mode = "sampled";
                    pt.scale = std::max<uint64_t>(
                        1, 2 * b.defaultScale / div);
                    group.push_back(job.points.size());
                    addPoint(job, pt);
                }
            }
            job.groups.push_back(std::move(group));
        }
    }
    return job;
}

}  // namespace

unsigned
poolIndex(uint64_t benchSeed)
{
    return unsigned(benchSeed % kOraclePool);
}

uint64_t
programSeed(unsigned pool, unsigned slot)
{
    if (pool == 0)
        return slot == 0 ? 12345 : slot;
    return 1 + splitmix64(uint64_t(pool) * 1000 + slot) % 999'999'999ull;
}

const std::vector<std::string> &
jobNames()
{
    static const std::vector<std::string> names = {
        "fig07-detailed", "zoo-mpki", "sampled-campaign"};
    return names;
}

const std::vector<std::string> &
zooPredictors()
{
    static const std::vector<std::string> preds = {
        "bimodal", "gshare", "local", "loop",
        "tournament", "tage", "tage-sc-l", "perfect"};
    return preds;
}

Job
makeJob(const std::string &name, unsigned pool, unsigned divisor)
{
    if (divisor == 0)
        divisor = 1;
    if (name == "fig07-detailed")
        return fig07Job(pool, divisor);
    if (name == "zoo-mpki")
        return zooJob(pool, divisor);
    if (name == "sampled-campaign")
        return sampledJob(pool, divisor);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string
pointKey(const ExpPoint &pt)
{
    return pt.workload + "|" + pt.predictor + "|" + (pt.pbs ? "pbs" : "-") +
           "|" + std::to_string(pt.seed);
}

ExpPoint
detailedReference(const ExpPoint &pt)
{
    ExpPoint ref = pt;
    ref.mode = "detailed";
    ref.sampleInterval = ref.sampleWarmup = ref.sampleMeasure = 0;
    return ref;
}

}  // namespace perfbench
