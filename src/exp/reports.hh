/**
 * @file
 * Registry of the paper's fig/table reports, rendered by
 * `pbs_exp --report <name>`.
 *
 * Every report is a sweep spec + a formatter: it declares its grid of
 * ExpPoints, warms them through the experiment engine (parallel,
 * optionally disk-cached), and renders its tables from the cached
 * measurements. The numbers are identical whether the engine computes
 * a point or replays it from `.pbs-cache/`.
 */

#ifndef PBS_EXP_REPORTS_HH
#define PBS_EXP_REPORTS_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/engine.hh"
#include "exp/point.hh"
#include "workloads/common.hh"

namespace pbs::exp {

/** Everything a report implementation needs. */
struct ReportContext
{
    exp::Engine &engine;
    unsigned divisor = 1;
};

/** One fig/table harness. */
struct Report
{
    std::string name;    ///< CLI name, e.g. "fig07"
    std::string title;   ///< one-line description
    int (*fn)(ReportContext &ctx);
};

/** All reports, in paper order. */
const std::vector<Report> &allReports();

/**
 * Run report @p name against @p ctx's engine.
 * @return the report's exit code; 2 when the name is unknown.
 */
int runReport(const std::string &name, ReportContext &ctx);

/** Workload parameters at a harness scale divisor. */
inline workloads::WorkloadParams
paramsFor(const workloads::BenchmarkDesc &b, unsigned divisor,
          uint64_t seed = 12345)
{
    workloads::WorkloadParams p;
    p.seed = seed;
    p.scale = std::max<uint64_t>(1, b.defaultScale / divisor);
    return p;
}

/** Print a standard harness banner. */
inline void
banner(const std::string &title, unsigned divisor)
{
    std::printf("=== %s ===\n", title.c_str());
    if (divisor != 1)
        std::printf("(workload scales divided by %u)\n", divisor);
    std::printf("\n");
}

// Point builders for the harness configurations.

/** Timing-model point at a harness scale divisor. */
exp::ExpPoint timingPoint(const workloads::BenchmarkDesc &b,
                          const std::string &predictor, bool pbs,
                          bool wide, unsigned divisor,
                          uint64_t seed = 12345);

/** Functional-model point (MPKI/accuracy experiments). */
exp::ExpPoint functionalPoint(const workloads::BenchmarkDesc &b,
                              const std::string &predictor, bool pbs,
                              unsigned divisor, uint64_t seed = 12345);

/** Randomness-battery point (Table III protocol). */
exp::ExpPoint randPoint(const workloads::BenchmarkDesc &b, bool pbs,
                        unsigned divisor, uint64_t seed);

// Report implementations (src/exp/reports/).
int reportFig01(ReportContext &ctx);
int reportFig06(ReportContext &ctx);
int reportFig07(ReportContext &ctx);
int reportFig08(ReportContext &ctx);
int reportFig09(ReportContext &ctx);
int reportTable1(ReportContext &ctx);
int reportTable2(ReportContext &ctx);
int reportTable3(ReportContext &ctx);
int reportTable4(ReportContext &ctx);
int reportAblation(ReportContext &ctx);

}  // namespace pbs::exp

#endif  // PBS_EXP_REPORTS_HH
