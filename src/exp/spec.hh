/**
 * @file
 * Declarative sweep specification: a small set of axes that expands to
 * a cartesian grid of ExpPoints.
 *
 * Specs are parsed from `key = v1, v2, ...` lines (spec files; `#`
 * comments) and/or from `pbs_exp` axis flags. Axes:
 *
 *   workload  = pi, dop, ...   (or "all")
 *   predictor = tournament, tage-sc-l, ...
 *   variant   = marked | predicated | cfd
 *   width     = 4 | 8
 *   mode      = detailed | functional | sampled | mpki
 *               ("timing" is accepted as an alias of detailed;
 *               "mpki" is the predictor-functional fidelity behind
 *               the MPKI reports, SimMode::Functional)
 *   pbs       = off | on | no-stall | no-context | no-guard
 *   scale     = explicit iteration counts (overrides div)
 *   div       = scale divisor applied to each workload's default
 *   seed      = first seed
 *   seeds     = number of consecutive seeds
 *   sample-interval = insts between sampled-mode measurements
 *   sample-warmup   = sampled-mode detailed warmup instructions (>= 1)
 *   sample-measure  = sampled-mode measured instructions
 *   sample-grid     = interval/warmup/measure triples; a true axis
 *                     that multiplies *sampled* points only (the
 *                     error-vs-speed Pareto sweeps expand over it)
 *
 * Expansion order is fixed (workload, predictor, variant, width, mode,
 * sample-grid triple, pbs, scale, seed — innermost last; the triple
 * axis collapses to one pass for non-sampled modes), so a spec always
 * enumerates the same points in the same order and artifacts are
 * reproducible byte for byte.
 */

#ifndef PBS_EXP_SPEC_HH
#define PBS_EXP_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/point.hh"

namespace pbs::exp {

/** One (interval, warmup, measure) sampling parameterization. */
struct SampleTriple
{
    uint64_t interval = 0;
    uint64_t warmup = 0;
    uint64_t measure = 0;

    bool operator==(const SampleTriple &) const = default;
};

/** A parsed sweep description (axes, not yet expanded). */
struct SweepSpec
{
    std::vector<std::string> workloads;              ///< required
    std::vector<std::string> predictors = {"tage-sc-l"};
    std::vector<std::string> variants = {"marked"};
    std::vector<unsigned> widths = {4};
    std::vector<std::string> modes = {"detailed"};
    std::vector<std::string> pbsModes = {"off"};
    std::vector<uint64_t> scales;    ///< empty: use div
    unsigned divisor = 1;
    uint64_t seed = 12345;
    unsigned seeds = 1;

    // Sampled-mode parameters (applied to every sampled point;
    // 0 = unset, the sampling subsystem's defaults; a key never sets
    // 0).
    uint64_t sampleInterval = 0;
    uint64_t sampleWarmup = 0;
    uint64_t sampleMeasure = 0;

    /**
     * Sampling-parameter axis: when non-empty, each mode == "sampled"
     * grid point expands into one point per triple (the single-valued
     * sample-* keys above are ignored for those points). Non-sampled
     * modes are unaffected — the axis never multiplies them.
     */
    std::vector<SampleTriple> sampleGrid;
};

/** Outcome of parsing / expanding a spec. */
struct SpecResult
{
    bool ok = false;
    std::string error;
    SweepSpec spec;
};

/** Parse spec-file text (`key = values` lines). */
SpecResult parseSpecText(const std::string &text);

/** Parse a spec file from disk. */
SpecResult parseSpecFile(const std::string &path);

/**
 * Apply one axis assignment (the `pbs_exp` flag path), e.g.
 * ("workload", "pi,dop"). @return empty string or an error message.
 */
std::string applySpecKey(SweepSpec &spec, const std::string &key,
                         const std::string &values);

/**
 * The sampling parameters @p spec's scalar sample-* keys select, with
 * the subsystem defaults for the keys it leaves unset.
 */
cpu::SampleParams sampleParams(const SweepSpec &spec);

/**
 * The first sample-* key @p spec sets although none of its modes is
 * sampled, so that a sweep would ignore it ("" = none).
 */
std::string ignoredSampleKey(const SweepSpec &spec);

/**
 * Validate axis values and expand the cartesian grid in canonical
 * order. Scales are resolved per workload.
 */
struct ExpandResult
{
    bool ok = false;
    std::string error;
    std::vector<ExpPoint> points;
};

ExpandResult expandSpec(const SweepSpec &spec);

/** Canonical JSON echo of a spec (embedded in sweep artifacts). */
std::string specJson(const SweepSpec &spec);

}  // namespace pbs::exp

#endif  // PBS_EXP_SPEC_HH
