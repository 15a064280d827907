/**
 * @file
 * Factory for the predictors used throughout the evaluation.
 */

#ifndef PBS_BPRED_FACTORY_HH
#define PBS_BPRED_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "bpred/predictor.hh"

namespace pbs::bpred {

/**
 * Create a predictor by name.
 *
 * Recognized names: "bimodal", "gshare", "local", "loop", "tournament"
 * (the paper's ~1 KB baseline), "tage", "tage-sc-l" (the paper's ~8 KB
 * baseline), "always-taken", "always-not-taken", "random", "perfect".
 *
 * @throws std::invalid_argument for unknown names.
 */
std::unique_ptr<BranchPredictor> makePredictor(const std::string &name);

/** All predictor names makePredictor accepts, in zoo order. */
const std::vector<std::string> &predictorNames();

/**
 * Canonicalize a predictor name: lower-cased, '_' -> '-', and common
 * aliases resolved (e.g. "tage_scl" and "tage-scl" -> "tage-sc-l").
 * @return the canonical name, or the empty string when unknown.
 */
std::string canonicalPredictor(const std::string &name);

}  // namespace pbs::bpred

#endif  // PBS_BPRED_FACTORY_HH
