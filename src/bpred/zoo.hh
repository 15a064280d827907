/**
 * @file
 * The predictor zoo as a closed set of concrete types: every type
 * makePredictor builds. A caller that resolves many branches against
 * one predictor (Core::replay) picks the concrete type once with
 * visitPredictor, so each branch's predictAndUpdate is a direct call
 * the compiler can inline instead of a virtual one.
 */

#ifndef PBS_BPRED_ZOO_HH
#define PBS_BPRED_ZOO_HH

#include <stdexcept>

#include "bpred/loop.hh"
#include "bpred/predictor.hh"
#include "bpred/simple.hh"
#include "bpred/tage.hh"
#include "bpred/tage_scl.hh"
#include "bpred/tournament.hh"

namespace pbs::bpred {

template <class... Ts>
struct TypeList
{};

/** Every type makePredictor builds. */
using ZooTypes =
    TypeList<BimodalPredictor, GsharePredictor, LocalPredictor,
             LoopPredictor, TournamentPredictor, TagePredictor,
             TageSclPredictor, StaticPredictor, RandomPredictor,
             PerfectPredictor>;

/**
 * Call @p f with @p p as its concrete type.
 * @throws std::logic_error if @p p is of a type ZooTypes lacks, so a
 *         predictor added to makePredictor but not here fails loudly
 *         (mpki_equiv_test replays every predictorNames() entry).
 */
template <class F>
void
visitPredictor(BranchPredictor &p, F &&f)
{
    const bool found = [&]<class... Ts>(TypeList<Ts...>) {
        auto tryAs = [&](auto *concrete) {
            if (concrete)
                f(*concrete);
            return concrete != nullptr;
        };
        return (tryAs(dynamic_cast<Ts *>(&p)) || ...);
    }(ZooTypes{});
    if (!found) {
        throw std::logic_error("visitPredictor: no case for predictor " +
                               p.name());
    }
}

}  // namespace pbs::bpred

#endif  // PBS_BPRED_ZOO_HH
