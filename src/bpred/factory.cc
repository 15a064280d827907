#include "bpred/factory.hh"

#include <cctype>
#include <stdexcept>

#include "bpred/loop.hh"
#include "bpred/simple.hh"
#include "bpred/tage.hh"
#include "bpred/tage_scl.hh"
#include "bpred/tournament.hh"

namespace pbs::bpred {

std::unique_ptr<BranchPredictor>
makePredictor(const std::string &name)
{
    if (name == "bimodal")
        return std::make_unique<BimodalPredictor>();
    if (name == "gshare")
        return std::make_unique<GsharePredictor>();
    if (name == "local")
        return std::make_unique<LocalPredictor>();
    if (name == "loop")
        return std::make_unique<LoopPredictor>();
    if (name == "tournament")
        return std::make_unique<TournamentPredictor>();
    if (name == "tage")
        return std::make_unique<TagePredictor>();
    if (name == "tage-sc-l")
        return std::make_unique<TageSclPredictor>();
    if (name == "always-taken")
        return std::make_unique<StaticPredictor>(true);
    if (name == "always-not-taken")
        return std::make_unique<StaticPredictor>(false);
    if (name == "random")
        return std::make_unique<RandomPredictor>();
    if (name == "perfect")
        return std::make_unique<PerfectPredictor>();
    throw std::invalid_argument("unknown predictor: " + name);
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

std::string
canonicalPredictor(const std::string &name)
{
    std::string n;
    n.reserve(name.size());
    for (char c : name)
        n.push_back(c == '_' ? '-' : char(std::tolower(
                        static_cast<unsigned char>(c))));
    // Aliases for the TAGE-SC-L spelling.
    if (n == "tage-scl" || n == "tagescl")
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

}  // namespace pbs::bpred
