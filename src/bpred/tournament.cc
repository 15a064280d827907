#include "bpred/tournament.hh"

namespace pbs::bpred {

TournamentPredictor::TournamentPredictor()
    : bimodal_(kLog2Bimodal), global_(kLog2Global, kGlobalHistory)
{
}

size_t
TournamentPredictor::storageBits() const
{
    return bimodal_.storageBits() + global_.storageBits() +
           Loop::storageBits() + chooser_.size() * 2;
}

}  // namespace pbs::bpred
