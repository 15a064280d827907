#include "bpred/tage_scl.hh"

namespace pbs::bpred {

void
TageSclPredictor::lookup(uint64_t pc, Lookup &l)
{
    tage_.lookup(pc, l.tage);
    l.sc = sc_.lookup(pc, l.tage.finalPred);
    l.loop = loop_.lookup(pc);
    l.prediction = l.loop.confident() ? l.loop.predict()
                                      : sc_.refine(l.sc, l.tage.conf);
}

void
TageSclPredictor::train(uint64_t pc, const Lookup &l, bool taken)
{
    sc_.train(l.sc, taken);
    Loop::train(l.loop, taken);
    tage_.train(pc, l.tage, taken);  // also advances the global history
}

bool
TageSclPredictor::predict(uint64_t pc)
{
    lookup(pc, last_);
    return last_.prediction;
}

void
TageSclPredictor::update(uint64_t pc, bool taken)
{
    train(pc, last_, taken);
}

// Flattened so the lookup, the training and the history update are
// one function, and the context never leaves the stack frame.
[[gnu::flatten]] bool
TageSclPredictor::predictAndUpdate(uint64_t pc, bool taken)
{
    Lookup l;
    lookup(pc, l);
    train(pc, l, taken);
    return l.prediction;
}

size_t
TageSclPredictor::storageBits() const
{
    return tage_.storageBits() + sc_.storageBits() + Loop::storageBits();
}

}  // namespace pbs::bpred
