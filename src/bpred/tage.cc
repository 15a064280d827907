#include "bpred/tage.hh"

#include <cstdlib>
#include <type_traits>
#include <utility>

namespace pbs::bpred {

namespace {

/** Fold one outcome into a @p Width-bit folded history of a @p Len-bit
 *  history (Seznec): shift in the newest bit, cancel the outgoing bit
 *  at its folded position, wrap the overflow bit around. */
template <unsigned Len, unsigned Width>
[[gnu::always_inline]] inline unsigned
fold(unsigned comp, unsigned newest, unsigned outgoing)
{
    comp = (comp << 1) | newest;
    comp ^= outgoing << (Len % Width);
    comp ^= comp >> Width;
    return comp & ((1u << Width) - 1);
}

}  // namespace

unsigned
TagePredictor::lfsrNext()
{
    unsigned bit = ((lfsr_ >> 0) ^ (lfsr_ >> 2) ^ (lfsr_ >> 3) ^
                    (lfsr_ >> 5)) & 1u;
    lfsr_ = (lfsr_ >> 1) | (bit << 15);
    return lfsr_;
}

bool
TagePredictor::predict(uint64_t pc)
{
    // Every field of ctx_ is assigned below, one at a time: resetting
    // it from a temporary first costs a store-forwarding stall.
    ctx_.pc = pc;
    ctx_.valid = true;

    // Every table's index and tag, computed once for predict, update
    // and allocate.
    constexpr unsigned kIdxMask = kEntries - 1;
    constexpr unsigned kTagMask = (1u << kTagBits) - 1;
    for (unsigned t = 0; t < kNumTables; t++) {
        // Per-table pc hash shift: kLog2Entries - t.
        const unsigned h = unsigned(pc ^ (pc >> (kLog2Entries - t))) ^
                           foldIdx_[t];
        ctx_.idx[t] = uint16_t((t << kLog2Entries) | (h & kIdxMask));
        ctx_.tag[t] = uint16_t(
            (unsigned(pc) ^ foldIdx_[t] ^ (foldTag_[t] << 1)) & kTagMask);
    }

    // Find provider (longest hit) and alternate (next hit).
    int provider = -1;
    int alt = -1;
    for (int t = kNumTables - 1; t >= 0; t--) {
        if (tables_[ctx_.idx[t]].tag == ctx_.tag[t]) {
            if (provider < 0) {
                provider = t;
            } else {
                alt = t;
                break;
            }
        }
    }
    ctx_.provider = provider;

    bool bimodal_pred = bimodal_[pc & (bimodal_.size() - 1)].taken();
    ctx_.altPred = alt >= 0 ? tables_[ctx_.idx[alt]].ctr.taken()
                            : bimodal_pred;

    if (provider >= 0) {
        const TaggedEntry &e = tables_[ctx_.idx[provider]];
        ctx_.providerPred = e.ctr.taken();
        ctx_.providerNew = e.u == 0 && e.ctr.weak();
        bool use_alt = ctx_.providerNew && !useAltOnNa_.taken();
        ctx_.finalPred = use_alt ? ctx_.altPred : ctx_.providerPred;
        int strength = std::abs(2 * e.ctr.raw() + 1);
        lastConf_ = ctx_.providerNew ? 0 : (strength >= 5 ? 2 : 1);
    } else {
        ctx_.providerPred = bimodal_pred;
        ctx_.providerNew = false;
        ctx_.finalPred = bimodal_pred;
        lastConf_ = 1;
    }
    return ctx_.finalPred;
}

void
TagePredictor::allocate(bool taken, int fromTable)
{
    // Try to allocate in a table with longer history than the provider.
    int start = fromTable + 1;
    if (start >= int(kNumTables))
        return;

    // Random skip (Seznec): sometimes skip the first candidate to spread
    // allocations across tables.
    if ((lfsrNext() & 3u) == 0 && start + 1 < int(kNumTables))
        start++;

    for (int t = start; t < int(kNumTables); t++) {
        TaggedEntry &e = tables_[ctx_.idx[t]];
        if (e.u == 0) {
            e.tag = ctx_.tag[t];
            e.ctr.set(taken ? 0 : -1);
            return;
        }
    }
    // No free entry: decay usefulness so future allocations succeed.
    for (int t = start; t < int(kNumTables); t++) {
        TaggedEntry &e = tables_[ctx_.idx[t]];
        if (e.u > 0)
            e.u--;
    }
}

void
TagePredictor::update(uint64_t pc, bool taken)
{
    // The CBP-style protocol guarantees update follows predict for the
    // same branch; recompute defensively if that does not hold.
    if (!ctx_.valid || ctx_.pc != pc)
        predict(pc);

    bool mispredicted = ctx_.finalPred != taken;

    if (ctx_.provider >= 0) {
        TaggedEntry &e = tables_[ctx_.idx[ctx_.provider]];

        // Track whether alternate prediction beats new entries.
        if (ctx_.providerNew && ctx_.providerPred != ctx_.altPred)
            useAltOnNa_.train(ctx_.providerPred == taken);

        e.ctr.train(taken);
        if (ctx_.providerPred != ctx_.altPred) {
            constexpr unsigned kUMax = (1u << kUBits) - 1;
            if (ctx_.providerPred == taken) {
                if (e.u < kUMax)
                    e.u++;
            } else {
                if (e.u > 0)
                    e.u--;
            }
        }
    } else {
        bimodal_[pc & (bimodal_.size() - 1)].train(taken);
    }

    if (mispredicted)
        allocate(taken, ctx_.provider);

    // Periodic usefulness aging.
    if (++tick_ >= kResetPeriod) {
        tick_ = 0;
        for (auto &e : tables_)
            e.u >>= 1;
    }

    pushHistory(taken);
    ctx_.valid = false;
}

void
TagePredictor::pushHistory(bool taken)
{
    ghistHead_ = (ghistHead_ - 1) & (kHistRing - 1);
    ghist_[ghistHead_] = taken ? 1 : 0;
    const unsigned newest = taken ? 1 : 0;
    // One fold pair per table, unrolled so every shift is a constant.
    auto foldTable = [&]<size_t T>(std::integral_constant<size_t, T>) {
        constexpr unsigned kLen = kHistoryLengths[T];
        const unsigned out = ghist_[(ghistHead_ + kLen) & (kHistRing - 1)];
        foldIdx_[T] = fold<kLen, kLog2Entries>(foldIdx_[T], newest, out);
        foldTag_[T] = fold<kLen, kTagBits - 1>(foldTag_[T], newest, out);
    };
    [&]<size_t... T>(std::index_sequence<T...>) {
        (foldTable(std::integral_constant<size_t, T>{}), ...);
    }(std::make_index_sequence<kNumTables>{});
}

size_t
TagePredictor::storageBits() const
{
    constexpr size_t kPerEntry = kCtrBits + kTagBits + kUBits;
    constexpr size_t kTagged = kNumTables * kEntries * kPerEntry;
    constexpr size_t kBimodal = (size_t(1) << kLog2Bimodal) * 2;
    return kTagged + kBimodal + kMaxHistory + 4 /* useAltOnNa */;
}

}  // namespace pbs::bpred
