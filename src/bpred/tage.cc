#include "bpred/tage.hh"

#include <bit>
#include <cstdlib>
#include <type_traits>
#include <utility>

namespace pbs::bpred {

namespace {

/** A word with bit @p bit set in each of @p lanes lanes of
 *  @p laneWidth bits. */
constexpr uint64_t
laneBits(unsigned lanes, unsigned laneWidth, unsigned bit)
{
    uint64_t w = 0;
    for (unsigned t = 0; t < lanes; t++)
        w |= uint64_t(1) << (t * laneWidth + bit);
    return w;
}

/**
 * Fold one outcome into every lane of a word of packed @p Width-bit
 * folded histories (Seznec), all lanes at once: shift in the newest
 * bit, cancel each lane's outgoing bit (@p outgoing holds it at the
 * lane's folded position), wrap each lane's overflow bit around. A
 * lane holds Width bits, so the shift leaves it at most Width + 1
 * wide and nothing crosses into the next lane.
 */
template <unsigned Lanes, unsigned LaneWidth, unsigned Width>
[[gnu::always_inline]] inline uint64_t
foldLanes(uint64_t comp, bool newest, uint64_t outgoing)
{
    static_assert(Width < LaneWidth);
    constexpr uint64_t kLsb = laneBits(Lanes, LaneWidth, 0);
    constexpr uint64_t kTop = laneBits(Lanes, LaneWidth, Width);
    comp = (comp << 1) | (kLsb & -uint64_t(newest));
    comp ^= outgoing;
    const uint64_t top = comp & kTop;
    return (comp ^ (top >> Width)) & ~kTop;
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

void
TagePredictor::lookup(uint64_t pc, PredictContext &ctx) const
{
    // Every table's index and tag, computed once for the prediction,
    // the training and the allocation, and whether its entry hits. The
    // tag hash's two folds line up lane by lane, so they combine in
    // one xor.
    constexpr unsigned kIdxMask = kEntries - 1;
    constexpr unsigned kTagMask = (1u << kTagBits) - 1;
    const uint64_t tagFolds = foldIdx_ ^ (foldTag_ << 1);
    unsigned hits = 0;
    [&]<size_t... T>(std::index_sequence<T...>) {
        auto probe = [&]<size_t U>(std::integral_constant<size_t, U>) {
            constexpr unsigned kShift = U * kLane;
            // Per-table pc hash shift: kLog2Entries - U.
            const unsigned h = unsigned(pc ^ (pc >> (kLog2Entries - U)) ^
                                        (foldIdx_ >> kShift));
            const auto idx = uint16_t((U << kLog2Entries) | (h & kIdxMask));
            const auto tag =
                uint16_t(unsigned(pc ^ (tagFolds >> kShift)) & kTagMask);
            ctx.idx[U] = idx;
            ctx.tag[U] = tag;
            hits |= unsigned(tables_[idx].tag == tag) << U;
        };
        (probe(std::integral_constant<size_t, T>{}), ...);
    }(std::make_index_sequence<kNumTables>{});

    // The provider is the longest hit and the alternate the next one;
    // -1 when there is none.
    const int provider = int(std::bit_width(hits)) - 1;
    const int alt = int(std::bit_width(hits & ~std::bit_floor(hits))) - 1;
    ctx.provider = provider;

    const bool bimodal_pred = bimodal_[pc & (bimodal_.size() - 1)].taken();
    ctx.altPred = alt >= 0 ? tables_[ctx.idx[alt]].ctr.taken()
                           : bimodal_pred;

    if (provider >= 0) {
        const TaggedEntry &e = tables_[ctx.idx[provider]];
        ctx.providerPred = e.ctr.taken();
        ctx.providerNew = e.u == 0 && e.ctr.weak();
        const bool use_alt = ctx.providerNew && !useAltOnNa_.taken();
        ctx.finalPred = use_alt ? ctx.altPred : ctx.providerPred;
        const int strength = std::abs(2 * e.ctr.raw() + 1);
        ctx.conf = ctx.providerNew ? 0 : (strength >= 5 ? 2 : 1);
    } else {
        ctx.providerPred = bimodal_pred;
        ctx.providerNew = false;
        ctx.finalPred = bimodal_pred;
        ctx.conf = 1;
    }
}

void
TagePredictor::allocate(const PredictContext &ctx, bool taken)
{
    // Try to allocate in a table with longer history than the provider.
    int start = ctx.provider + 1;
    if (start >= int(kNumTables))
        return;

    // Random skip (Seznec): sometimes skip the first candidate to spread
    // allocations across tables.
    if ((lfsrNext() & 3u) == 0 && start + 1 < int(kNumTables))
        start++;

    for (int t = start; t < int(kNumTables); t++) {
        TaggedEntry &e = tables_[ctx.idx[t]];
        if (e.u == 0) {
            e.tag = ctx.tag[t];
            e.ctr.set(taken ? 0 : -1);
            return;
        }
    }
    // No free entry: decay usefulness so future allocations succeed.
    for (int t = start; t < int(kNumTables); t++) {
        TaggedEntry &e = tables_[ctx.idx[t]];
        if (e.u > 0)
            e.u--;
    }
}

void
TagePredictor::train(uint64_t pc, const PredictContext &ctx, bool taken)
{
    if (ctx.provider >= 0) {
        TaggedEntry &e = tables_[ctx.idx[ctx.provider]];

        // Track whether alternate prediction beats new entries.
        if (ctx.providerNew && ctx.providerPred != ctx.altPred)
            useAltOnNa_.train(ctx.providerPred == taken);

        e.ctr.train(taken);
        if (ctx.providerPred != ctx.altPred) {
            constexpr unsigned kUMax = (1u << kUBits) - 1;
            if (ctx.providerPred == taken) {
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

    if (ctx.finalPred != taken)
        allocate(ctx, taken);

    // Periodic usefulness aging.
    if (++tick_ >= kResetPeriod) {
        tick_ = 0;
        for (auto &e : tables_)
            e.u >>= 1;
    }

    pushHistory(taken);
}

bool
TagePredictor::predict(uint64_t pc)
{
    lookup(pc, ctx_);
    return ctx_.finalPred;
}

void
TagePredictor::update(uint64_t pc, bool taken)
{
    train(pc, ctx_, taken);
}

// Flattened so the lookup, the training and the history update are
// one function, and the context never leaves the stack frame.
[[gnu::flatten]] bool
TagePredictor::predictAndUpdate(uint64_t pc, bool taken)
{
    PredictContext ctx;
    lookup(pc, ctx);
    train(pc, ctx, taken);
    return ctx.finalPred;
}

void
TagePredictor::pushHistory(bool taken)
{
    // Shift the outcome in; the bit at kHistoryLengths[t] is then the
    // one leaving table t's window.
    for (unsigned w = kHistWords - 1; w > 0; w--)
        ghist_[w] = (ghist_[w] << 1) | (ghist_[w - 1] >> 63);
    ghist_[0] = (ghist_[0] << 1) | (taken ? 1 : 0);

    // Gather each table's outgoing bit at its folded position in its
    // lane, one constant shift and mask per table and fold.
    constexpr unsigned kTagFold = kTagBits - 1;
    uint64_t outIdx = 0;
    uint64_t outTag = 0;
    [&]<size_t... T>(std::index_sequence<T...>) {
        auto gather = [&]<size_t U>(std::integral_constant<size_t, U>) {
            constexpr unsigned kLen = kHistoryLengths[U];
            const uint64_t out = (ghist_[kLen / 64] >> (kLen % 64)) & 1;
            outIdx |= out << (U * kLane + kLen % kLog2Entries);
            outTag |= out << (U * kLane + kLen % kTagFold);
        };
        (gather(std::integral_constant<size_t, T>{}), ...);
    }(std::make_index_sequence<kNumTables>{});

    foldIdx_ = foldLanes<kNumTables, kLane, kLog2Entries>(foldIdx_, taken,
                                                          outIdx);
    foldTag_ = foldLanes<kNumTables, kLane, kTagFold>(foldTag_, taken,
                                                      outTag);
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
