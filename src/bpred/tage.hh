/**
 * @file
 * TAGE: TAgged GEometric history length branch predictor (Seznec &
 * Michaud), the main component of the paper's 8 KB TAGE-SC-L baseline.
 *
 * A bimodal base predictor is backed by N tagged tables indexed with
 * hashes of geometrically increasing global-history lengths. The longest
 * matching table provides the prediction; allocation happens on
 * mispredictions; usefulness counters arbitrate replacement.
 *
 * The geometry is fixed at compile time (see bpred/tage_scl.hh): every
 * fold width and history tap is a constant. The global history is a
 * 192-bit shift register and the twelve folded histories are packed
 * six to a 64-bit word, so the per-branch history update is two
 * lane-parallel folds of straight-line code.
 */

#ifndef PBS_BPRED_TAGE_HH
#define PBS_BPRED_TAGE_HH

#include <array>

#include "bpred/counters.hh"
#include "bpred/predictor.hh"

namespace pbs::bpred {

/** TAGE predictor. */
class TagePredictor final : public BranchPredictor
{
  public:
    static constexpr unsigned kNumTables = 6;   ///< tagged components
    static constexpr unsigned kLog2Entries = 9; ///< entries per table
    static constexpr unsigned kTagBits = 9;
    static constexpr unsigned kCtrBits = 3;
    static constexpr unsigned kUBits = 2;
    static constexpr unsigned kLog2Bimodal = 11;
    static constexpr unsigned kResetPeriod = 1u << 18;  ///< u aging

    /**
     * History length of each tagged table: the geometric series from 4
     * to 160, rounded to nearest (bpred_test checks the formula).
     */
    static constexpr std::array<unsigned, kNumTables> kHistoryLengths = {
        4, 8, 17, 37, 77, 160};

    bool predict(uint64_t pc) override;
    void update(uint64_t pc, bool taken) override;
    bool predictAndUpdate(uint64_t pc, bool taken) override;
    size_t storageBits() const override;
    std::string name() const override { return "tage"; }

  private:
    friend class TageSclPredictor;

    static constexpr size_t kEntries = size_t(1) << kLog2Entries;
    static constexpr unsigned kMaxHistory = kHistoryLengths.back();

    /** Global history: bit i of the 192-bit word array is the outcome
     *  i branches before the newest (bit 0). */
    static constexpr unsigned kHistWords = 3;
    static_assert(kHistWords * 64 > kMaxHistory);

    /** Folded-history packing: table t's fold is the 10-bit lane at
     *  bit t * kLane of a 64-bit word, one bit wider than the widest
     *  fold so a lane-wide shift cannot carry into the next lane. */
    static constexpr unsigned kLane = 10;
    static_assert(kLog2Entries < kLane && kNumTables * kLane <= 64);

    struct TaggedEntry
    {
        SignedSatCounter<kCtrBits> ctr;
        uint16_t tag = 0;
        uint8_t u = 0;
    };

    /**
     * Everything training needs from one branch's lookup. No default
     * member initializers: lookup() assigns every field, and zeroing a
     * local first costs a store-forwarding stall.
     */
    struct PredictContext
    {
        int provider;        ///< table index, -1 = bimodal
        bool providerPred;
        bool altPred;
        bool finalPred;
        bool providerNew;
        unsigned conf;       ///< 0 = low (weak/new entry) .. 2 = high
        /** Each table's flat index and tag for this branch. */
        std::array<uint16_t, kNumTables> idx;
        std::array<uint16_t, kNumTables> tag;
    };

    /** Look the branch at @p pc up; changes no state. */
    void lookup(uint64_t pc, PredictContext &ctx) const;
    /** Train the branch @p ctx looked up and push its outcome. */
    void train(uint64_t pc, const PredictContext &ctx, bool taken);

    void allocate(const PredictContext &ctx, bool taken);
    void pushHistory(bool taken);
    unsigned lfsrNext();

    /**
     * All tagged tables in one contiguous array: table t occupies
     * [t * kEntries, (t + 1) * kEntries).
     */
    std::array<TaggedEntry, kNumTables * kEntries> tables_{};
    std::array<SatCounter<2>, size_t(1) << kLog2Bimodal> bimodal_{};

    std::array<uint64_t, kHistWords> ghist_{};

    /**
     * Seznec's incrementally folded histories, one lane per table: the
     * kHistoryLengths[t] newest outcomes folded to kLog2Entries bits
     * (the index hash, also the tag's first fold, which has the same
     * width) in foldIdx_, and to kTagBits - 1 bits (the tag's second
     * fold) in foldTag_.
     */
    uint64_t foldIdx_ = 0;
    uint64_t foldTag_ = 0;

    SignedSatCounter<4> useAltOnNa_;
    uint64_t tick_ = 0;
    unsigned lfsr_ = 0xace1u;
    PredictContext ctx_{};  ///< predict()'s lookup, for update()
};

}  // namespace pbs::bpred

#endif  // PBS_BPRED_TAGE_HH
