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
 * fold width and history tap is a constant, so the per-branch history
 * update is straight-line code with constant shifts.
 */

#ifndef PBS_BPRED_TAGE_HH
#define PBS_BPRED_TAGE_HH

#include <array>

#include "bpred/counters.hh"
#include "bpred/predictor.hh"

namespace pbs::bpred {

/** TAGE predictor. */
class TagePredictor : public BranchPredictor
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
    size_t storageBits() const override;
    std::string name() const override { return "tage"; }

    /**
     * Confidence of the last predict() call: 0 = low (weak/new entry),
     * 1 = medium, 2 = high.
     */
    unsigned lastConfidence() const { return lastConf_; }

  private:
    static constexpr size_t kEntries = size_t(1) << kLog2Entries;
    static constexpr unsigned kMaxHistory = kHistoryLengths.back();

    /** Global-history ring: a power of two above the longest tap, so
     *  indexing is a mask. */
    static constexpr size_t kHistRing = 256;
    static_assert(kHistRing > kMaxHistory);

    struct TaggedEntry
    {
        SignedSatCounter<kCtrBits> ctr;
        uint16_t tag = 0;
        uint8_t u = 0;
    };

    /** Everything update() needs from the predict() of one branch. */
    struct PredictContext
    {
        uint64_t pc = 0;
        int provider = -1;        ///< table index, -1 = bimodal
        bool providerPred = false;
        bool altPred = false;
        bool finalPred = false;
        bool providerNew = false;
        bool valid = false;
        /** Each table's flat index and tag for this branch. */
        std::array<uint16_t, kNumTables> idx{};
        std::array<uint16_t, kNumTables> tag{};
    };

    void allocate(bool taken, int fromTable);
    void pushHistory(bool taken);
    unsigned lfsrNext();

    /**
     * All tagged tables in one contiguous array: table t occupies
     * [t * kEntries, (t + 1) * kEntries).
     */
    std::array<TaggedEntry, kNumTables * kEntries> tables_{};
    std::array<SatCounter<2>, size_t(1) << kLog2Bimodal> bimodal_{};

    std::array<uint8_t, kHistRing> ghist_{};  ///< one outcome per byte
    size_t ghistHead_ = 0;                     ///< newest outcome

    /**
     * Seznec's incrementally folded histories, one per table: the
     * kHistoryLengths[t] newest outcomes folded to kLog2Entries bits
     * (the index hash, also the tag's first fold, which has the same
     * width) and to kTagBits - 1 bits (the tag's second fold).
     */
    std::array<unsigned, kNumTables> foldIdx_{};
    std::array<unsigned, kNumTables> foldTag_{};

    SignedSatCounter<4> useAltOnNa_;
    uint64_t tick_ = 0;
    unsigned lfsr_ = 0xace1u;
    unsigned lastConf_ = 0;
    PredictContext ctx_;
};

}  // namespace pbs::bpred

#endif  // PBS_BPRED_TAGE_HH
