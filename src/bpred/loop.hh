/**
 * @file
 * Loop predictor: perfectly predicts branches with a constant trip count
 * once confidence is established (the "L" in TAGE-SC-L; also a component
 * of the Pentium-M-style tournament predictor).
 */

#ifndef PBS_BPRED_LOOP_HH
#define PBS_BPRED_LOOP_HH

#include <array>

#include "bpred/predictor.hh"

namespace pbs::bpred {

/**
 * Tagged loop-termination table with a compile-time geometry: 2^Log2
 * entries, TagBits-bit tags and IterBits-bit trip counts.
 *
 * Each entry learns the number of consecutive "taken" outcomes between
 * "not-taken" outcomes of one branch. Once the same count repeats
 * kConfThreshold times, the entry is confident and predicts taken
 * for the body iterations and not-taken exactly at the exit.
 *
 * A branch looks its entry up once (lookup()); the prediction and the
 * training (train()) both work on that one Lookup.
 */
template <unsigned Log2, unsigned TagBits, unsigned IterBits>
class LoopTable
{
  public:
    static constexpr unsigned kConfThreshold = 3;
    static constexpr size_t kEntries = size_t(1) << Log2;

    struct Entry
    {
        bool valid = false;
        uint16_t tag = 0;
        uint32_t pastTrip = 0;    ///< learned taken-run length
        uint32_t currentTrip = 0; ///< takens seen in the current run
        uint8_t confidence = 0;
    };

    /** One branch's entry and whether it belongs to the branch. */
    struct Lookup
    {
        Entry *e;
        uint16_t tag;
        bool hit;

        /** The entry is the branch's and has learned a trip count. */
        bool
        confident() const
        {
            return hit && e->confidence >= kConfThreshold &&
                   e->pastTrip > 0;
        }

        /** Taken unless a confident entry's run has reached its trip
         *  count (loop branches are mostly taken). */
        bool
        predict() const
        {
            if (!hit || e->confidence < kConfThreshold)
                return true;
            return e->currentTrip < e->pastTrip;
        }
    };

    Lookup
    lookup(uint64_t pc)
    {
        Entry &e = entries_[pc & (kEntries - 1)];
        const auto tag = uint16_t((pc ^ (pc >> 6)) & ((1u << TagBits) - 1));
        return {&e, tag, e.valid && e.tag == tag};
    }

    /** Train @p l's entry with the branch's direction. */
    static void
    train(const Lookup &l, bool taken)
    {
        Entry &e = *l.e;
        if (!l.hit) {
            // Allocate only on a not-taken outcome (run boundary), so
            // the trip counter starts aligned.
            if (!taken) {
                e.valid = true;
                e.tag = l.tag;
                e.pastTrip = 0;
                e.currentTrip = 0;
                e.confidence = 0;
            }
            return;
        }

        constexpr uint32_t kIterMax = (uint32_t(1) << IterBits) - 1;
        if (taken) {
            if (e.currentTrip < kIterMax)
                e.currentTrip++;
            else
                e.valid = false;  // trip count does not fit
            return;
        }

        // Not-taken: end of a run.
        if (e.currentTrip == e.pastTrip && e.pastTrip > 0) {
            if (e.confidence < kConfThreshold)
                e.confidence++;
        } else {
            e.confidence = 0;
            e.pastTrip = e.currentTrip;
        }
        e.currentTrip = 0;
    }

    static constexpr size_t
    storageBits()
    {
        // valid + tag + past + current + confidence
        return kEntries * (1 + TagBits + 2 * IterBits + 2);
    }

  private:
    std::array<Entry, kEntries> entries_{};
};

/** The zoo's standalone loop predictor: 64 entries, 10-bit tags,
 *  12-bit trip counts. */
class LoopPredictor final : public BranchPredictor
{
  public:
    using Table = LoopTable<6, 10, 12>;

    bool
    predict(uint64_t pc) override
    {
        return table_.lookup(pc).predict();
    }

    void
    update(uint64_t pc, bool taken) override
    {
        Table::train(table_.lookup(pc), taken);
    }

    bool
    predictAndUpdate(uint64_t pc, bool taken) override
    {
        const Table::Lookup l = table_.lookup(pc);
        const bool predicted = l.predict();
        Table::train(l, taken);
        return predicted;
    }

    size_t storageBits() const override { return Table::storageBits(); }
    std::string name() const override { return "loop"; }

    /** @return true if the entry for @p pc is confident. */
    bool confident(uint64_t pc) { return table_.lookup(pc).confident(); }

  private:
    Table table_;
};

}  // namespace pbs::bpred

#endif  // PBS_BPRED_LOOP_HH
