/**
 * @file
 * PBS hardware tables: Prob-BTB, SwapTable, Prob-in-Flight (paper
 * Fig. 4). The tables store modeled register *values* where the hardware
 * stores physical-register indices; storage accounting still follows the
 * paper's field widths exactly (index bits, not value bits, where the
 * paper says so).
 *
 * Every table is a fixed array sized by PbsConfig's kMax* capacities
 * and cut to the configured size, so no lookup allocates or hashes.
 * The config must pass PbsEngine's check (no zero count, no table past
 * its capacity).
 */

#ifndef PBS_CORE_TABLES_HH
#define PBS_CORE_TABLES_HH

#include <array>
#include <bit>
#include <cstdint>

#include "core/context_table.hh"
#include "core/pbs_config.hh"

namespace pbs::core {

/** A recorded (values, outcome) tuple from one executed instance. */
struct BranchRecord
{
    uint64_t value1 = 0;   ///< PROB_CMP's probabilistic value (raw bits)
    uint64_t value2 = 0;   ///< PROB_JMP's probabilistic value (raw bits)

    /**
     * Dynamic instance index (per static branch) that generated this
     * record. Not hardware state: used by the randomness-evaluation
     * harness to reconstruct the value-consumption order (Table III).
     */
    uint64_t genSeq = 0;

    bool taken = false;
    bool hasValue2 = false;
};

/**
 * Prob-BTB: one entry per supported probabilistic branch. The payload
 * (direction + values) of an entry is consumed by each steered fetch and
 * refilled from the Prob-in-Flight table.
 */
class ProbBtb
{
  public:
    struct Entry
    {
        bool valid = false;
        bool hasPayload = false;
        bool hasConstVal = false;
        uint64_t branchPc = 0;
        ContextKey ctx;
        uint64_t targetPc = 0;
        uint64_t constVal = 0;
        BranchRecord payload;
    };

    explicit ProbBtb(const PbsConfig &cfg);

    /** @return index of the entry for (pc, ctx), or -1. */
    int
    find(uint64_t branchPc, const ContextKey &ctx) const
    {
        for (unsigned i = 0; i < numEntries_; i++) {
            const Entry &e = entries_[i];
            if (e.valid && e.branchPc == branchPc && e.ctx == ctx)
                return int(i);
        }
        return -1;
    }

    /** Allocate an entry; @return index or -1 when the table is full. */
    int allocate(uint64_t branchPc, const ContextKey &ctx);

    Entry &entry(int idx) { return entries_[idx]; }
    const Entry &entry(int idx) const { return entries_[idx]; }

    /** Invalidate all entries belonging to loop context @p loopSlot. */
    unsigned clearContext(int loopSlot, uint64_t loopPc);

    /** Invalidate one entry. */
    void clear(int idx) { entries_[idx] = Entry{}; }

    unsigned numEntries() const { return numEntries_; }

    /** Paper field widths: 1 + 48 + 48 + 48 + 8 + 1 + 1 + 64 bits. */
    size_t storageBits() const;

  private:
    const PbsConfig cfg_;
    unsigned numEntries_;
    std::array<Entry, PbsConfig::kMaxBranches> entries_{};
};

/**
 * SwapTable: holds the extra probabilistic value slots beyond the one in
 * the Prob-BTB (Category-2 branches with two live values).
 */
class SwapTable
{
  public:
    explicit SwapTable(const PbsConfig &cfg);

    /** Paper field widths: 48 + 3 + 8 + 1 bits per entry. */
    size_t storageBits() const;

    unsigned numEntries() const { return entries_; }

  private:
    const PbsConfig cfg_;
    unsigned entries_;
};

/**
 * Prob-in-Flight: records produced at execute and consumed at fetch.
 * Each logical record corresponds to the paper's pair of compare+jump
 * entries (2 x 2 bytes). The table holds at most inFlightLimit records
 * across all Prob-BTB entries; each entry sees its own records as a
 * queue in the order they were pushed (oldest at position 0), and a
 * fetch takes the oldest one that is already visible.
 */
class ProbInFlight
{
  public:
    explicit ProbInFlight(const PbsConfig &cfg);

    /**
     * Push a record produced at execution time.
     * @param btbIndex owning Prob-BTB entry
     * @param readyCycle cycle at which the record becomes visible
     * @return false when the table is full (record dropped)
     */
    bool
    push(int btbIndex, const BranchRecord &rec, uint64_t readyCycle)
    {
        if (free_ == 0)
            return false;
        const unsigned s = unsigned(std::countr_zero(free_));
        free_ &= free_ - 1;
        slots_[s] = {rec, readyCycle};
        Queue &q = queues_[btbIndex];
        q.slot[q.size++] = uint8_t(s);
        return true;
    }

    /** Records queued for @p btbIndex. */
    unsigned queued(int btbIndex) const { return queues_[btbIndex].size; }

    /** The cycle the record at @p pos of @p btbIndex's queue becomes
     *  visible. */
    uint64_t
    readyCycle(int btbIndex, unsigned pos) const
    {
        return slots_[queues_[btbIndex].slot[pos]].readyCycle;
    }

    /**
     * Position of the oldest record of @p btbIndex visible at
     * @p nowCycle, searching from position @p from; queued() if none.
     */
    unsigned
    firstReady(int btbIndex, uint64_t nowCycle, unsigned from = 0) const
    {
        const Queue &q = queues_[btbIndex];
        unsigned pos = from;
        while (pos < q.size && slots_[q.slot[pos]].readyCycle > nowCycle)
            pos++;
        return pos;
    }

    /** Remove the record at @p pos of @p btbIndex's queue into @p out. */
    void
    take(int btbIndex, unsigned pos, BranchRecord &out)
    {
        Queue &q = queues_[btbIndex];
        const unsigned s = q.slot[pos];
        out = slots_[s].rec;
        free_ |= 1u << s;
        for (q.size--; pos < q.size; pos++)
            q.slot[pos] = q.slot[pos + 1];
    }

    /** Drop all records of one Prob-BTB entry. */
    void clearIndex(int btbIndex);

    unsigned occupancy() const;
    unsigned capacity() const { return cfg_.inFlightLimit; }

    /** Paper: 2 bytes per entry, compare+jump = 2 entries per record. */
    size_t storageBits() const;

  private:
    struct Slot
    {
        BranchRecord rec;
        uint64_t readyCycle = 0;
    };

    /** One Prob-BTB entry's records: slot numbers, oldest first. */
    struct Queue
    {
        uint8_t size = 0;
        std::array<uint8_t, PbsConfig::kMaxInFlight> slot{};
    };

    static_assert(PbsConfig::kMaxInFlight < 32, "free_ is a 32-bit mask");

    const PbsConfig cfg_;
    uint32_t free_;  ///< bit s set: slots_[s] holds no record
    std::array<Slot, PbsConfig::kMaxInFlight> slots_{};
    std::array<Queue, PbsConfig::kMaxBranches> queues_{};
};

}  // namespace pbs::core

#endif  // PBS_CORE_TABLES_HH
