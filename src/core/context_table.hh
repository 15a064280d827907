/**
 * @file
 * Calling-context support for PBS (paper Sec. V-C1, Fig. 5).
 *
 * The Context-Table tracks the two innermost loops (detected dynamically
 * from backward branches) and the function call made at depth one inside
 * the active loop. A probabilistic branch's full context is the active
 * loop slot plus the current function-call PC; different paths to the
 * same branch therefore occupy distinct PBS table entries.
 *
 * The per-branch work is inline: a forward branch returns at once, and
 * a backward branch of a tracked loop that is taken updates one entry.
 * Only loop allocation and termination run out of line. The active
 * loop (the entry with the newest stamp) is kept, not searched for.
 */

#ifndef PBS_CORE_CONTEXT_TABLE_HH
#define PBS_CORE_CONTEXT_TABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "core/pbs_config.hh"

namespace pbs::core {

/** Context identity attached to PBS table entries. */
struct ContextKey
{
    int loopSlot = -1;      ///< Context-Table slot of the active loop
    uint64_t loopPc = 0;    ///< loop header PC (disambiguates slot reuse)
    uint64_t funcPc = 0;    ///< call-site PC at depth 1, or 0

    bool operator==(const ContextKey &o) const = default;
};

/**
 * Loop and call tracking. Loop detection follows the classic
 * backward-branch scheme (Tubella & Gonzalez): the first instruction of
 * a loop is the target of a backward branch; Last-PC tracks the loop's
 * extent; a not-taken backward branch at or beyond Last-PC terminates
 * the loop.
 */
class ContextTable
{
  public:
    /** @p cfg.contextEntries must be in 1..PbsConfig::kMaxContextEntries
     *  (PbsEngine checks it). */
    explicit ContextTable(const PbsConfig &cfg);

    /**
     * Observe a conditional or unconditional branch at fetch. Each loop
     * context the branch ends (a terminated loop, the loops allocated
     * after it, or the oldest loop evicted for a new one) is reported
     * as @p onClear(slot, loopPc) before its entry is cleared.
     */
    template <class OnClear>
    [[gnu::always_inline]] void
    noteBranch(uint64_t pc, uint64_t target, bool taken, OnClear &&onClear)
    {
        if (target > pc)
            return;  // forward branch: not loop-relevant
        const int slot = findLoop(target);
        if (slot >= 0 && taken) {
            Entry &e = entries_[slot];
            e.lastPc = std::max(e.lastPc, pc);
            e.stamp = ++stampClock_;
            active_ = slot;
            return;
        }
        loopEvent(pc, target, taken, slot, onClear);
    }

    /** noteBranch with nobody to tell about cleared contexts. */
    void
    noteBranch(uint64_t pc, uint64_t target, bool taken)
    {
        noteBranch(pc, target, taken, [](int, uint64_t) {});
    }

    /** Observe a function call at fetch. */
    void
    noteCall(uint64_t pc)
    {
        if (active_ >= 0) {
            Entry &e = entries_[active_];
            if (e.callDepth < (1u << cfg_.callDepthBits) - 1)
                e.callDepth++;
            if (e.callDepth == 1)
                e.funcPc = pc;
        } else {
            globalCallDepth_++;
            if (globalCallDepth_ == 1)
                globalFuncPc_ = pc;
        }
    }

    /** Observe a function return at fetch. */
    void
    noteReturn()
    {
        if (active_ >= 0 && entries_[active_].callDepth > 0) {
            Entry &e = entries_[active_];
            e.callDepth--;
            if (e.callDepth == 0)
                e.funcPc = 0;
            return;
        }
        if (globalCallDepth_ > 0) {
            globalCallDepth_--;
            if (globalCallDepth_ == 0)
                globalFuncPc_ = 0;
        }
    }

    /**
     * Context of a probabilistic branch encountered now.
     * @param supported out: false when the call depth exceeds the
     *        supported nesting (branch must be treated as regular; the
     *        key is then the default one)
     */
    ContextKey
    currentContext(bool &supported) const
    {
        supported = true;
        ContextKey key;
        if (active_ >= 0) {
            const Entry &e = entries_[active_];
            if (e.callDepth > 1) {
                supported = false;
                return key;
            }
            key.loopSlot = active_;
            key.loopPc = e.loopPc;
            key.funcPc = e.callDepth == 1 ? e.funcPc : 0;
        } else {
            if (globalCallDepth_ > 1) {
                supported = false;
                return key;
            }
            key.funcPc = globalCallDepth_ == 1 ? globalFuncPc_ : 0;
        }
        return key;
    }

    /** Storage accounting per the paper's arithmetic. */
    size_t storageBits() const;

    uint64_t clears() const { return clears_; }

    /** @return the slot of the currently active loop, or -1. */
    int activeLoop() const { return active_; }

    /** @return true if any loop is currently being tracked. */
    bool anyLoopActive() const { return active_ >= 0; }

    /** @return true if @p slot currently holds the loop @p loopPc. */
    bool
    isLive(int slot, uint64_t loopPc) const
    {
        return slot >= 0 && slot < int(cfg_.contextEntries) &&
               entries_[slot].valid && entries_[slot].loopPc == loopPc;
    }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t loopPc = 0;
        uint64_t lastPc = 0;
        uint64_t funcPc = 0;
        unsigned callDepth = 0;
        uint64_t stamp = 0;   ///< recency (last backward-taken branch)
    };

    int
    findLoop(uint64_t loopPc) const
    {
        for (unsigned i = 0; i < cfg_.contextEntries; i++) {
            if (entries_[i].valid && entries_[i].loopPc == loopPc)
                return int(i);
        }
        return -1;
    }

    /** The rest of noteBranch for a backward branch: a new loop that
     *  iterates (allocation), or a not-taken branch of a tracked one
     *  (@p slot; possibly its termination). */
    template <class OnClear>
    [[gnu::noinline]] void
    loopEvent(uint64_t pc, uint64_t target, bool taken, int slot,
              OnClear &onClear)
    {
        if (slot < 0) {
            // New loop: allocate only when it actually iterates.
            if (!taken)
                return;
            slot = oldestSlot();
            clearEntry(slot, onClear);
            Entry &e = entries_[slot];
            e.valid = true;
            e.loopPc = target;
            e.lastPc = pc;
            e.stamp = ++stampClock_;
            active_ = slot;
            return;
        }

        Entry &e = entries_[slot];
        e.lastPc = std::max(e.lastPc, pc);
        // Not-taken backward branch at the loop's furthest extent: the
        // loop terminated. Clear it, and also clear any loop allocated
        // after it (an inner loop cannot outlive its enclosing loop).
        if (pc >= e.lastPc) {
            const uint64_t stamp = e.stamp;
            clearEntry(slot, onClear);
            for (unsigned i = 0; i < cfg_.contextEntries; i++) {
                if (entries_[i].valid && entries_[i].stamp > stamp)
                    clearEntry(int(i), onClear);
            }
            active_ = newestSlot();
        }
    }

    template <class OnClear>
    void
    clearEntry(int slot, OnClear &onClear)
    {
        Entry &e = entries_[slot];
        if (!e.valid)
            return;
        onClear(slot, e.loopPc);
        e = Entry{};
        clears_++;
    }

    /** The valid entry with the newest stamp, or -1. */
    int newestSlot() const;
    /** An invalid entry, else the valid one with the oldest stamp. */
    int oldestSlot() const;

    const PbsConfig cfg_;
    std::array<Entry, PbsConfig::kMaxContextEntries> entries_{};
    int active_ = -1;  ///< newestSlot(), kept current
    uint64_t stampClock_ = 0;
    uint64_t clears_ = 0;

    /** Call depth outside any detected loop. */
    unsigned globalCallDepth_ = 0;
    uint64_t globalFuncPc_ = 0;
};

}  // namespace pbs::core

#endif  // PBS_CORE_CONTEXT_TABLE_HH
