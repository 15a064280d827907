/**
 * @file
 * The timing model's store queue: the completion cycles of the last
 * kDepth stores, keyed by 8-byte address (addr >> 3), for store-to-load
 * dependences.
 */

#ifndef PBS_CPU_STORE_QUEUE_HH
#define PBS_CPU_STORE_QUEUE_HH

#include <array>
#include <cstdint>
#include <utility>

namespace pbs::cpu {

/**
 * A fixed ring of (key, done) pairs, newest at (head - 1) % kDepth,
 * plus a direct-mapped index holding the *newest* store to each key
 * with its global sequence number. lookup() probes the index first:
 *  - slot key matches, sequence in window  -> exact hit
 *  - slot key matches, sequence expired    -> absence proven (the
 *    newest store to the address left the window, so every older one
 *    did too)
 *  - slot empty                            -> absence proven
 *  - slot holds a colliding key            -> fall back to scan()
 * so lookup(key) == scan(key) always (cpu_test checks it under forced
 * collisions and window expiry).
 */
class StoreQueue
{
  public:
    static constexpr unsigned kDepth = 64;
    static constexpr unsigned kIndexSlots = 256;

    /** Completion cycle of the newest queued store to @p key, or 0. */
    uint64_t
    lookup(uint64_t key) const
    {
        const IndexEntry &ie = index_[slotOf(key)];
        if (ie.key == key)
            return seq_ - ie.seq < kDepth ? ie.done : 0;
        // kNoKey: no store ever hashed here, so none to this key.
        return ie.key == kNoKey ? 0 : scan(key);
    }

    /** The exact newest-first ring scan lookup() must agree with. */
    uint64_t
    scan(uint64_t key) const
    {
        for (unsigned k = 0; k < count_; k++) {
            const auto &e = ring_[(head_ + kDepth - 1 - k) % kDepth];
            if (e.first == key)
                return e.second;
        }
        return 0;
    }

    /** Queue a store to @p key completing at cycle @p done. */
    void
    push(uint64_t key, uint64_t done)
    {
        ring_[head_] = {key, done};
        head_ = (head_ + 1) % kDepth;
        if (count_ < kDepth)
            count_++;
        IndexEntry &ie = index_[slotOf(key)];
        ie.key = key;
        ie.seq = ++seq_;
        ie.done = done;
    }

    /** Index slot of @p key (exposed so tests can force collisions). */
    static unsigned
    slotOf(uint64_t key)
    {
        return unsigned((key * 0x9e3779b97f4a7c15ull) >> 56) &
               (kIndexSlots - 1);
    }

  private:
    /** addr>>3 keys have their top bits clear, so ~0 is never a key. */
    static constexpr uint64_t kNoKey = ~uint64_t(0);

    struct IndexEntry
    {
        uint64_t key = kNoKey;
        uint64_t seq = 0;   ///< 1-based global store number
        uint64_t done = 0;
    };

    std::array<std::pair<uint64_t, uint64_t>, kDepth> ring_{};
    unsigned head_ = 0;   ///< next slot to write
    unsigned count_ = 0;  ///< valid entries (<= kDepth)
    std::array<IndexEntry, kIndexSlots> index_{};
    uint64_t seq_ = 0;    ///< total stores so far
};

}  // namespace pbs::cpu

#endif  // PBS_CPU_STORE_QUEUE_HH
