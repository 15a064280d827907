/**
 * @file
 * Direction streams: the architectural path of one mpki run, recorded
 * as branch directions so that a run under another direction
 * predictor can re-predict the same path without executing a single
 * data op (docs/architecture.md, "Direction streams").
 *
 * At mpki fidelity (SimMode::Functional) the path never depends on the
 * predictor: PBS steering is timed in instructions, not cycles. A
 * stream holds, in program order, one bit per dynamic JZ, JNZ, CFD_JNZ
 * and branching PROB_JMP (taken or not); with PBS on, each branching
 * PROB_JMP first adds a bit saying whether PBS steered it. JMP, CALL
 * and RET need no bits: their targets are static, and the capture
 * checks that every RET returns to the instruction after its CALL
 * (a shadow stack), so replay can follow them with a return stack.
 *
 * cpu::Core records a stream through recordDirections() and replays
 * one through replay(). A stream is usable() only when it covers a
 * whole run that halted: not a run cut by maxInstructions, not one
 * that threw, not one that returned through a rewritten RA, and not
 * one longer than kMaxBits.
 */

#ifndef PBS_CPU_DIRECTION_STREAM_HH
#define PBS_CPU_DIRECTION_STREAM_HH

#include <cstdint>
#include <vector>

namespace pbs::cpu {

/** The recorded branch directions of one mpki run. */
class DirectionStream
{
  public:
    /** Longest stream kept (16 MiB of bits); a longer run is not. */
    static constexpr uint64_t kMaxBits = uint64_t(1) << 27;
    /** Deepest capture-time call stack; a deeper run is not kept. */
    static constexpr size_t kMaxCallDepth = size_t(1) << 16;

    /** Whether the stream describes a whole halted run replay can
     *  follow. */
    bool usable() const { return halted_ && !broken_; }

    /** Whether the run had PBS on (each branching PROB_JMP then
     *  carries a steered bit before its direction bit). */
    bool pbs() const { return pbs_; }

    /** Bits recorded. */
    uint64_t size() const { return bits_; }

    /** The packed bits, 64 per word, bit i at words()[i / 64] bit
     *  i % 64. */
    const uint64_t *words() const { return words_.data(); }

    // --- Capture (cpu::Core's mpki hooks) ---

    /** Forget everything and start a capture of a run with PBS
     *  @p pbsOn. */
    void
    start(bool pbsOn)
    {
        *this = DirectionStream{};
        pbs_ = pbsOn;
    }

    /** Append the low @p n bits of @p bits (n <= 64), bit 0 first. */
    void
    append(uint64_t bits, unsigned n)
    {
        if (n == 0)
            return;
        if (bits_ + n > kMaxBits) {
            broken_ = true;
            return;
        }
        const unsigned used = bits_ & 63;
        if (used == 0)
            words_.push_back(bits);
        else {
            words_.back() |= bits << used;
            if (used + n > 64)
                words_.push_back(bits >> (64 - used));
        }
        bits_ += n;
    }

    /** A CALL whose return address is @p ret. */
    void
    noteCall(uint64_t ret)
    {
        if (calls_.size() == kMaxCallDepth)
            broken_ = true;
        else
            calls_.push_back(ret);
    }

    /** A RET to @p target: anything but the innermost open call's
     *  return address leaves the stream unusable. */
    void
    noteReturn(uint64_t target)
    {
        if (calls_.empty() || calls_.back() != target)
            broken_ = true;
        else
            calls_.pop_back();
    }

    /** The run reached HALT. */
    void noteHalt() { halted_ = true; }

  private:
    std::vector<uint64_t> words_;
    uint64_t bits_ = 0;
    std::vector<uint64_t> calls_;  ///< capture-time shadow stack
    bool pbs_ = false;
    bool halted_ = false;
    bool broken_ = false;
};

}  // namespace pbs::cpu

#endif  // PBS_CPU_DIRECTION_STREAM_HH
