#include "sampling/functional.hh"

#include <stdexcept>
#include <string>

namespace pbs::sampling {

FunctionalEngine::FunctionalEngine(const isa::Program &prog,
                                   uint64_t maxInstructions)
    : image_(isa::DecodedImage::decode(prog)),
      maxInstructions_(maxInstructions)
{
    pc_ = prog.entry;
    for (const auto &[addr, bytes] : prog.dataInit)
        mem_.writeBlock(addr, bytes);
    probSeq_.assign(size_t(image_.maxProbId()) + 1, 0);
    if (cpu::kSuperblocksBuilt)
        sb_ = std::make_unique<cpu::SuperblockImage>(
            cpu::SuperblockImage::build(image_));
}

void
FunctionalEngine::run()
{
    while (!halted_) {
        uint64_t chunk = 1u << 16;
        if (maxInstructions_) {
            if (stats_.instructions >= maxInstructions_)
                break;
            chunk = std::min<uint64_t>(
                chunk, maxInstructions_ - stats_.instructions);
        }
        step(chunk);
    }
}

uint64_t
FunctionalEngine::step(uint64_t n)
{
    const cpu::ExecCtx ctx{regs_.data(), &mem_, probSeq_.data(), &stats_,
                           &halted_};
    cpu::NoHooks hooks;
    const uint64_t start = stats_.instructions;
    hooks.instructions = start;
    const uint64_t end = cpu::stepEnd(start, n, ~uint64_t(0));
    pc_ = cpu::runBlocks(sb_.get(), image_, pc_, end, ctx, hooks,
                         counts_);
    stats_.instructions = hooks.instructions;
    if (!halted_ && hooks.instructions < end)
        throw std::out_of_range("PC out of range: " + std::to_string(pc_));
    return hooks.instructions - start;
}

cpu::ArchState
FunctionalEngine::saveArch() const
{
    cpu::ArchState s;
    s.regs = regs_;
    s.pc = pc_;
    s.halted = halted_;
    s.instructions = stats_.instructions;
    s.mem = mem_;
    s.probSeq = probSeq_;
    return s;
}

void
FunctionalEngine::restoreArch(const cpu::ArchState &state)
{
    if (state.probSeq.size() != probSeq_.size()) {
        throw std::invalid_argument(
            "restoreArch: state captured from a different program "
            "(probSeq size mismatch)");
    }
    regs_ = state.regs;
    // Pin the REG_ZERO invariant (regs_[0] == 0): every writer guards
    // it, and cpu::execute and the superblock handlers read the
    // register file unguarded on the strength of it. No engine- or
    // core-captured state can violate it; this normalizes hand-crafted
    // ArchStates too.
    regs_[isa::REG_ZERO] = 0;
    pc_ = state.pc;
    halted_ = state.halted;
    mem_ = state.mem;
    probSeq_ = state.probSeq;
    stats_.instructions = state.instructions;
}

}  // namespace pbs::sampling
