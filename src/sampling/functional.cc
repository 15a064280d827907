#include "sampling/functional.hh"

#include <stdexcept>

#include "cpu/execute.hh"

namespace pbs::sampling {

const char *
funcDispatchName(FuncDispatch d)
{
    return d == FuncDispatch::Switch ? "switch" : "superblock";
}

bool
superblockDispatchBuilt()
{
#if defined(PBS_HAVE_COMPUTED_GOTO)
    return true;
#else
    return false;
#endif
}

FunctionalEngine::FunctionalEngine(const isa::Program &prog,
                                   uint64_t maxInstructions,
                                   FuncDispatch dispatch)
    : image_(isa::DecodedImage::decode(prog)),
      maxInstructions_(maxInstructions),
      dispatch_(superblockDispatchBuilt() ? dispatch : FuncDispatch::Switch)
{
    pc_ = prog.entry;
    for (const auto &[addr, bytes] : prog.dataInit)
        mem_.writeBlock(addr, bytes);
    probSeq_.assign(size_t(image_.maxProbId()) + 1, 0);
    if (dispatch_ == FuncDispatch::Superblock)
        sb_ = std::make_unique<SuperblockImage>(
            SuperblockImage::build(image_));
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
#if defined(PBS_HAVE_COMPUTED_GOTO)
    if (dispatch_ == FuncDispatch::Superblock)
        return stepSuper(n);
#endif
    return stepSwitch(n);
}

cpu::ExecCtx
FunctionalEngine::execCtx()
{
    return {regs_.data(), &mem_, probSeq_.data(), &stats_, &halted_};
}

uint64_t
FunctionalEngine::stepSwitch(uint64_t n)
{
    const isa::DecodedOp *ops = image_.ops().data();
    const uint64_t size = image_.size();
    const cpu::ExecCtx ctx = execCtx();
    cpu::NoHooks hooks;
    uint64_t pc = pc_;
    uint64_t executed = 0;
    while (!halted_ && executed < n) {
        if (pc >= size) {
            pc_ = pc;
            stats_.instructions += executed;
            throw std::out_of_range("PC out of range: " +
                                    std::to_string(pc));
        }
        pc = cpu::execute(ops[pc], pc, ctx, hooks);
        executed++;
    }
    pc_ = pc;
    stats_.instructions += executed;
    return executed;
}

#if defined(PBS_HAVE_COMPUTED_GOTO)

uint64_t
FunctionalEngine::stepSuper(uint64_t n)
{
    const isa::DecodedOp *ops = image_.ops().data();
    const uint64_t size = image_.size();
    const SuperblockImage &sb = *sb_;
    SbCtx ctx;
    static_cast<cpu::ExecCtx &>(ctx) = execCtx();
    cpu::NoHooks hooks;

    uint64_t pc = pc_;
    uint64_t executed = 0;
    while (!halted_ && executed < n) {
        if (pc >= size) {
            pc_ = pc;
            stats_.instructions += executed;
            throw std::out_of_range("PC out of range: " +
                                    std::to_string(pc));
        }
        const uint32_t bi = sb.blockAt(pc);
        if (bi != SuperblockImage::kNoBlock &&
            sb.blocks()[bi].instCount <= n - executed) {
            // The dispatcher chains whole blocks while they fit the
            // remaining budget and stops at the first PC it cannot
            // handle; ctx.next is where execution stopped.
            executed += sbExecThreaded(sb, pc, n - executed, ctx);
            pc = ctx.next;
        } else {
            // Epilogue / mid-block entry: retire one instruction at a
            // time through the reference switch so step(n) stops at
            // the exact instruction count.
            pc = cpu::execute(ops[pc], pc, ctx, hooks);
            executed++;
        }
    }
    pc_ = pc;
    stats_.instructions += executed;
    return executed;
}

#endif  // PBS_HAVE_COMPUTED_GOTO

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
    // register file unguarded on the strength of it. No engine- or core-captured state can
    // violate it; this normalizes hand-crafted ArchStates too.
    regs_[isa::REG_ZERO] = 0;
    pc_ = state.pc;
    halted_ = state.halted;
    mem_ = state.mem;
    probSeq_ = state.probSeq;
    stats_.instructions = state.instructions;
}

}  // namespace pbs::sampling
