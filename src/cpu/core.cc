#include "cpu/core.hh"

#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "bpred/factory.hh"
#include "bpred/zoo.hh"
#include "cpu/execute.hh"
#include "cpu/superblock.hh"
#include "isa/assembler.hh"

namespace pbs::cpu {

using isa::DecodedOp;
using isa::FuKind;
using isa::LatKind;
using isa::Opcode;

namespace {

/**
 * Enforce a per-cycle event-count limit: returns a cycle >= atLeast with
 * fewer than @p width events already booked, keeping @p lastCycle
 * monotonic.
 */
uint64_t
bandwidthLimit(uint64_t &lastCycle, unsigned &count, unsigned width,
               uint64_t atLeast)
{
    uint64_t c = std::max(atLeast, lastCycle);
    if (c == lastCycle && count >= width)
        c++;
    if (c != lastCycle) {
        lastCycle = c;
        count = 0;
    }
    count++;
    return c;
}

/** One FU class's configured pool size and the field it came from. */
struct PoolSize
{
    FuKind fu;
    const char *field;
    unsigned units;
};

std::array<PoolSize, size_t(FuKind::NUM_FU_KINDS)>
poolSizes(const FuPools &p)
{
    return {{
        {FuKind::IntAlu, "pools.intAlu", p.intAlu},
        {FuKind::IntMul, "pools.intMul", p.intMul},
        {FuKind::IntDiv, "pools.intDiv", p.intDiv},
        {FuKind::FpAlu, "pools.fpAlu", p.fpAlu},
        {FuKind::FpMul, "pools.fpMul", p.fpMul},
        {FuKind::FpDiv, "pools.fpDiv", p.fpDiv},
        {FuKind::Load, "pools.loadPorts", p.loadPorts},
        {FuKind::Store, "pools.storePorts", p.storePorts},
    }};
}

/** @p cfg itself, if the scoreboard can index everything it sizes;
 *  otherwise std::invalid_argument naming the field. */
const CoreConfig &
validated(const CoreConfig &cfg)
{
    auto fail = [](const std::string &field, unsigned v) {
        throw std::invalid_argument("CoreConfig." + field + " = " +
                                    std::to_string(v) + " is invalid");
    };
    if (cfg.width == 0)
        fail("width", 0);
    if (cfg.robSize == 0)
        fail("robSize", 0);
    for (const PoolSize &ps : poolSizes(cfg.pools)) {
        if (ps.units == 0 || ps.units > Core::kMaxFuUnits)
            fail(ps.field, ps.units);
    }
    return cfg;
}

[[noreturn, gnu::cold]] void
throwPcOutOfRange(uint64_t pc)
{
    throw std::out_of_range("PC out of range: " + std::to_string(pc));
}

/**
 * Where the mpki hooks record a run's branch directions. Bits gather
 * in a word the step loop keeps in a register and go to the stream
 * every 64 bits and at the end of the loop, so recording does not make
 * the loop reload its state.
 */
struct DirectionRecorder
{
    DirectionStream *stream = nullptr;  ///< nullptr: record nothing
    uint64_t word = 0;
    unsigned bits = 0;

    [[gnu::always_inline]] void
    record(bool bit)
    {
        word |= uint64_t(bit) << bits;
        if (++bits == 64) {
            stream->append(word, 64);
            word = 0;
            bits = 0;
        }
    }
};

/** The timing hooks' recorder: none. */
struct NoRecorder
{};

[[noreturn, gnu::cold]] void
throwStreamMismatch(const char *what, uint64_t pc)
{
    throw std::logic_error(std::string("direction stream does not fit "
                                       "the program: ") +
                           what + " at PC " + std::to_string(pc));
}

}  // namespace

Core::Core(const isa::Program &prog, const CoreConfig &cfg)
    : image_(isa::DecodedImage::decode(prog)), cfg_(validated(cfg)),
      hierarchy_(cfg.memory), pbs_(cfg.pbs)
{
    pred_ = bpred::makePredictor(cfg_.predictor);
    predIsPerfect_ = pred_->isPerfect();

    pbs_.setEnabled(cfg_.pbsEnabled);
    pc_ = prog.entry;
    if (kSuperblocksBuilt && cfg_.mode != SimMode::Timing)
        blocks_ = std::make_unique<SuperblockImage>(
            SuperblockImage::build(image_));

    for (const auto &[addr, bytes] : prog.dataInit)
        mem_.writeBlock(addr, bytes);

    probGroups_.assign(size_t(image_.maxProbId()) + 1, ProbGroup{});
    probSeq_.assign(size_t(image_.maxProbId()) + 1, 0);

    latOf_[size_t(LatKind::IntAlu)] = cfg_.lat.intAlu;
    latOf_[size_t(LatKind::IntMul)] = cfg_.lat.intMul;
    latOf_[size_t(LatKind::IntDiv)] = cfg_.lat.intDiv;
    latOf_[size_t(LatKind::FpAlu)] = cfg_.lat.fpAlu;
    latOf_[size_t(LatKind::FpMul)] = cfg_.lat.fpMul;
    latOf_[size_t(LatKind::FpDiv)] = cfg_.lat.fpDiv;
    latOf_[size_t(LatKind::FpSqrt)] = cfg_.lat.fpSqrt;
    latOf_[size_t(LatKind::FpTrans)] = cfg_.lat.fpTrans;
    latOf_[size_t(LatKind::LoadBase)] = 1;  // + memory latency
    latOf_[size_t(LatKind::Store)] = cfg_.lat.store;

    for (const PoolSize &ps : poolSizes(cfg_.pools))
        fuPools_[size_t(ps.fu)].count = ps.units;

    commitRing_.assign(cfg_.robSize, 0);

    if (cfg_.traceProbBranches)
        probTrace_.reserve(4096);
}

double
Core::regDouble(unsigned r) const
{
    return isa::bitsToDouble(regs_[r]);
}

ArchState
Core::saveArch() const
{
    ArchState s;
    s.regs = regs_;
    s.pc = pc_;
    s.halted = halted_;
    s.instructions = stats_.instructions;
    s.mem = mem_;
    s.probSeq = probSeq_;
    return s;
}

void
Core::restoreArch(const ArchState &state)
{
    if (state.probSeq.size() != probSeq_.size()) {
        throw std::invalid_argument(
            "restoreArch: state captured from a different program "
            "(probSeq size mismatch)");
    }
    regs_ = state.regs;
    // Pin the REG_ZERO invariant (regs_[0] == 0): cpu::execute reads
    // the register file unguarded on the strength of it.
    regs_[isa::REG_ZERO] = 0;
    pc_ = state.pc;
    halted_ = state.halted;
    mem_ = state.mem;
    probSeq_ = state.probSeq;
    // Groups open at capture resume unmanaged (exact PBS-off
    // semantics); see cpu/arch_state.hh.
    for (ProbGroup &g : probGroups_)
        g = ProbGroup{};
}

void
Core::writeReg(unsigned r, uint64_t v)
{
    if (r != isa::REG_ZERO)
        regs_[r] = v;
}

bool
Core::predictAndTrain(uint64_t pc, bool taken, bool isProb)
{
    bool predicted;
    if (isProb && cfg_.filterProbFromPredictor)
        predicted = sidePred_.predictAndUpdate(pc, taken);
    else if (predIsPerfect_)
        predicted = taken;
    else
        predicted = pred_->predictAndUpdate(pc, taken);

    if (predicted == taken)
        return false;
    stats_.mispredicts++;
    if (isProb)
        stats_.probMispredicts++;
    else
        stats_.regularMispredicts++;
    return true;
}

/**
 * The core's view of one cpu::execute step: fetch and issue timing,
 * the store queue, the direction predictor, the PBS engine (steering
 * at fetch, value swaps at execution) and commit. One object lives for
 * one step loop; @ref f and @ref done carry the current instruction's
 * fetch and completion cycles from onIssue to the later hooks. Under
 * !kTiming (mpki) every timing structure is compiled out, which leaves
 * the data-op hooks with nothing to do, so the mpki hooks run on
 * superblocks (kDataHooksNoOp); under !kPbs the PBS engine and the
 * probabilistic-group table are compiled out.
 *
 * The object holds the loop's register-resident state: the
 * instruction count, the scoreboard's configuration constants and a
 * reference to runLoop's local Scoreboard. Every member is
 * always_inline and no call receives the address of the object or of
 * the Scoreboard, so neither escapes and the compiler need not reload
 * them after a register write or an opaque call. sync() writes the
 * state back to the core; runLoop calls it when it returns and before
 * it throws. (A destructor would also cover the other, internal-error
 * throws, but its cleanup paths cost the mpki loops about 15%.)
 *
 * Off-timing, the hooks also record the run's branch directions into
 * the core's DirectionStream when recordDirections() set one (@ref
 * recorder); with none set, each conditional branch, call and return
 * pays one test of a null pointer. The timing hooks carry no recorder.
 */
template <bool kTiming, bool kPbs>
struct Core::Hooks
{
    /** Off-timing, no hook acts on a data op (onIssue only records
     *  the instruction index for the PBS engine, onRetire is empty),
     *  so the mpki loops run on superblocks (cpu/superblock.hh). */
    static constexpr bool kDataHooksNoOp = !kTiming;

    Hooks(Core &core, Scoreboard &scoreboard)
        : c(core), instructions(core.stats_.instructions), sb(scoreboard),
          ring(core.commitRing_.data()), width(core.cfg_.width),
          robSize(core.cfg_.robSize),
          frontendDepth(core.cfg_.frontendDepth),
          slack(core.cfg_.frontendDepth + 2 * core.cfg_.width),
          mispredictPenalty(core.cfg_.mispredictPenalty),
          l1iHit(core.cfg_.memory.l1i.hitLatency)
    {
        if constexpr (!kTiming)
            recorder.stream = core.capture_;
    }

    /** Write the loop's state back to the core. */
    [[gnu::always_inline]] void
    sync()
    {
        if constexpr (!kTiming) {
            if (recorder.stream)
                recorder.stream->append(recorder.word, recorder.bits);
        }
        c.stats_.instructions = instructions;
        if constexpr (kTiming) {
            c.sb_ = sb;
            c.stats_.cycles = sb.lastCommitCycle;
        } else {
            // Off-timing, a cycle is an instruction.
            c.stats_.cycles = instructions;
        }
    }

    Core &c;
    uint64_t instructions;  ///< stats_.instructions, while the loop runs
    uint64_t f = 0;     ///< fetch cycle (instruction count off-timing)
    uint64_t done = 0;  ///< completion cycle

    Scoreboard &sb;  ///< the core's scoreboard, while the loop runs
    uint64_t *const ring;  ///< commitRing_
    const unsigned width;
    const unsigned robSize;
    const unsigned frontendDepth;
    /** Fetch backpressure: a bounded fetch queue keeps fetch at most
     *  this many cycles ahead of dispatch. */
    const uint64_t slack;
    const unsigned mispredictPenalty;
    const unsigned l1iHit;

    [[no_unique_address]]
    std::conditional_t<kTiming, NoRecorder, DirectionRecorder> recorder;

    /** Record one branch direction, if recording (off-timing only:
     *  the timing hooks must not even call it, or GCC lays out their
     *  loops differently). */
    [[gnu::always_inline]] void
    record(bool bit)
    {
        if (recorder.stream)
            recorder.record(bit);
    }

    /** The fetch cycle of the instruction at @p pc. */
    [[gnu::always_inline]] uint64_t
    fetchTiming(uint64_t pc)
    {
        uint64_t at_least = std::max(sb.fetchCycle, sb.frontendReadyAt);
        uint64_t fc = bandwidthLimit(sb.fetchCycle, sb.fetchedInCycle,
                                     width, at_least);

        // I-cache: charge extra latency when entering a new line.
        uint64_t byte_addr = kTextBase + pc * 8;
        uint64_t line = byte_addr >> 6;
        if (line != sb.lastFetchLine) {
            sb.lastFetchLine = line;
            unsigned latency = c.hierarchy_.instAccess(byte_addr);
            c.hierarchy_.instPrefetch(byte_addr + 64);  // next-line
            if (latency > l1iHit) {
                fc += latency - l1iHit;
                sb.fetchCycle = fc;
                sb.fetchedInCycle = 1;
            }
        }
        return fc;
    }

    /** Issue on the earliest-free unit of @p cls: the completion
     *  cycle. The units of a pool are interchangeable, so only the
     *  multiset of their free cycles matters; the pool keeps it sorted,
     *  and the earliest-free unit is always freeAt[0]. */
    [[gnu::always_inline]] uint64_t
    issueOn(FuKind cls, unsigned latency, bool pipelined, uint64_t ready)
    {
        FuPool &pool = c.fuPools_[size_t(cls)];
        const uint64_t issue = std::max(ready, pool.freeAt[0]);
        // The unit is busy until `busy`, which is no earlier than any
        // unit it passes here: re-insert it in order.
        const uint64_t busy = issue + (pipelined ? 1 : latency);
        unsigned i = 1;
        for (; i < pool.count && pool.freeAt[i] < busy; i++)
            pool.freeAt[i - 1] = pool.freeAt[i];
        pool.freeAt[i - 1] = busy;
        return issue + latency;
    }

    /** Dispatch and issue @p op fetched at @p fetch: its completion
     *  cycle (memLatency is added to its configured latency). */
    [[gnu::always_inline]] uint64_t
    finishTiming(const DecodedOp &op, uint64_t fetch, uint64_t memLatency)
    {
        // Dispatch: frontend depth, dispatch bandwidth, ROB occupancy.
        // ring[robSlot] holds the commit cycle + 1 of the instruction
        // robSize before this one, or 0 while the ROB has not filled.
        uint64_t d = bandwidthLimit(sb.lastDispatchCycle,
                                    sb.dispatchedInCycle, width,
                                    fetch + frontendDepth);
        d = std::max(d, ring[sb.robSlot]);

        if (d > slack)
            sb.fetchCycle = std::max(sb.fetchCycle, d - slack);

        // Register dependences (renaming = last-writer tracking). The
        // source array is always padded to 3 entries with REG_ZERO, and
        // regReady[REG_ZERO] is invariantly 0, so the three maxes are
        // unconditional (branchless) and unused slots are no-ops.
        uint64_t ready = d;
        ready = std::max(ready, sb.regReady[op.srcs[0]]);
        ready = std::max(ready, sb.regReady[op.srcs[1]]);
        ready = std::max(ready, sb.regReady[op.srcs[2]]);

        unsigned latency = c.latOf_[size_t(op.lat)] + memLatency;
        return issueOn(op.fu, latency, !op.unpipelined(), ready);
    }

    [[gnu::always_inline]] void
    commitTiming()
    {
        uint64_t cc = bandwidthLimit(sb.lastCommitCycle,
                                     sb.committedInCycle, width, done + 1);
        ring[sb.robSlot] = cc + 1;
        if (++sb.robSlot == robSize)
            sb.robSlot = 0;
    }

    /** At most one taken branch per fetch cycle: the next instruction
     *  starts a new fetch group. */
    [[gnu::always_inline]] void
    endFetchGroup()
    {
        if (sb.fetchCycle <= f) {
            sb.fetchCycle = f + 1;
            sb.fetchedInCycle = 0;
        }
    }

    /** Predict and train; a misprediction under timing refills the
     *  front end once the branch resolves. */
    [[gnu::always_inline]] void
    resolve(uint64_t pc, bool taken, bool isProb)
    {
        if (c.predictAndTrain(pc, taken, isProb) && kTiming) {
            sb.frontendReadyAt =
                std::max(sb.frontendReadyAt, done + mispredictPenalty);
        }
    }

    [[gnu::always_inline]] void
    onIssue(const DecodedOp &op, [[maybe_unused]] uint64_t pc,
            [[maybe_unused]] uint64_t ea)
    {
        // Off-timing, f and done only time the PBS engine's records.
        if constexpr (!kTiming && !kPbs)
            return;
        if constexpr (kTiming)
            f = fetchTiming(pc);
        else
            f = instructions;

        // The PBS steering decision happens at fetch: query the engine
        // before the timing pass so a stallOnBusy delay is charged to
        // this instruction's fetch cycle.
        if (kPbs && op.op == Opcode::PROB_CMP) {
            core::PbsInstance &inst = c.probGroups_[op.probId].inst;
            c.pbs_.onProbCmpFetch(inst, op.probJmpPc, f);
            if (kTiming && inst.stallCycles > 0) {
                f += inst.stallCycles;
                if (sb.fetchCycle < f) {
                    sb.fetchCycle = f;
                    sb.fetchedInCycle = 1;
                }
            }
        }

        if constexpr (!kTiming) {
            done = f + c.cfg_.functionalExecDelay;
        } else {
            // Cache latency and the store-to-load dependence are known
            // before the timing pass; the dependence folds in
            // afterwards.
            uint64_t memLat = 0;
            uint64_t memDepReady = 0;
            if (op.isLoad() || op.isStore()) {
                memLat = op.isLoad() ? c.hierarchy_.dataAccess(ea) : 0;
                memDepReady = c.storeQueue_.lookup(ea >> 3);
            }
            done = std::max(finishTiming(op, f, memLat), memDepReady);
        }
    }

    [[gnu::always_inline]] void
    onProbCmp([[maybe_unused]] const DecodedOp &op,
              [[maybe_unused]] uint64_t vNew,
              [[maybe_unused]] uint64_t operand, [[maybe_unused]] bool cond)
    {
        // Only the PBS hooks read the group state back.
        if constexpr (kPbs) {
            // onIssue opened the instance at fetch.
            ProbGroup &grp = c.probGroups_[op.probId];
            grp.open = true;
            grp.condNew = cond;
            c.pbs_.onProbCmpExec(grp.inst, vNew, operand);
            if (grp.inst.steered) {
                // The value swap: condition and probabilistic value
                // come from the recorded previous execution.
                c.writeReg(op.rd, grp.inst.old.taken ? 1 : 0);
                c.writeReg(op.rs1, grp.inst.old.value1);
                // Guarded so regReady[REG_ZERO] stays 0 (the
                // dependence maxes rely on that invariant); a zero prob
                // register was never read back anyway.
                if (kTiming && op.rs1 != isa::REG_ZERO)
                    sb.regReady[op.rs1] = done;
            }
        }
    }

    [[gnu::always_inline]] void
    onJump([[maybe_unused]] uint64_t pc, [[maybe_unused]] uint64_t target)
    {
        if constexpr (kPbs)
            c.pbs_.noteBranch(pc, target, true);
    }

    [[gnu::always_inline]] void
    onBranch(uint64_t pc, [[maybe_unused]] uint64_t target, bool taken)
    {
        if constexpr (!kTiming)
            record(taken);
        resolve(pc, taken, false);
        if constexpr (kPbs)
            c.pbs_.noteBranch(pc, target, taken);
    }

    [[gnu::always_inline]] void
    onCall([[maybe_unused]] uint64_t pc)
    {
        if constexpr (!kTiming) {
            if (recorder.stream)
                recorder.stream->noteCall(pc + 1);
        }
        if constexpr (kPbs)
            c.pbs_.noteCall(pc);
    }

    [[gnu::always_inline]] void
    onReturn()
    {
        // RET jumps to REG_RA and leaves it as it is.
        if constexpr (!kTiming) {
            if (recorder.stream)
                recorder.stream->noteReturn(c.regs_[isa::REG_RA]);
        }
        if constexpr (kPbs)
            c.pbs_.noteReturn();
    }

    [[gnu::always_inline]] void
    onCarrier([[maybe_unused]] const DecodedOp &op)
    {
        // Value carrier: participates in the swap, never branches.
        if constexpr (kPbs) {
            ProbGroup &grp = c.probGroups_[op.probId];
            if (!grp.open)
                return;
            c.pbs_.onCarrierExec(grp.inst, c.regs_[op.rd]);
            if (grp.inst.steered && grp.inst.old.hasValue2)
                c.writeReg(op.rd, grp.inst.old.value2);
        }
    }

    [[gnu::always_inline]] bool
    onProbJmp(const DecodedOp &op, uint64_t pc, uint64_t selfSeq,
              bool cond)
    {
        uint64_t consumedSeq = selfSeq;
        // PBS disabled (or the group opened before a restore): behaves
        // as JNZ on the condition register.
        bool taken = cond;
        bool steered = false;
        bool predict = true;
        if constexpr (kPbs) {
            ProbGroup &grp = c.probGroups_[op.probId];
            if (grp.open) {
                std::optional<uint64_t> v2;
                if (op.rd != isa::REG_ZERO)
                    v2 = c.regs_[op.rd];
                c.pbs_.onProbJmpExec(grp.inst, grp.condNew, v2, op.target,
                                     done, selfSeq);
                const core::PbsInstance &inst = grp.inst;
                if (inst.steered) {
                    steered = true;
                    predict = false;
                    taken = inst.old.taken;
                    consumedSeq = inst.old.genSeq;
                    if (op.rd != isa::REG_ZERO && inst.old.hasValue2)
                        c.writeReg(op.rd, inst.old.value2);
                    c.stats_.steeredBranches++;
                    // Direction known at fetch: no prediction, no
                    // penalty.
                } else {
                    taken = grp.condNew;
                }
            }
            grp.open = false;
        }
        if constexpr (!kTiming) {
            if (kPbs)
                record(steered);
            record(taken);
        }
        if (predict)
            resolve(pc, taken, true);
        if (c.cfg_.traceProbBranches) {
            c.probTrace_.push_back({op.probId, selfSeq, consumedSeq, taken,
                                    steered});
        }
        if constexpr (kPbs)
            c.pbs_.noteBranch(pc, op.target, taken);
        return taken;
    }

    [[gnu::always_inline]] void
    onRetire([[maybe_unused]] const DecodedOp &op,
             [[maybe_unused]] uint64_t ea, [[maybe_unused]] bool redirected)
    {
        if constexpr (kTiming) {
            // Publish destination readiness for dependents.
            int dst = op.destReg();
            if (dst > 0)
                sb.regReady[dst] = done;
            if (op.isStore())
                c.storeQueue_.push(ea >> 3, done);
            // Taken control flow ends the fetch group.
            if (redirected)
                endFetchGroup();
            commitTiming();
        } else if (op.op == Opcode::CFD_JNZ) {
            // The one conditional branch with no hook of its own.
            record(redirected);
        }
    }
};

template <bool kPbs>
uint64_t
Core::runLoop(uint64_t n, uint64_t limit)
{
    const uint64_t start = stats_.instructions;
    const uint64_t end = stepEnd(start, n, limit);
    const DecodedOp *const ops = image_.ops().data();
    const uint64_t size = image_.size();
    const ExecCtx ctx{regs_.data(), &mem_, probSeq_.data(), &stats_,
                      &halted_};
    Scoreboard sb = sb_;
    Hooks<true, kPbs> hooks(*this, sb);

    uint64_t pc = pc_;
    while (!halted_ && hooks.instructions < end) {
        if (pc >= size) {
            pc_ = pc;
            hooks.sync();
            throwPcOutOfRange(pc);
        }
        pc = execute(ops[pc], pc, ctx, hooks);
        hooks.instructions++;
    }
    pc_ = pc;
    hooks.sync();
    return hooks.instructions - start;
}

template <bool kPbs>
uint64_t
Core::runSuperblocks(uint64_t n, uint64_t limit)
{
    const uint64_t start = stats_.instructions;
    const uint64_t end = stepEnd(start, n, limit);
    const ExecCtx ctx{regs_.data(), &mem_, probSeq_.data(), &stats_,
                      &halted_};
    Hooks<false, kPbs> hooks(*this, sb_);
    pc_ = runBlocks(blocks_.get(), image_, pc_, end, ctx, hooks,
                    counts_);
    hooks.sync();
    if (capture_ && halted_)
        capture_->noteHalt();
    if (!halted_ && hooks.instructions < end)
        throwPcOutOfRange(pc_);
    return hooks.instructions - start;
}

uint64_t
Core::runFor(uint64_t n, uint64_t limit)
{
    const bool timing = cfg_.mode == SimMode::Timing;
    if (cfg_.pbsEnabled) {
        return timing ? runLoop<true>(n, limit)
                      : runSuperblocks<true>(n, limit);
    }
    return timing ? runLoop<false>(n, limit)
                  : runSuperblocks<false>(n, limit);
}

void
Core::run()
{
    constexpr uint64_t kNoLimit = ~uint64_t(0);
    runFor(kNoLimit, cfg_.maxInstructions ? cfg_.maxInstructions
                                          : kNoLimit);
}

uint64_t
Core::step(uint64_t n)
{
    // step() ignores maxInstructions: callers count their own budget.
    return runFor(n, ~uint64_t(0));
}

void
Core::recordDirections(DirectionStream *stream)
{
    if (stream && cfg_.mode == SimMode::Timing)
        throw std::logic_error("recordDirections: a timing core does "
                               "not record directions");
    capture_ = stream;
    if (stream)
        stream->start(cfg_.pbsEnabled);
}

void
Core::replay(const DirectionStream &stream)
{
    if (cfg_.mode == SimMode::Timing || stats_.instructions != 0 ||
        halted_) {
        throw std::invalid_argument("replay: needs an mpki core that "
                                    "has not run");
    }
    if (!stream.usable() || stream.pbs() != cfg_.pbsEnabled) {
        throw std::invalid_argument("replay: the stream is unusable or "
                                    "was recorded with the other PBS "
                                    "setting");
    }
    // The predictor's type and the Fig. 9 filter are picked here, once:
    // every branch of the walk then calls a concrete predictAndUpdate.
    bpred::visitPredictor(*pred_, [&](auto &pred) {
        if (cfg_.filterProbFromPredictor)
            replayWalk<true>(stream, pred);
        else
            replayWalk<false>(stream, pred);
    });
}

namespace {

/** What the replay walk does at a node of the control-op graph. */
enum class WalkKind : uint8_t
{
    Cond,    ///< JZ / JNZ: a direction bit, predicted
    Cfd,     ///< CFD_JNZ: a direction bit, never predicted
    Prob,    ///< branching PROB_JMP: a steered bit (PBS on), a direction
    Call,    ///< CALL: edge 1 enters the callee; RET follows edge 0
    Ret,     ///< RET: edge 0 of the innermost open CALL
    Jmp,     ///< a JMP at the end of a chain too long to fold
    Halt,
    RunOff,  ///< the path runs off the end of the image
};

/**
 * One node of the replay walk's control-op graph: a control op that
 * reads a direction bit or the return stack. Edge d leads to node
 * next[d] and retires insts[d] instructions, from the op after this
 * one through the next node's op. The edges that reach a JMP follow it
 * to its target (up to 16 JMPs in a row), so the walk steps on a JMP
 * node only at the end of a longer chain.
 */
struct WalkNode
{
    uint32_t next[2];   ///< [0] fall-through (a call's return), [1] target
                        ///< (a JMP has only edge 1)
    uint64_t insts[2];
    uint32_t pc;        ///< the op's PC (RunOff: where the path starts)
    WalkKind kind;
};

/** The control-op graph of @p image: one node per control op that
 *  redirects (a carrier PROB_JMP never does), in PC order, then a
 *  RunOff node for each edge that runs off the image. */
struct WalkGraph
{
    std::vector<WalkNode> nodes;
    uint32_t entry = 0;        ///< the node the walk starts at
    uint64_t entryInsts = 0;   ///< instructions up to and including it

    WalkGraph(const isa::DecodedImage &image, uint64_t entryPc)
    {
        const DecodedOp *const ops = image.ops().data();
        const uint64_t size = image.size();
        // nextControl[pc]: the first control op at or after pc; size
        // when none follows. nodeOf maps a control op to its node.
        std::vector<uint32_t> nextControl(size + 1), nodeOf(size);
        nextControl[size] = uint32_t(size);
        for (uint64_t pc = size; pc-- > 0;) {
            const bool control =
                ops[pc].isControl() && !ops[pc].isCarrierProbJmp();
            nextControl[pc] = control ? uint32_t(pc) : nextControl[pc + 1];
        }
        for (uint64_t pc = 0; pc < size; pc++) {
            if (nextControl[pc] != pc)
                continue;
            nodeOf[pc] = uint32_t(nodes.size());
            nodes.push_back({{0, 0}, {0, 0}, uint32_t(pc), kindOf(ops[pc])});
        }

        // The edge that enters the path at `pc`, following JMPs.
        constexpr unsigned kMaxFold = 16;
        auto edge = [&](uint64_t pc, uint32_t &next, uint64_t &insts) {
            insts = 0;
            for (unsigned hops = 0;; hops++) {
                const uint64_t at = nextControl[pc];
                if (at == size) {
                    next = uint32_t(nodes.size());
                    nodes.push_back({{0, 0}, {0, 0}, uint32_t(pc),
                                     WalkKind::RunOff});
                    return;
                }
                insts += at - pc + 1;
                if (ops[at].op != Opcode::JMP || hops == kMaxFold) {
                    next = nodeOf[at];
                    return;
                }
                pc = ops[at].target;
            }
        };
        const size_t controlNodes = nodes.size();
        for (size_t i = 0; i < controlNodes; i++) {
            const uint64_t pc = nodes[i].pc;
            const uint64_t target = ops[pc].target;
            WalkNode n = nodes[i];
            switch (n.kind) {
              case WalkKind::Ret:
              case WalkKind::Halt:
              case WalkKind::RunOff:
                break;
              case WalkKind::Jmp:
                edge(target, n.next[1], n.insts[1]);
                break;
              default:
                edge(pc + 1, n.next[0], n.insts[0]);
                edge(target, n.next[1], n.insts[1]);
            }
            nodes[i] = n;
        }
        // pc <= size: branch targets are checked at predecode, and a
        // return goes to the op after its call.
        edge(entryPc, entry, entryInsts);
    }

    static WalkKind
    kindOf(const DecodedOp &op)
    {
        switch (op.op) {
          case Opcode::JZ:
          case Opcode::JNZ:
            return WalkKind::Cond;
          case Opcode::CFD_JNZ:
            return WalkKind::Cfd;
          case Opcode::PROB_JMP:
            return WalkKind::Prob;
          case Opcode::CALL:
            return WalkKind::Call;
          case Opcode::RET:
            return WalkKind::Ret;
          case Opcode::JMP:
            return WalkKind::Jmp;
          case Opcode::HALT:
            return WalkKind::Halt;
          default:
            throw std::logic_error("replay: unknown control op");
        }
    }
};

}  // namespace

template <bool kFilter, class Pred>
void
Core::replayWalk(const DirectionStream &stream, Pred &pred)
{
    // The walk follows the recorded path from one control op to the
    // next on the image's control-op graph: the instructions in
    // between are counted, not executed, and each step loads one node
    // and takes the edge the recorded direction picks.
    const bool pbsOn = cfg_.pbsEnabled;
    const WalkGraph graph(image_, pc_);
    const WalkNode *const nodes = graph.nodes.data();

    const uint64_t *const words = stream.words();
    const uint64_t nbits = stream.size();
    uint64_t bit = 0;
    auto nextBit = [&](uint64_t at) {
        if (bit == nbits)
            throwStreamMismatch("stream exhausted", at);
        const bool b = (words[bit >> 6] >> (bit & 63)) & 1;
        bit++;
        return b;
    };

    // predictAndTrain for this predictor type and filter setting. The
    // counts live in locals until HALT: the predictor's byte-sized
    // counters may alias stats_, which would force a reload per branch.
    uint64_t branches = 0, probBranches = 0, steered = 0;
    uint64_t regularMisses = 0, probMisses = 0;
    auto resolve = [&](uint64_t at, bool taken, bool isProb)
        [[gnu::always_inline]] {
        bool predicted;
        if (kFilter && isProb)
            predicted = sidePred_.predictAndUpdate(at, taken);
        else if constexpr (std::is_same_v<Pred, bpred::PerfectPredictor>)
            predicted = taken;  // the oracle is never wrong
        else
            predicted = pred.predictAndUpdate(at, taken);
        (isProb ? probMisses : regularMisses) += predicted != taken;
    };

    std::vector<uint32_t> calls;  ///< the CALL nodes of open calls
    uint32_t node = graph.entry;
    uint64_t insts = graph.entryInsts;
    for (;;) {
        const WalkNode &n = nodes[node];
        unsigned edge;
        // Branches first, as host branches the host predicts well
        // where a switch's indirect jump would not be.
        if (n.kind == WalkKind::Cond) [[likely]] {
            edge = nextBit(n.pc);
            branches++;
            resolve(n.pc, edge, false);
        } else if (n.kind == WalkKind::Prob) {
            branches++;
            probBranches++;
            // With PBS on, a steered bit comes first; a steered
            // branch is never predicted (as in the hooks' onProbJmp).
            const bool isSteered = pbsOn && nextBit(n.pc);
            edge = nextBit(n.pc);
            if (isSteered)
                steered++;
            else
                resolve(n.pc, edge, true);
        } else {
            switch (n.kind) {
              case WalkKind::Cfd:
                edge = nextBit(n.pc);
                branches++;
                break;
              case WalkKind::Call:
                calls.push_back(node);
                edge = 1;
                break;
              case WalkKind::Ret: {
                if (calls.empty())
                    throwStreamMismatch("RET without a CALL", n.pc);
                // Leave along the open call's return edge.
                const WalkNode &call = nodes[calls.back()];
                calls.pop_back();
                insts += call.insts[0];
                node = call.next[0];
                continue;
              }
              case WalkKind::Halt:
                if (bit != nbits)
                    throwStreamMismatch("bits left at HALT", n.pc);
                if (cfg_.maxInstructions && insts > cfg_.maxInstructions)
                    throwStreamMismatch("path longer than maxInstructions",
                                        n.pc);
                stats_.instructions = insts;
                stats_.cycles = insts;  // off-timing, a cycle is an inst
                stats_.branches = branches;
                stats_.probBranches = probBranches;
                stats_.steeredBranches = steered;
                stats_.mispredicts = regularMisses + probMisses;
                stats_.regularMispredicts = regularMisses;
                stats_.probMispredicts = probMisses;
                pc_ = n.pc + 1;
                halted_ = true;
                return;
              case WalkKind::RunOff:
                throwStreamMismatch("path runs off the image", n.pc);
              default:  // Jmp: edge 1 leads to its target
                edge = 1;
            }
        }
        insts += n.insts[edge];
        node = n.next[edge];
    }
}

}  // namespace pbs::cpu
