#include "cpu/core.hh"

#include <array>
#include <optional>
#include <stdexcept>
#include <string>

#include "bpred/factory.hh"
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

}  // namespace

Core::Core(const isa::Program &prog, const CoreConfig &cfg)
    : image_(isa::DecodedImage::decode(prog)), cfg_(validated(cfg)),
      hierarchy_(cfg.memory), pbs_(cfg.pbs)
{
    pred_ = bpred::makePredictor(cfg_.predictor);
    predIsPerfect_ = pred_->isPerfect();
    if (cfg_.filterProbFromPredictor)
        sidePred_ = std::make_unique<bpred::StaticPredictor>(false);

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
    if (isProb && cfg_.filterProbFromPredictor) {
        predicted = sidePred_->predict(pc);
        sidePred_->update(pc, taken);
    } else if (predIsPerfect_) {
        predicted = taken;
    } else {
        predicted = pred_->predict(pc);
        pred_->update(pc, taken);
    }

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
    {}

    /** Write the loop's state back to the core. */
    [[gnu::always_inline]] void
    sync()
    {
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

    /** The PBS steering decision of a PROB_CMP, taken at fetch. */
    core::PbsInstance probFetch;

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
            probFetch = c.pbs_.onProbCmpFetch(op.probJmpPc, f);
            if (kTiming && probFetch.stallCycles > 0) {
                f += probFetch.stallCycles;
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
            ProbGroup &grp = c.probGroups_[op.probId];
            grp = ProbGroup{};
            grp.open = true;
            grp.condNew = cond;
            grp.token = probFetch.token;
            grp.steered = probFetch.steered;
            grp.old = probFetch.old;
            grp.managed = c.pbs_.onProbCmpExec(probFetch.token, vNew,
                                               operand, done);
            if (grp.steered) {
                // The value swap: condition and probabilistic value
                // come from the recorded previous execution.
                c.writeReg(op.rd, grp.old.taken ? 1 : 0);
                c.writeReg(op.rs1, grp.old.value1);
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
        resolve(pc, taken, false);
        if constexpr (kPbs)
            c.pbs_.noteBranch(pc, target, taken);
    }

    [[gnu::always_inline]] void
    onCall([[maybe_unused]] uint64_t pc)
    {
        if constexpr (kPbs)
            c.pbs_.noteCall(pc);
    }

    [[gnu::always_inline]] void
    onReturn()
    {
        if constexpr (kPbs)
            c.pbs_.noteReturn();
    }

    [[gnu::always_inline]] void
    onCarrier([[maybe_unused]] const DecodedOp &op)
    {
        // Value carrier: participates in the swap, never branches.
        if constexpr (kPbs) {
            const ProbGroup &grp = c.probGroups_[op.probId];
            if (!grp.open)
                return;
            c.pbs_.onCarrierExec(grp.token, c.regs_[op.rd]);
            if (grp.steered && grp.old.hasValue2)
                c.writeReg(op.rd, grp.old.value2);
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
                c.pbs_.onProbJmpExec(grp.token, grp.condNew, v2,
                                     op.target, done, selfSeq);
                if (grp.steered) {
                    steered = true;
                    predict = false;
                    taken = grp.old.taken;
                    consumedSeq = grp.old.genSeq;
                    if (op.rd != isa::REG_ZERO && grp.old.hasValue2)
                        c.writeReg(op.rd, grp.old.value2);
                    c.stats_.steeredBranches++;
                    // Direction known at fetch: no prediction, no
                    // penalty.
                } else {
                    taken = grp.condNew;
                }
            }
            grp.open = false;
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

}  // namespace pbs::cpu
