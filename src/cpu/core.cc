#include "cpu/core.hh"

#include <array>
#include <optional>
#include <stdexcept>
#include <string>

#include "bpred/factory.hh"
#include "cpu/execute.hh"
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

inline uint64_t
Core::fetchTiming(uint64_t pc)
{
    uint64_t at_least = std::max(fetchCycle_, frontendReadyAt_);
    uint64_t f = bandwidthLimit(fetchCycle_, fetchedInCycle_, cfg_.width,
                                at_least);

    // I-cache: charge extra latency when entering a new line.
    uint64_t byte_addr = kTextBase + pc * 8;
    uint64_t line = byte_addr >> 6;
    if (line != lastFetchLine_) {
        lastFetchLine_ = line;
        unsigned latency = hierarchy_.instAccess(byte_addr);
        hierarchy_.instPrefetch(byte_addr + 64);  // next-line prefetch
        unsigned hit = cfg_.memory.l1i.hitLatency;
        if (latency > hit) {
            f += latency - hit;
            fetchCycle_ = f;
            fetchedInCycle_ = 1;
        }
    }
    return f;
}

/** Issue on the earliest-free unit of @p cls: the completion cycle. */
inline uint64_t
Core::issueOn(FuKind cls, unsigned latency, bool pipelined,
              uint64_t ready)
{
    FuPool &pool = fuPools_[size_t(cls)];
    unsigned best = 0;
    for (unsigned i = 1; i < pool.count; i++) {
        if (pool.freeAt[i] < pool.freeAt[best])
            best = i;
    }
    uint64_t issue = std::max(ready, pool.freeAt[best]);
    pool.freeAt[best] = issue + (pipelined ? 1 : latency);
    return issue + latency;
}

inline uint64_t
Core::finishTiming(const DecodedOp &op, uint64_t fetch,
                   uint64_t memLatency)
{
    // Dispatch: frontend depth, dispatch bandwidth, ROB occupancy.
    uint64_t d = bandwidthLimit(lastDispatchCycle_, dispatchedInCycle_,
                                cfg_.width, fetch + cfg_.frontendDepth);
    // commitRing_[robSlot_] holds the commit cycle of the instruction
    // robSize before this one (robSlot_ walks the ring once per
    // instruction, replacing a div-heavy `n % robSize`).
    if (stats_.instructions >= cfg_.robSize)
        d = std::max(d, commitRing_[robSlot_] + 1);

    // Fetch backpressure: a bounded fetch queue keeps fetch from running
    // arbitrarily ahead of dispatch.
    uint64_t slack = cfg_.frontendDepth + 2 * cfg_.width;
    if (d > slack)
        fetchCycle_ = std::max(fetchCycle_, d - slack);

    // Register dependences (renaming = last-writer tracking). The
    // source array is always padded to 3 entries with REG_ZERO, and
    // regReady_[REG_ZERO] is invariantly 0, so the three maxes are
    // unconditional (branchless) and unused slots are no-ops.
    uint64_t ready = d;
    ready = std::max(ready, regReady_[op.srcs[0]]);
    ready = std::max(ready, regReady_[op.srcs[1]]);
    ready = std::max(ready, regReady_[op.srcs[2]]);

    unsigned latency = latOf_[size_t(op.lat)] + memLatency;
    return issueOn(op.fu, latency, !op.unpipelined(), ready);
}

inline void
Core::commitTiming(uint64_t done)
{
    uint64_t c = bandwidthLimit(lastCommitCycle_, committedInCycle_,
                                cfg_.width, done + 1);
    commitRing_[robSlot_] = c;
    if (++robSlot_ == cfg_.robSize)
        robSlot_ = 0;
    if (c > stats_.cycles)
        stats_.cycles = c;
}

void
Core::endFetchGroup(uint64_t fetchCycle)
{
    // At most one taken branch per fetch cycle: the next instruction
    // starts a new fetch group.
    if (fetchCycle_ <= fetchCycle) {
        fetchCycle_ = fetchCycle + 1;
        fetchedInCycle_ = 0;
    }
}

template <bool kTiming>
void
Core::predictAndTrain(uint64_t pc, bool taken, bool isProb,
                      [[maybe_unused]] uint64_t doneCycle)
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

    if (predicted != taken) {
        stats_.mispredicts++;
        if (isProb)
            stats_.probMispredicts++;
        else
            stats_.regularMispredicts++;
        if constexpr (kTiming) {
            // The front end refills once the branch resolves.
            frontendReadyAt_ = std::max(
                frontendReadyAt_, doneCycle + cfg_.mispredictPenalty);
        }
    }
}

/**
 * The core's view of one cpu::execute step: fetch and issue timing,
 * the store queue, the direction predictor, the PBS engine (steering
 * at fetch, value swaps at execution) and commit. One object lives for
 * one runLoop; @ref f and @ref done carry the current instruction's
 * fetch and completion cycles from onIssue to the later hooks. Under
 * !kTiming (mpki) every timing structure is compiled out; under !kPbs
 * the PBS engine and the probabilistic-group table are.
 */
template <bool kTiming, bool kPbs>
struct Core::Hooks
{
    explicit Hooks(Core &core) : c(core) {}

    Core &c;
    uint64_t f = 0;     ///< fetch cycle (instruction count off-timing)
    uint64_t done = 0;  ///< completion cycle

    /** The PBS steering decision of a PROB_CMP, taken at fetch. */
    core::PbsInstance probFetch;

    [[gnu::always_inline]] void
    onIssue(const DecodedOp &op, [[maybe_unused]] uint64_t pc,
            [[maybe_unused]] uint64_t ea)
    {
        if constexpr (kTiming)
            f = c.fetchTiming(pc);
        else
            f = c.stats_.instructions;

        // The PBS steering decision happens at fetch: query the engine
        // before the timing pass so a stallOnBusy delay is charged to
        // this instruction's fetch cycle.
        if (kPbs && op.op == Opcode::PROB_CMP) {
            probFetch = c.pbs_.onProbCmpFetch(op.probJmpPc, f);
            if (kTiming && probFetch.stallCycles > 0) {
                f += probFetch.stallCycles;
                if (c.fetchCycle_ < f) {
                    c.fetchCycle_ = f;
                    c.fetchedInCycle_ = 1;
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
            done = std::max(c.finishTiming(op, f, memLat), memDepReady);
        }
    }

    void
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
                // Guarded so regReady_[REG_ZERO] stays 0 (the
                // dependence maxes rely on that invariant); a zero prob
                // register was never read back anyway.
                if (kTiming && op.rs1 != isa::REG_ZERO)
                    c.regReady_[op.rs1] = done;
            }
        }
    }

    void
    onJump([[maybe_unused]] uint64_t pc, [[maybe_unused]] uint64_t target)
    {
        if constexpr (kPbs)
            c.pbs_.noteBranch(pc, target, true);
    }

    void
    onBranch(uint64_t pc, [[maybe_unused]] uint64_t target, bool taken)
    {
        c.predictAndTrain<kTiming>(pc, taken, false, done);
        if constexpr (kPbs)
            c.pbs_.noteBranch(pc, target, taken);
    }

    void
    onCall([[maybe_unused]] uint64_t pc)
    {
        if constexpr (kPbs)
            c.pbs_.noteCall(pc);
    }

    void
    onReturn()
    {
        if constexpr (kPbs)
            c.pbs_.noteReturn();
    }

    void
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

    bool
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
            c.predictAndTrain<kTiming>(pc, taken, true, done);
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
                c.regReady_[dst] = done;
            if (op.isStore())
                c.storeQueue_.push(ea >> 3, done);
            // Taken control flow ends the fetch group.
            if (redirected)
                c.endFetchGroup(f);
            c.commitTiming(done);
        }
    }
};

template <bool kTiming, bool kPbs>
uint64_t
Core::runLoop(uint64_t n, uint64_t limit)
{
    const uint64_t start = stats_.instructions;
    const uint64_t budget = start >= limit ? 0 : std::min(n, limit - start);
    const DecodedOp *const ops = image_.ops().data();
    const uint64_t size = image_.size();
    const ExecCtx ctx{regs_.data(), &mem_, probSeq_.data(), &stats_,
                      &halted_};
    Hooks<kTiming, kPbs> hooks(*this);

    uint64_t pc = pc_;
    uint64_t executed = 0;
    while (!halted_ && executed < budget) {
        if (pc >= size) {
            pc_ = pc;
            if constexpr (!kTiming)
                stats_.cycles = stats_.instructions;
            throwPcOutOfRange(pc);
        }
        pc = execute(ops[pc], pc, ctx, hooks);
        stats_.instructions++;
        executed++;
    }
    pc_ = pc;
    // Off-timing, a cycle is an instruction.
    if constexpr (!kTiming)
        stats_.cycles = stats_.instructions;
    return executed;
}

uint64_t
Core::runFor(uint64_t n, uint64_t limit)
{
    const bool timing = cfg_.mode == SimMode::Timing;
    if (cfg_.pbsEnabled) {
        return timing ? runLoop<true, true>(n, limit)
                      : runLoop<false, true>(n, limit);
    }
    return timing ? runLoop<true, false>(n, limit)
                  : runLoop<false, false>(n, limit);
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
