#include "core/pbs_engine.hh"

#include <stdexcept>
#include <string>

namespace pbs::core {

namespace {

/** @p cfg itself, if every table fits the engine's fixed arrays;
 *  otherwise std::invalid_argument naming the field. */
const PbsConfig &
validated(const PbsConfig &cfg)
{
    auto check = [](const char *field, unsigned v, unsigned max) {
        if (v == 0 || v > max)
            throw std::invalid_argument(std::string("PbsConfig.") + field +
                                        " = " + std::to_string(v) +
                                        " is invalid");
    };
    check("numBranches", cfg.numBranches, PbsConfig::kMaxBranches);
    check("valuesPerBranch", cfg.valuesPerBranch, ~0u);
    check("inFlightLimit", cfg.inFlightLimit, PbsConfig::kMaxInFlight);
    check("contextEntries", cfg.contextEntries,
          PbsConfig::kMaxContextEntries);
    return cfg;
}

}  // namespace

PbsEngine::PbsEngine(const PbsConfig &cfg)
    : cfg_(validated(cfg)), tracking_(cfg.contextSupport), btb_(cfg),
      swapTable_(cfg), inFlight_(cfg), ctxTable_(cfg)
{
}

void
PbsEngine::onContextClear(int loopSlot, uint64_t loopPc)
{
    // Flush every PBS entry created under the cleared loop context,
    // including its queued in-flight records. Live instances check
    // entry validity at publish time, so no dangling state survives.
    for (unsigned i = 0; i < btb_.numEntries(); i++) {
        const auto &e = btb_.entry(i);
        if (e.valid && e.ctx.loopSlot == loopSlot &&
            e.ctx.loopPc == loopPc) {
            inFlight_.clearIndex(static_cast<int>(i));
            btb_.clear(static_cast<int>(i));
            stats_.contextClears++;
        }
    }
}

void
PbsEngine::onProbCmpFetch(PbsInstance &inst, uint64_t branchPc,
                          uint64_t cycle)
{
    // Field by field: a whole-object reset compiles to a `rep stos`,
    // whose startup and store forwarding cost more than the rest of
    // the fetch. Fields the instance's state does not reach (old
    // unless steered, the new values until set) keep stale contents.
    inst.steered = false;
    inst.fallback = FallbackReason::None;
    inst.stallCycles = 0;
    inst.recording = false;
    inst.hasNewValue2 = false;
    inst.hasPendingConstVal = false;
    inst.btbIndex = -1;
    inst.branchPc = branchPc;
    inst.ctx = ContextKey{};

    if (!enabled_) {
        inst.fallback = FallbackReason::Disabled;
        return;
    }
    if (cfg_.constValGuard && constValDisabled(branchPc)) {
        inst.fallback = FallbackReason::ConstValViolation;
        return;
    }
    if (cfg_.contextSupport) {
        bool supported;
        inst.ctx = ctxTable_.currentContext(supported);
        if (!supported) {
            stats_.fetchDepthLimited++;
            inst.fallback = FallbackReason::DepthLimit;
            return;
        }
    }

    inst.recording = true;
    inst.btbIndex = btb_.find(branchPc, inst.ctx);
    if (inst.btbIndex < 0 || !steer(inst, inst.btbIndex, cycle)) {
        inst.fallback = FallbackReason::Bootstrap;
        stats_.fetchBootstrap++;
    }
}

bool
PbsEngine::steer(PbsInstance &inst, int idx, uint64_t cycle)
{
    ProbBtb::Entry &e = btb_.entry(idx);
    // The refill below looks for the oldest record visible at
    // `visibleAt`, from queue position `from` on.
    unsigned from = 0;
    uint64_t visibleAt = cycle;
    if (e.hasPayload) {
        inst.old = e.payload;
    } else {
        const unsigned queued = inFlight_.queued(idx);
        const unsigned pos = inFlight_.firstReady(idx, cycle);
        if (pos < queued) {
            inFlight_.take(idx, pos, inst.old);
            from = pos;  // the records before it are not visible yet
        } else if (cfg_.stallOnBusy && queued > 0) {
            // Records exist but are all still executing: stall fetch
            // until the oldest completes rather than risking a squash.
            visibleAt = inFlight_.readyCycle(idx, 0);
            inst.stallCycles = visibleAt - cycle;
            stats_.fetchStalled++;
            stats_.stallCycles += inst.stallCycles;
            inFlight_.take(idx, 0, inst.old);
        } else {
            return false;
        }
    }
    inst.steered = true;
    stats_.fetchSteered++;
    // Refill for the next fetch if a record is already visible.
    const unsigned refill = inFlight_.firstReady(idx, visibleAt, from);
    e.hasPayload = refill < inFlight_.queued(idx);
    if (e.hasPayload)
        inFlight_.take(idx, refill, e.payload);
    return true;
}

bool
PbsEngine::onProbCmpExec(PbsInstance &inst, uint64_t newValue1,
                         uint64_t cmpOperand)
{
    inst.newValue1 = newValue1;
    if (!inst.recording)
        return false;

    if (inst.btbIndex < 0) {
        // First execution in this context: remember the comparison
        // operand for registration at allocation time.
        inst.pendingConstVal = cmpOperand;
        inst.hasPendingConstVal = true;
        return true;
    }
    auto &e = btb_.entry(inst.btbIndex);
    if (!e.valid || e.branchPc != inst.branchPc) {
        // The entry was flushed (context clear) underneath us.
        inst.btbIndex = -1;
    } else if (cfg_.constValGuard) {
        if (e.hasConstVal && e.constVal != cmpOperand) {
            // Comparison value changed within the context: unsafe.
            // Flush and stick the branch to regular treatment.
            inFlight_.clearIndex(inst.btbIndex);
            btb_.clear(inst.btbIndex);
            if (constValDisabled_.size() <= inst.branchPc)
                constValDisabled_.resize(inst.branchPc + 1);
            constValDisabled_[inst.branchPc] = true;
            stats_.constValFlushes++;
            inst.recording = false;
            inst.btbIndex = -1;
            return false;
        }
        if (!e.hasConstVal) {
            e.hasConstVal = true;
            e.constVal = cmpOperand;
        }
    }
    return true;
}

void
PbsEngine::onProbJmpExec(PbsInstance &inst, bool outcome,
                         std::optional<uint64_t> newValue2,
                         uint64_t targetPc, uint64_t execCycle,
                         uint64_t genSeq)
{
    if (!inst.recording)
        return;
    inst.recording = false;
    if (newValue2)
        onCarrierExec(inst, *newValue2);

    int idx = inst.btbIndex;
    if (idx >= 0) {
        const auto &e = btb_.entry(idx);
        if (!e.valid || e.branchPc != inst.branchPc)
            idx = -1;  // flushed while in flight
    }
    if (idx < 0 && (idx = publishEntry(inst, targetPc)) < 0)
        return;  // no capacity: branch stays regular

    BranchRecord rec;
    rec.taken = outcome;
    rec.genSeq = genSeq;
    rec.value1 = inst.newValue1;
    rec.value2 = inst.hasNewValue2 ? inst.newValue2 : 0;
    rec.hasValue2 = inst.hasNewValue2;

    if (inFlight_.push(idx, rec, execCycle))
        stats_.recordsPushed++;
    else
        stats_.recordsDropped++;
}

int
PbsEngine::publishEntry(const PbsInstance &inst, uint64_t targetPc)
{
    int idx = btb_.find(inst.branchPc, inst.ctx);
    if (idx >= 0)
        return idx;
    idx = btb_.allocate(inst.branchPc, inst.ctx);
    if (idx < 0) {
        // Capacity heuristic (paper Sec. V-C2): prefer evicting
        // entries whose loop context is gone, then entries from
        // outer loop levels, so the hot innermost branches win.
        int victim = -1;
        for (unsigned i = 0; i < btb_.numEntries(); i++) {
            const auto &e = btb_.entry(i);
            bool stale = e.ctx.loopSlot >= 0
                ? !ctxTable_.isLive(e.ctx.loopSlot, e.ctx.loopPc)
                : (cfg_.contextSupport && ctxTable_.anyLoopActive());
            if (stale) {
                victim = static_cast<int>(i);
                break;
            }
        }
        if (victim < 0 && cfg_.contextSupport) {
            int active = ctxTable_.activeLoop();
            if (active >= 0 && inst.ctx.loopSlot == active) {
                for (unsigned i = 0; i < btb_.numEntries(); i++) {
                    if (btb_.entry(i).ctx.loopSlot != active) {
                        victim = static_cast<int>(i);
                        break;
                    }
                }
            }
        }
        if (victim < 0) {
            stats_.fetchUnsupported++;
            return -1;
        }
        inFlight_.clearIndex(victim);
        btb_.clear(victim);
        stats_.entriesEvicted++;
        idx = btb_.allocate(inst.branchPc, inst.ctx);
    }
    stats_.entriesAllocated++;
    auto &e = btb_.entry(idx);
    e.targetPc = targetPc;
    if (cfg_.constValGuard && inst.hasPendingConstVal) {
        e.hasConstVal = true;
        e.constVal = inst.pendingConstVal;
    }
    return idx;
}

size_t
PbsEngine::storageBits() const
{
    return btb_.storageBits() + swapTable_.storageBits() +
           inFlight_.storageBits() + ctxTable_.storageBits();
}

}  // namespace pbs::core
