#include "ledger.hh"

#include <algorithm>

#include "jobs.hh"

#include "bpred/factory.hh"
#include "cpu/core.hh"
#include "mem/cache.hh"
#include "sampling/functional.hh"
#include "trace.hh"
#include "util/clock.hh"

namespace perfbench {

using pbs::isa::DecodedOp;
using pbs::isa::Opcode;

namespace {

/**
 * Base byte address of the instruction image in the core's I-cache
 * stream (cpu::Core places instruction pc at kTextBase + 8 * pc). The
 * replay equality against Core::caches() fails if the two disagree.
 */
constexpr uint64_t kTextBase = uint64_t(1) << 32;

/** Time @p fn under a span. @return elapsed host ns. */
template <class Fn>
uint64_t
timed(const char *span, uint64_t id, Fn &&fn)
{
    Span s(span, id);
    const uint64_t t0 = pbs::util::monotonicNowNs();
    fn();
    return pbs::util::monotonicNowNs() - t0;
}

pbs::cpu::CoreConfig
rungConfig(const pbs::exp::ExpPoint &base, const std::string &predictor,
           bool mpki, bool pbsOn)
{
    pbs::exp::ExpPoint pt = base;
    pt.mode = "detailed";
    pt.predictor = predictor;
    pt.functional = mpki;
    pt.pbs = pbsOn;
    return pbs::exp::pointCoreConfig(pt);
}

CacheCounts
countsOf(const pbs::mem::MemoryHierarchy &h)
{
    return {h.l1i().hits(), h.l1i().misses(), h.l1d().hits(),
            h.l1d().misses(), h.l2().hits(), h.l2().misses()};
}

/** One core run: its instruction count, mispredicts and caches. */
struct CoreRun
{
    uint64_t ns = 0;
    uint64_t instructions = 0;
    uint64_t mispredicts = 0;
    CacheCounts caches;
};

CoreRun
runCore(const char *span, uint64_t id, const pbs::isa::Program &prog,
        const pbs::cpu::CoreConfig &cfg)
{
    pbs::cpu::Core core(prog, cfg);
    CoreRun r;
    r.ns = timed(span, id, [&] { core.run(); });
    r.instructions = core.stats().instructions;
    r.mispredicts = core.stats().mispredicts;
    r.caches = countsOf(core.caches());
    return r;
}

/** Fastest of a rung's repetitions: host slowdowns only add time. */
uint64_t
best(const std::vector<double> &ns)
{
    return uint64_t(*std::min_element(ns.begin(), ns.end()));
}

double
rate(uint64_t misses, uint64_t hits)
{
    return misses + hits ? double(misses) / double(misses + hits) : 0.0;
}

}  // namespace

Streams
captureStreams(const pbs::isa::Program &prog)
{
    pbs::sampling::FunctionalEngine fe(prog);
    const pbs::isa::DecodedImage &img = fe.image();
    Streams s;
    uint64_t lastLine = ~uint64_t(0);
    auto reg = [&](unsigned r) { return r ? fe.reg(r) : uint64_t(0); };
    while (!fe.halted()) {
        const uint64_t pc = fe.pc();
        const DecodedOp &op = img.at(pc);
        // Fetch first (a new I-cache line), then the load, as the core
        // orders them within one instruction.
        const uint64_t fetchByte = kTextBase + pc * 8;
        if ((fetchByte >> 6) != lastLine) {
            lastLine = fetchByte >> 6;
            s.accesses.push_back(fetchByte << 2 | Streams::kFetch);
        }
        if (op.isLoad()) {
            const uint64_t ea = reg(op.rs1) + static_cast<uint64_t>(op.imm);
            s.accesses.push_back(ea << 2 | Streams::kLoad);
        }
        bool branch = false, taken = false;
        if (op.op == Opcode::JZ || op.op == Opcode::JNZ) {
            const bool nonzero = reg(op.rs1) != 0;
            branch = true;
            taken = op.op == Opcode::JNZ ? nonzero : !nonzero;
        } else if (op.op == Opcode::PROB_JMP && !op.isCarrierProbJmp()) {
            // PBS off: a branching PROB_JMP is a JNZ on its condition.
            branch = true;
            taken = reg(op.rs1) != 0;
        }
        if (branch)
            s.branches.push_back(pc << 1 | uint64_t(taken));
        fe.step(1);
    }
    s.instructions = fe.stats().instructions;
    return s;
}

uint64_t
replayBranches(const std::vector<uint64_t> &branches,
               const std::string &predictor)
{
    auto pred = pbs::bpred::makePredictor(predictor);
    if (pred->isPerfect())
        return 0;  // the core never consults the oracle predictor
    uint64_t mispredicts = 0;
    for (uint64_t b : branches) {
        const uint64_t pc = b >> 1;
        const bool taken = b & 1;
        const bool predicted = pred->predict(pc);
        pred->update(pc, taken);
        mispredicts += predicted != taken;
    }
    return mispredicts;
}

CacheCounts
replayAccesses(const std::vector<uint64_t> &accesses)
{
    pbs::mem::MemoryHierarchy h{pbs::mem::HierarchyConfig{}};
    for (uint64_t a : accesses) {
        const uint64_t addr = a >> 2;
        if ((a & 3) == Streams::kFetch) {
            h.instAccess(addr);
            h.instPrefetch(addr + 64);  // the core's next-line prefetch
        } else {
            h.dataAccess(addr);
        }
    }
    return countsOf(h);
}

LedgerResult
runLedger(const std::vector<LadderProgram> &programs,
          const std::vector<std::string> &predictors, unsigned reps)
{
    LedgerResult out;
    auto check = [&](bool ok, const std::string &what) {
        out.checks++;
        if (!ok)
            out.failures.push_back(what);
    };

    // Per-rung totals (best repetition per program, summed).
    uint64_t insts = 0, funcNs = 0, perfectNs = 0;
    std::map<std::string, uint64_t> mpkiNs, pbsNs, detNs, detPbsNs;
    std::map<std::string, uint64_t> pbsInsts;
    uint64_t memNs = 0, memAccesses = 0;
    std::map<std::string, uint64_t> replayNs;
    uint64_t replayBranchCount = 0;
    CacheCounts total;  // detailed-run caches, summed over programs

    for (const LadderProgram &lp : programs) {
        const std::string tag = lp.point.workload + " seed " +
                                std::to_string(lp.point.seed);
        const uint64_t id = lp.spanId;
        std::vector<double> tFunc, tPerfect;
        std::map<std::string, std::vector<double>> tMpki, tPbs, tDet,
            tDetPbs;
        uint64_t nFunc = 0;
        std::map<std::string, uint64_t> nPbs;
        CacheCounts caches;

        for (unsigned rep = 0; rep < reps; rep++) {
            {
                pbs::sampling::FunctionalEngine fe(lp.prog);
                tFunc.push_back(double(timed("sampling.run", id,
                                             [&] { fe.run(); })));
                nFunc = fe.stats().instructions;
            }
            CoreRun perfect = runCore("cpu.run_mpki_perfect", id, lp.prog,
                                      rungConfig(lp.point, "perfect",
                                                 true, false));
            tPerfect.push_back(double(perfect.ns));
            check(perfect.instructions == nFunc,
                  tag + ": mpki/perfect rung ran " +
                      std::to_string(perfect.instructions) +
                      " instructions, functional " + std::to_string(nFunc));
            for (const std::string &p : predictors) {
                CoreRun m = runCore("bpred.run_mpki", id, lp.prog,
                                    rungConfig(lp.point, p, true, false));
                CoreRun mp = runCore("core.run_mpki_pbs", id, lp.prog,
                                     rungConfig(lp.point, p, true, true));
                CoreRun d = runCore("cpu.run_detailed", id, lp.prog,
                                    rungConfig(lp.point, p, false, false));
                CoreRun dp = runCore("cpu.run_detailed_pbs", id, lp.prog,
                                     rungConfig(lp.point, p, false, true));
                tMpki[p].push_back(double(m.ns));
                tPbs[p].push_back(double(mp.ns));
                tDet[p].push_back(double(d.ns));
                tDetPbs[p].push_back(double(dp.ns));
                nPbs[p] = mp.instructions;
                check(m.instructions == nFunc && d.instructions == nFunc,
                      tag + " " + p + ": PBS-off rungs disagree on the "
                      "instruction count");
                check(mp.instructions == dp.instructions,
                      tag + " " + p + ": PBS-on rungs disagree on the "
                      "instruction count (mpki " +
                          std::to_string(mp.instructions) + ", detailed " +
                          std::to_string(dp.instructions) + ")");
                if (rep == 0 && p == predictors.front())
                    caches = d.caches;
            }
        }

        insts += nFunc;
        funcNs += best(tFunc);
        perfectNs += best(tPerfect);
        for (const std::string &p : predictors) {
            mpkiNs[p] += best(tMpki[p]);
            pbsNs[p] += best(tPbs[p]);
            detNs[p] += best(tDet[p]);
            detPbsNs[p] += best(tDetPbs[p]);
            pbsInsts[p] += nPbs[p];
        }

        // Replays. The streams are predictor-independent (PBS off).
        Streams s;
        timed("sampling.step", id, [&] { s = captureStreams(lp.prog); });
        check(s.instructions == nFunc,
              tag + ": stream capture instruction count differs");
        replayBranchCount += s.branches.size();
        for (const std::string &p : zooPredictors()) {
            uint64_t mis = 0;
            replayNs[p] += timed("bpred.replay", id, [&] {
                mis = replayBranches(s.branches, p);
            });
            CoreRun core = runCore("bpred.run_mpki_check", id, lp.prog,
                                   rungConfig(lp.point, p, true, false));
            check(mis == core.mispredicts,
                  tag + " " + p + ": replayed mispredicts " +
                      std::to_string(mis) + " != core " +
                      std::to_string(core.mispredicts));
        }
        CacheCounts replayed;
        memNs += timed("mem.replay", id,
                       [&] { replayed = replayAccesses(s.accesses); });
        memAccesses += s.accesses.size();
        check(replayed == caches,
              tag + ": replayed cache hits/misses differ from "
                    "Core::caches()");
        total.l1iHits += caches.l1iHits;
        total.l1iMisses += caches.l1iMisses;
        total.l1dHits += caches.l1dHits;
        total.l1dMisses += caches.l1dMisses;
        total.l2Hits += caches.l2Hits;
        total.l2Misses += caches.l2Misses;
    }

    out.l1iMissRate = rate(total.l1iMisses, total.l1iHits);
    out.l1dMissRate = rate(total.l1dMisses, total.l1dHits);
    out.l2MissRate = rate(total.l2Misses, total.l2Hits);
    if (insts == 0)
        return out;
    const double n = double(insts);
    out.funcNsPerInst = double(funcNs) / n;
    out.bookkeepingNsPerInst = double(perfectNs) / n - out.funcNsPerInst;
    const double perfectPerInst = double(perfectNs) / n;
    const double memPerInst = double(memNs) / n;
    double bpred = 0, pbsCost = 0, timing = 0;
    for (const std::string &p : predictors) {
        const double mpki = double(mpkiNs[p]) / n;
        const double mpkiPbs = double(pbsNs[p]) / double(pbsInsts[p]);
        const double det = double(detNs[p]) / n;
        const double detPbs = double(detPbsNs[p]) / double(pbsInsts[p]);
        bpred += mpki - perfectPerInst;
        pbsCost += mpkiPbs - mpki;
        timing += ((det - mpki) + (detPbs - mpkiPbs)) / 2.0 - memPerInst;
    }
    const double np = double(predictors.size());
    out.bpredNsPerInst = bpred / np;
    out.pbsNsPerInst = pbsCost / np;
    out.timingNsPerInst = timing / np;
    for (const auto &[p, ns] : replayNs) {
        out.nsPerBranch[p] =
            replayBranchCount ? double(ns) / double(replayBranchCount) : 0;
    }
    out.memNsPerAccess =
        memAccesses ? double(memNs) / double(memAccesses) : 0.0;
    return out;
}

}  // namespace perfbench
