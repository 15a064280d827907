/**
 * @file
 * The single-stepping reference for the differential suites.
 *
 * The functional engine and the mpki core execute through superblocks
 * (cpu::runBlocks). dispatch_equiv_test, functional_equiv_test,
 * sampling_test and property_test diff them against this helper: an
 * ArchState stepped one instruction at a time through cpu::stepLoop
 * (cpu::execute with cpu::NoHooks) over an engine's decoded image —
 * the loop that builds without computed goto run.
 */

#ifndef PBS_TESTS_SUPPORT_STEP_REFERENCE_HH
#define PBS_TESTS_SUPPORT_STEP_REFERENCE_HH

#include <cstdint>

#include "cpu/arch_state.hh"
#include "cpu/core_config.hh"
#include "cpu/superblock.hh"
#include "sampling/functional.hh"

namespace pbs::testsupport {

/** An ArchState and its branch counters, single-stepped. */
struct StepReference
{
    /** Start from @p engine's state (a fresh engine: the entry point),
     *  executing @p engine's image. */
    explicit StepReference(const sampling::FunctionalEngine &engine)
        : image(engine.image()), arch(engine.saveArch())
    {
    }

    /**
     * Execute at most @p n instructions through cpu::stepLoop, stopping
     * early at HALT or when the PC leaves the image. stats.instructions
     * follows arch.instructions.
     * @return the number executed.
     */
    uint64_t step(uint64_t n)
    {
        const cpu::ExecCtx ctx{arch.regs.data(), &arch.mem,
                               arch.probSeq.data(), &stats, &arch.halted};
        cpu::NoHooks hooks;
        const uint64_t start = arch.instructions;
        hooks.instructions = start;
        arch.pc = cpu::stepLoop(image, arch.pc,
                                cpu::stepEnd(start, n, ~uint64_t(0)), ctx,
                                hooks);
        arch.instructions = stats.instructions = hooks.instructions;
        return hooks.instructions - start;
    }

    /** Run until HALT (or the PC leaves the image). */
    void run() { step(~uint64_t(0)); }

    const isa::DecodedImage &image;
    cpu::ArchState arch;
    cpu::CoreStats stats;
};

}  // namespace pbs::testsupport

#endif  // PBS_TESTS_SUPPORT_STEP_REFERENCE_HH
