/**
 * @file
 * Functional-mode correctness: the sampling subsystem's
 * FunctionalEngine must leave registers, memory, the PC and the
 * program outputs bit-identical to a detailed (timing) run with PBS
 * disabled, on every registered workload across multiple seeds — under
 * both the superblock dispatcher and the reference opcode switch — and
 * both must reproduce the native reference outputs exactly (the RNG
 * ISA twins guarantee bit-equality end to end).
 */

#include <gtest/gtest.h>

#include <string>

#include "cpu/core.hh"
#include "sampling/functional.hh"
#include "workloads/common.hh"

namespace {

using namespace pbs;

class FunctionalEquiv : public ::testing::TestWithParam<const char *> {};

TEST_P(FunctionalEquiv, MatchesDetailedAndNative)
{
    const auto &b = workloads::benchmarkByName(GetParam());
    for (uint64_t seed : {11u, 47u, 20260u}) {
        workloads::WorkloadParams p;
        p.seed = seed;
        p.scale = std::max<uint64_t>(1, b.defaultScale / 100);
        const std::string base =
            std::string(GetParam()) + " seed " + std::to_string(seed);

        cpu::CoreConfig detCfg;  // timing, PBS off
        detCfg.predictor = "tage-sc-l";
        cpu::Core detailed(b.build(p, workloads::Variant::Marked),
                           detCfg);
        detailed.run();
        const auto native = b.nativeOutput(p);
        const auto detOut = b.simOutput(detailed.memory());

        for (auto fd : {sampling::FuncDispatch::Superblock,
                        sampling::FuncDispatch::Switch}) {
            const std::string what =
                base + " [" + sampling::funcDispatchName(fd) + "]";
            sampling::FunctionalEngine functional(
                b.build(p, workloads::Variant::Marked), 0, fd);
            functional.run();

            // Architectural end state, register by register.
            for (unsigned r = 0; r < isa::kNumRegs; r++)
                EXPECT_EQ(detailed.reg(r), functional.reg(r))
                    << what << " r" << r;
            EXPECT_EQ(detailed.pc(), functional.pc()) << what;
            EXPECT_TRUE(functional.halted()) << what;

            // Memory, byte for byte (zero pages treated as absent).
            EXPECT_TRUE(detailed.memory().sameContents(
                functional.memory())) << what;

            // Instruction-stream statistics the engines share.
            const auto &ds = detailed.stats();
            const auto &fs = functional.stats();
            EXPECT_EQ(ds.instructions, fs.instructions) << what;
            EXPECT_EQ(ds.branches, fs.branches) << what;
            EXPECT_EQ(ds.probBranches, fs.probBranches) << what;
            EXPECT_EQ(fs.cycles, 0u) << what;       // no timing model
            EXPECT_EQ(fs.mispredicts, 0u) << what;  // no predictor

            // Outputs: functional == detailed bit for bit, and both
            // match the native reference (same tolerance as the golden
            // tests).
            const auto funOut = b.simOutput(functional.memory());
            EXPECT_EQ(detOut, funOut) << what;
            ASSERT_EQ(funOut.size(), native.size()) << what;
            for (size_t i = 0; i < native.size(); i++)
                EXPECT_DOUBLE_EQ(funOut[i], native[i])
                    << what << " output[" << i << "]";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, FunctionalEquiv,
    ::testing::Values("dop", "greeks", "swaptions", "genetic", "photon",
                      "mc-integ", "pi", "bandit"),
    [](const auto &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

}  // namespace
