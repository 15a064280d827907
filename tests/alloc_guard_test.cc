/**
 * @file
 * Allocation-regression guard: after warm-up, the simulator's hot loop
 * must perform ZERO heap allocations. A counting `operator new` hook in
 * this TU observes every allocation in the process; the tests step a
 * core past its warm-up phase, snapshot the counter, run a large
 * steady-state window, and assert the counter did not move.
 *
 * This is the tripwire for reintroducing per-instruction containers
 * (the seed used unordered_maps and a deque on the per-instruction
 * path). If any std::map/unordered_map/deque/vector growth sneaks back
 * into the core's step loops (all four: timing and mpki, PBS off and
 * on), PbsEngine, the predictors, or the memory model's steady state,
 * these tests fail.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cpu/core.hh"
#include "workloads/common.hh"

// ---------------------------------------------------------------------
// Counting operator new/delete for the whole test binary.
// ---------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};
}  // namespace

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    if (p) {
        g_frees.fetch_add(1, std::memory_order_relaxed);
        std::free(p);
    }
}

void
operator delete[](void *p) noexcept
{
    ::operator delete(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace {

using namespace pbs;

uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/** Build a core for @p workload, step it past warm-up, then measure
 *  allocations across a long steady-state window. */
uint64_t
steadyStateAllocs(const char *workload, const cpu::CoreConfig &cfg,
                  uint64_t warmup, uint64_t window)
{
    const auto &b = workloads::benchmarkByName(workload);
    workloads::WorkloadParams p;
    p.seed = 7;
    p.scale = b.defaultScale;  // plenty of iterations for the window

    cpu::Core core(b.build(p, workloads::Variant::Marked), cfg);
    EXPECT_EQ(core.step(warmup), warmup) << "workload too small";

    // No gtest assertions inside the measured window: only the
    // simulator runs between the two counter reads.
    const uint64_t before = allocCount();
    const uint64_t executed = core.step(window);
    const uint64_t delta = allocCount() - before;
    EXPECT_EQ(executed, window) << "workload too small";
    return delta;
}

TEST(AllocGuard, HookIsLive)
{
    const uint64_t before = allocCount();
    auto *v = new std::vector<int>(100);
    delete v;
    EXPECT_GT(allocCount(), before);
}

TEST(AllocGuard, PiTageSteadyStateIsAllocationFree)
{
    cpu::CoreConfig cfg;
    cfg.predictor = "tage";
    EXPECT_EQ(steadyStateAllocs("pi", cfg, 50'000, 500'000), 0u);
}

TEST(AllocGuard, PiTageSclPbsSteadyStateIsAllocationFree)
{
    // PBS on exercises the engine's live-instance table, the Prob-BTB
    // and the in-flight queue on every probabilistic branch.
    cpu::CoreConfig cfg;
    cfg.predictor = "tage-sc-l";
    cfg.pbsEnabled = true;
    EXPECT_EQ(steadyStateAllocs("pi", cfg, 50'000, 500'000), 0u);
}

TEST(AllocGuard, BanditTimingSteadyStateIsAllocationFree)
{
    // bandit is load/store heavy: covers the store-queue ring, the
    // store index, the cache model, and sparse-memory steady state.
    cpu::CoreConfig cfg;
    cfg.predictor = "tournament";
    cfg.pbsEnabled = true;
    EXPECT_EQ(steadyStateAllocs("bandit", cfg, 100'000, 500'000), 0u);
}

TEST(AllocGuard, FunctionalSteadyStateIsAllocationFree)
{
    cpu::CoreConfig cfg;
    cfg.mode = cpu::SimMode::Functional;
    cfg.predictor = "tage";
    cfg.pbsEnabled = true;
    EXPECT_EQ(steadyStateAllocs("pi", cfg, 50'000, 500'000), 0u);
}

TEST(AllocGuard, MpkiPbsOffSteadyStateIsAllocationFree)
{
    // The fourth specialized loop (mpki, PBS off): the predictor zoo's
    // main case. With the tests above, every instantiated loop is
    // covered.
    cpu::CoreConfig cfg;
    cfg.mode = cpu::SimMode::Functional;
    cfg.predictor = "tage-sc-l";
    EXPECT_EQ(steadyStateAllocs("bandit", cfg, 100'000, 500'000), 0u);
}

}  // namespace
