#include "util/task_pool.hh"

#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/obs.hh"

namespace pbs::pool {

namespace {

/** One root parallelFor region: shared state every task points at. */
struct RootJob
{
    const std::function<void(size_t)> *body = nullptr;
    const char *label = "task";
    uint64_t gen = 0;  ///< monotonic region id (obs track binding)

    std::atomic<bool> failed{false};
    std::mutex errMu;
    std::exception_ptr error;  ///< first failure, rethrown at the root

    void recordException()
    {
        std::lock_guard<std::mutex> lk(errMu);
        if (!error)
            error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
    }
};

/**
 * A forked right half of a range, living on the forker's stack. The
 * forker may not return from its join until done is set, so the
 * object outlives every access; executors copy the fields out before
 * running and never touch the task after the done store.
 */
struct ForkedTask
{
    RootJob *job = nullptr;
    size_t lo = 0;
    size_t hi = 0;
    std::atomic<bool> done{false};
};

/**
 * Bounded Chase-Lev deque. Owner pushes/pops bottom, thieves CAS the
 * monotonically-increasing top. Buffer cells are atomics, so a
 * thief's stale pre-CAS read of a recycled slot is a benign atomic
 * race (the CAS then fails and the value is discarded), and the whole
 * structure is fence-free seq_cst — ThreadSanitizer-verifiable.
 * Capacity bounds outstanding forks per worker; push() refuses when
 * full and the caller runs the would-be fork inline.
 */
class Deque
{
  public:
    static constexpr size_t kCap = 4096;

    bool push(ForkedTask *t)
    {
        int64_t b = bottom_.load(std::memory_order_relaxed);
        int64_t tp = top_.load();
        if (b - tp >= int64_t(kCap))
            return false;
        buf_[size_t(b) % kCap].store(t, std::memory_order_relaxed);
        bottom_.store(b + 1);
        return true;
    }

    ForkedTask *pop()
    {
        int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
        bottom_.store(b);
        int64_t tp = top_.load();
        if (tp > b) {
            bottom_.store(b + 1);
            return nullptr;
        }
        ForkedTask *t = buf_[size_t(b) % kCap].load(
            std::memory_order_relaxed);
        if (tp == b) {
            if (!top_.compare_exchange_strong(tp, tp + 1))
                t = nullptr;  // a thief won the last entry
            bottom_.store(b + 1);
        }
        return t;
    }

    ForkedTask *steal()
    {
        int64_t tp = top_.load();
        int64_t b = bottom_.load();
        if (tp >= b)
            return nullptr;
        ForkedTask *t = buf_[size_t(tp) % kCap].load(
            std::memory_order_relaxed);
        if (!top_.compare_exchange_strong(tp, tp + 1))
            return nullptr;
        return t;
    }

    bool emptyApprox() const
    {
        return top_.load(std::memory_order_relaxed) >=
               bottom_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> top_{0};
    std::atomic<int64_t> bottom_{0};
    std::array<std::atomic<ForkedTask *>, kCap> buf_{};
};

struct WorkerState
{
    Deque deque;
    unsigned index = 0;       ///< display index for obs track names
    uint64_t rng = 0;         ///< steal-victim / jitter xorshift state
    uint64_t boundGen = 0;    ///< region whose obs track is bound
    uint32_t boundTrack = 0;  ///< that region's track id
    bool isPoolWorker = false;
};

uint64_t
xorshift(uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

thread_local WorkerState *tState = nullptr;

}  // namespace

/** Everything behind the TaskPool facade (keeps the header light). */
struct PoolImpl
{
    // -- configuration ------------------------------------------------
    unsigned jobs = 1;

    // -- persistent workers -------------------------------------------
    std::vector<std::thread> threads;
    std::vector<std::unique_ptr<WorkerState>> workerStates;
    std::atomic<bool> stop{false};

    // External threads (main, test threads) that call parallelFor get
    // a persistent slot here so thieves can scan their deques too.
    static constexpr size_t kMaxExternal = 8;
    std::array<std::atomic<WorkerState *>, kMaxExternal> externals{};
    std::atomic<unsigned> nextExternal{0};

    // -- idle/wake protocol -------------------------------------------
    std::mutex idleMu;
    std::condition_variable idleCv;
    std::atomic<int> sleepers{0};

    // -- regions ------------------------------------------------------
    std::atomic<uint64_t> nextGen{0};

    // -- stress jitter ------------------------------------------------
    std::atomic<unsigned> jitterMax{0};
    std::atomic<uint64_t> jitterSeed{0};

    // -- counters (relaxed; snapshot only) ----------------------------
    std::atomic<uint64_t> cRegions{0}, cTasks{0}, cSplits{0},
        cSteals{0}, cOverflow{0};

    ~PoolImpl() { joinWorkers(); }

    // ------------------------------------------------------------------
    // Worker lifecycle.
    // ------------------------------------------------------------------

    void joinWorkers()
    {
        stop.store(true);
        idleCv.notify_all();
        for (auto &t : threads)
            t.join();
        threads.clear();
        workerStates.clear();
        stop.store(false);
    }

    void spawnWorkers()
    {
        const unsigned n = jobs > 1 ? jobs - 1 : 0;
        workerStates.reserve(n);
        threads.reserve(n);
        for (unsigned i = 0; i < n; i++) {
            auto ws = std::make_unique<WorkerState>();
            ws->index = i;
            ws->rng = 0x9e3779b97f4a7c15ull * (i + 1) + 1;
            ws->isPoolWorker = true;
            workerStates.push_back(std::move(ws));
        }
        for (unsigned i = 0; i < n; i++) {
            WorkerState *ws = workerStates[i].get();
            threads.emplace_back([this, ws]() { workerLoop(*ws); });
        }
    }

    WorkerState &ensureThreadState()
    {
        if (tState)
            return *tState;
        // First parallelFor from an external thread: claim a slot so
        // thieves see this thread's deque. Slots persist for process
        // life (a dead thread leaves an empty deque — structured joins
        // guarantee it drained — which victims scan harmlessly).
        unsigned slot = nextExternal.fetch_add(1);
        static thread_local WorkerState fallback;  // slots exhausted
        if (slot >= kMaxExternal) {
            tState = &fallback;
        } else {
            auto *ws = new WorkerState;  // intentionally process-lifetime
            ws->index = 1000 + slot;
            ws->rng = 0xd1b54a32d192ed03ull * (slot + 7) + 1;
            externals[slot].store(ws);
            tState = ws;
        }
        tState->rng |= 1;
        return *tState;
    }

    // ------------------------------------------------------------------
    // Fork-join core.
    // ------------------------------------------------------------------

    void runLeaf(RootJob &job, size_t i)
    {
        if (job.failed.load(std::memory_order_relaxed))
            return;  // drain fast after a failure
        try {
            (*job.body)(i);
            cTasks.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
            job.recordException();
        }
    }

    /**
     * Execute [lo, hi): fork the right half, recurse left, join. The
     * recursion depth is log2(hi - lo), and every fork lives on this
     * frame's stack until its join returns.
     */
    void runRange(WorkerState &ws, RootJob &job, size_t lo, size_t hi)
    {
        while (hi - lo > 1) {
            size_t mid = lo + (hi - lo) / 2;
            ForkedTask fork;
            fork.job = &job;
            fork.lo = mid;
            fork.hi = hi;
            if (!ws.deque.push(&fork)) {
                cOverflow.fetch_add(1, std::memory_order_relaxed);
                runRange(ws, job, mid, hi);
                hi = mid;
                continue;
            }
            cSplits.fetch_add(1, std::memory_order_relaxed);
            if (sleepers.load(std::memory_order_relaxed) > 0)
                idleCv.notify_one();
            runRange(ws, job, lo, mid);
            join(ws, fork);
            return;
        }
        if (lo < hi)
            runLeaf(job, lo);
    }

    void join(WorkerState &ws, ForkedTask &fork)
    {
        // Structured-join invariant: everything pushed after `fork`
        // has already been popped or stolen-and-completed, so pop()
        // returns either `fork` itself or (it was stolen) nullptr.
        ForkedTask *t = ws.deque.pop();
        if (t) {
            assert(t == &fork);
            runRange(ws, *t->job, t->lo, t->hi);
            t->done.store(true);
            return;
        }
        // Stolen: help run other tasks until the thief finishes ours.
        while (!fork.done.load()) {
            if (!stealAndRun(ws, /*bindTrack=*/false))
                std::this_thread::yield();
        }
    }

    /**
     * Try one round of victim scanning; on success run the stolen
     * task to completion (including its own forks and joins) under a
     * "steal" span and return true. Pool workers at the top of their
     * loop bind an obs track for the task's region first; helping
     * joins stay on the current track (the span nests).
     */
    bool stealAndRun(WorkerState &ws, bool bindTrack)
    {
        unsigned maxJit = jitterMax.load(std::memory_order_relaxed);
        if (maxJit > 0) {
            uint64_t r = xorshift(ws.rng) ^
                         jitterSeed.load(std::memory_order_relaxed);
            std::this_thread::sleep_for(
                std::chrono::microseconds(r % (maxJit + 1)));
        }

        ForkedTask *t = trySteal(ws);
        if (!t)
            return false;

        // Copy out: after the done store the forker's stack frame —
        // and the task with it — may vanish.
        RootJob *job = t->job;
        const size_t lo = t->lo, hi = t->hi;
        cSteals.fetch_add(1, std::memory_order_relaxed);

        if (bindTrack && job->gen != ws.boundGen) {
            ws.boundGen = job->gen;
            ws.boundTrack = obs::newTrack(
                std::string(job->label) + " worker " +
                std::to_string(ws.index));
        } else if (bindTrack) {
            obs::setTrack(ws.boundTrack);
        }
        {
            obs::Span span("steal", job->label);
            runRange(ws, *job, lo, hi);
        }
        t->done.store(true);
        return true;
    }

    ForkedTask *trySteal(WorkerState &ws)
    {
        const size_t nw = workerStates.size();
        const size_t nv = nw + kMaxExternal;
        size_t start = size_t(xorshift(ws.rng)) % nv;
        for (size_t k = 0; k < nv; k++) {
            size_t v = (start + k) % nv;
            WorkerState *victim =
                v < nw ? workerStates[v].get()
                       : externals[v - nw].load(
                             std::memory_order_acquire);
            if (!victim || victim == &ws)
                continue;
            if (ForkedTask *t = victim->deque.steal())
                return t;
        }
        return nullptr;
    }

    void workerLoop(WorkerState &ws)
    {
        tState = &ws;
        while (!stop.load(std::memory_order_relaxed)) {
            if (stealAndRun(ws, /*bindTrack=*/true))
                continue;
            // Nothing to steal: spin briefly, then sleep with a
            // timeout (a lost wakeup costs 2ms of latency, never a
            // deadlock).
            bool found = false;
            for (int spin = 0; spin < 32 && !found; spin++) {
                std::this_thread::yield();
                found = anyWork();
            }
            if (found || stop.load(std::memory_order_relaxed))
                continue;
            std::unique_lock<std::mutex> lk(idleMu);
            sleepers.fetch_add(1, std::memory_order_relaxed);
            idleCv.wait_for(lk, std::chrono::milliseconds(2));
            sleepers.fetch_sub(1, std::memory_order_relaxed);
        }
        tState = nullptr;
    }

    bool anyWork() const
    {
        for (const auto &w : workerStates)
            if (!w->deque.emptyApprox())
                return true;
        for (const auto &e : externals) {
            WorkerState *ws = e.load(std::memory_order_acquire);
            if (ws && !ws->deque.emptyApprox())
                return true;
        }
        return false;
    }

    // ------------------------------------------------------------------
    // Region entry points.
    // ------------------------------------------------------------------

    void runSerial(size_t n, const std::function<void(size_t)> &body)
    {
        cRegions.fetch_add(1, std::memory_order_relaxed);
        cTasks.fetch_add(n, std::memory_order_relaxed);
        for (size_t i = 0; i < n; i++)
            body(i);
    }

    void runSteal(size_t n, const std::function<void(size_t)> &body,
                  const char *label)
    {
        WorkerState &ws = ensureThreadState();
        RootJob job;
        job.body = &body;
        job.label = label;
        job.gen = nextGen.fetch_add(1) + 1;
        cRegions.fetch_add(1, std::memory_order_relaxed);
        {
            obs::Span span("task", label);
            runRange(ws, job, 0, n);
        }
        if (job.error)
            std::rethrow_exception(job.error);
    }
};

namespace {

PoolImpl &
impl()
{
    static PoolImpl p;
    return p;
}

}  // namespace

// ---------------------------------------------------------------------
// TaskPool facade.
// ---------------------------------------------------------------------

TaskPool::TaskPool() = default;

TaskPool::~TaskPool() = default;

TaskPool &
TaskPool::instance()
{
    static TaskPool pool;
    return pool;
}

void
TaskPool::configure(unsigned jobs)
{
    PoolImpl &p = impl();
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    if (jobs == p.jobs && p.threads.size() + 1 == size_t(jobs))
        return;
    p.joinWorkers();
    p.jobs = jobs;
    p.spawnWorkers();
}

unsigned
TaskPool::jobs() const
{
    return impl().jobs;
}

void
TaskPool::parallelFor(size_t n,
                      const std::function<void(size_t)> &body,
                      const char *label)
{
    if (n == 0)
        return;
    PoolImpl &p = impl();
    if (n == 1 || p.jobs == 1) {
        p.runSerial(n, body);
        return;
    }
    p.runSteal(n, body, label);
}

void
TaskPool::setStealJitter(uint64_t seed, unsigned maxMicros)
{
    impl().jitterSeed.store(seed, std::memory_order_relaxed);
    impl().jitterMax.store(maxMicros, std::memory_order_relaxed);
}

Counters
TaskPool::counters() const
{
    const PoolImpl &p = impl();
    Counters c;
    c.regions = p.cRegions.load(std::memory_order_relaxed);
    c.tasks = p.cTasks.load(std::memory_order_relaxed);
    c.splits = p.cSplits.load(std::memory_order_relaxed);
    c.steals = p.cSteals.load(std::memory_order_relaxed);
    c.overflow = p.cOverflow.load(std::memory_order_relaxed);
    return c;
}

void
TaskPool::resetCounters()
{
    PoolImpl &p = impl();
    p.cRegions.store(0);
    p.cTasks.store(0);
    p.cSplits.store(0);
    p.cSteals.store(0);
    p.cOverflow.store(0);
}

void
TaskPool::shutdown()
{
    impl().joinWorkers();
}

void
recordPoolMetrics()
{
    if (!obs::metricsEnabled())
        return;
    const Counters c = TaskPool::instance().counters();
    obs::poolStatSet("regions", c.regions);
    obs::poolStatSet("tasks", c.tasks);
    obs::poolStatSet("splits", c.splits);
    obs::poolStatSet("steals", c.steals);
    obs::poolStatSet("overflow", c.overflow);
}

}  // namespace pbs::pool
