/**
 * @file
 * The traced run's span recorder. Spans are opened only by the
 * benchmark's own code, around its calls into the simulator's layers,
 * so the program under test carries no benchmark instrumentation.
 *
 * Each span has a name (`<module>.<call>`), a start, an end, a parent
 * (the innermost span open on the same thread, or an explicit one for
 * work fanned out to pool workers) and an id; every span of one point
 * carries that point's id. Spans stay in memory and are written out
 * once, when the run ends. A span's self time is its duration minus the
 * part of it its children cover.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int64_t parent = -1;  ///< index into the span list, -1 for a root
    uint64_t id = 0;      ///< point id (0 for spans outside any point)
};

class Tracer
{
  public:
    /** The process-wide recorder (disabled until enable()). */
    static Tracer &instance();

    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    /** Open a span. @return its index, or -1 when disabled. */
    int64_t open(const char *name, uint64_t id, int64_t parent);
    void close(int64_t index);

    /** Point id of span @p index. */
    uint64_t idOf(int64_t index) const;

    std::vector<SpanRecord> spans() const;

    /** Sum of self time per span name, in nanoseconds. */
    std::map<std::string, uint64_t> selfNsByName() const;

    /** Write every span as one JSON document. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::atomic<bool> enabled_{false};
};

/** Self time of every span, given the full list (exposed for tests). */
std::vector<uint64_t> selfTimes(const std::vector<SpanRecord> &spans);

/** RAII span on the process-wide tracer. */
class Span
{
  public:
    /**
     * @param id point id; by default inherited from the parent span.
     * @param parent explicit parent index (for spans opened on pool
     *        workers); by default the calling thread's innermost span.
     */
    explicit Span(const char *name, uint64_t id = ~uint64_t(0),
                  int64_t parent = -2);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int64_t index() const { return index_; }

  private:
    int64_t index_ = -1;
    int64_t savedCurrent_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HH
