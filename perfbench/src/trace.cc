#include "trace.hh"

#include <algorithm>
#include <fstream>

#include "util/clock.hh"
#include "util/json.hh"

namespace perfbench {

namespace {

thread_local int64_t tlsCurrent = -1;

}  // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

int64_t
Tracer::open(const char *name, uint64_t id, int64_t parent)
{
    if (!enabled_)
        return -1;
    SpanRecord r;
    r.name = name;
    r.parent = parent;
    r.id = id;
    std::lock_guard<std::mutex> lock(mutex_);
    r.startNs = pbs::util::monotonicNowNs();
    spans_.push_back(std::move(r));
    return int64_t(spans_.size()) - 1;
}

void
Tracer::close(int64_t index)
{
    if (index < 0)
        return;
    const uint64_t now = pbs::util::monotonicNowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[size_t(index)].endNs = now;
}

uint64_t
Tracer::idOf(int64_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_[size_t(index)].id;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<uint64_t>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans.size());
    for (const SpanRecord &s : spans) {
        if (s.parent >= 0 && size_t(s.parent) < spans.size())
            kids[size_t(s.parent)].push_back({s.startNs, s.endNs});
    }
    std::vector<uint64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        const uint64_t lo = spans[i].startNs, hi = spans[i].endNs;
        // Children may run concurrently on pool workers: subtract the
        // union of their intervals, clipped to the parent.
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, curLo = 0, curHi = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::clamp(a, lo, hi);
            b = std::clamp(b, lo, hi);
            if (open && a <= curHi) {
                curHi = std::max(curHi, b);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = a;
            curHi = b;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        const uint64_t dur = hi > lo ? hi - lo : 0;
        self[i] = dur > covered ? dur - covered : 0;
    }
    return self;
}

std::map<std::string, uint64_t>
Tracer::selfNsByName() const
{
    const std::vector<SpanRecord> all = spans();
    const std::vector<uint64_t> self = selfTimes(all);
    std::map<std::string, uint64_t> out;
    for (size_t i = 0; i < all.size(); i++)
        out[all[i].name] += self[i];
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    const std::vector<SpanRecord> all = spans();
    const std::vector<uint64_t> self = selfTimes(all);
    const uint64_t t0 = all.empty() ? 0 : all.front().startNs;
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\"schema\":\"perfbench-spans-v1\",\"spans\":[\n";
    for (size_t i = 0; i < all.size(); i++) {
        const SpanRecord &s = all[i];
        pbs::util::JsonWriter w;
        w.beginObject();
        w.key("name").value(s.name);
        w.key("id").value(s.id);
        w.key("parent").value(int(s.parent));
        w.key("start_ns").value(s.startNs - t0);
        w.key("end_ns").value(s.endNs - t0);
        w.key("self_ns").value(self[i]);
        w.endObject();
        out << w.str() << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return bool(out);
}

Span::Span(const char *name, uint64_t id, int64_t parent)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    if (parent == -2)
        parent = tlsCurrent;
    if (id == ~uint64_t(0)) {
        id = 0;
        if (parent >= 0)
            id = t.idOf(parent);
    }
    index_ = t.open(name, id, parent);
    savedCurrent_ = tlsCurrent;
    tlsCurrent = index_;
}

Span::~Span()
{
    if (index_ < 0)
        return;
    Tracer::instance().close(index_);
    tlsCurrent = savedCurrent_;
}

}  // namespace perfbench
