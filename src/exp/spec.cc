#include "exp/spec.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "bpred/factory.hh"
#include "exp/cli.hh"

namespace pbs::exp {

namespace {

std::string
trim(const std::string &s)
{
    size_t a = 0, b = s.size();
    while (a < b && std::isspace((unsigned char)s[a]))
        a++;
    while (b > a && std::isspace((unsigned char)s[b - 1]))
        b--;
    return s.substr(a, b - a);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    std::istringstream ss(s);
    while (std::getline(ss, cur, ',')) {
        cur = trim(cur);
        if (!cur.empty())
            out.push_back(cur);
    }
    return out;
}

const char *kPbsModes[] = {"off", "on", "no-stall", "no-context",
                           "no-guard"};

}  // namespace

std::string
applySpecKey(SweepSpec &spec, const std::string &rawKey,
             const std::string &values)
{
    // Accept singular and plural spellings ("workload" / "workloads").
    std::string key = rawKey;
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return char(std::tolower(c)); });

    auto list = splitList(values);
    if (list.empty())
        return "empty value for '" + rawKey + "'";

    if (key == "workload" || key == "workloads") {
        spec.workloads = list;
        return "";
    }
    if (key == "predictor" || key == "predictors") {
        spec.predictors = list;
        return "";
    }
    if (key == "variant" || key == "variants") {
        spec.variants = list;
        return "";
    }
    if (key == "width" || key == "widths") {
        spec.widths.clear();
        for (const auto &v : list) {
            if (v == "4")
                spec.widths.push_back(4);
            else if (v == "8")
                spec.widths.push_back(8);
            else
                return "bad width '" + v + "' (expected 4 or 8)";
        }
        return "";
    }
    if (key == "mode" || key == "modes") {
        std::vector<std::string> modes;
        for (auto v : list) {
            if (v == "timing")
                v = "detailed";  // historical alias
            if (v != "detailed" && v != "functional" && v != "sampled" &&
                v != "mpki") {
                return "bad mode '" + v + "' (expected detailed, "
                       "functional, sampled or mpki)";
            }
            modes.push_back(v);
        }
        spec.modes = modes;
        return "";
    }
    if (key == "sample-interval") {
        uint64_t n;
        if (list.size() != 1 || !parseU64Arg(list[0], n) || n == 0)
            return "bad sample-interval '" + values + "'";
        spec.sampleInterval = n;
        return "";
    }
    if (key == "sample-warmup") {
        // 0 is not a warmup length: a point reads it as "default".
        uint64_t n;
        if (list.size() != 1 || !parseU64Arg(list[0], n) || n == 0)
            return "bad sample-warmup '" + values + "' (need >= 1)";
        spec.sampleWarmup = n;
        return "";
    }
    if (key == "sample-measure") {
        uint64_t n;
        if (list.size() != 1 || !parseU64Arg(list[0], n) || n == 0)
            return "bad sample-measure '" + values + "'";
        spec.sampleMeasure = n;
        return "";
    }
    if (key == "sample-grid") {
        std::vector<SampleTriple> grid;
        for (const auto &v : list) {
            SampleTriple t;
            size_t a = v.find('/');
            size_t b = a == std::string::npos ? a : v.find('/', a + 1);
            if (b == std::string::npos ||
                !parseU64Arg(trim(v.substr(0, a)), t.interval) ||
                !parseU64Arg(trim(v.substr(a + 1, b - a - 1)),
                               t.warmup) ||
                !parseU64Arg(trim(v.substr(b + 1)), t.measure)) {
                return "bad sample-grid triple '" + v +
                       "' (expected interval/warmup/measure)";
            }
            if (t.interval == 0 || t.warmup == 0 || t.measure == 0 ||
                t.warmup + t.measure > t.interval) {
                return "inconsistent sample-grid triple '" + v +
                       "' (need interval, warmup and measure > 0, "
                       "warmup + measure <= interval)";
            }
            grid.push_back(t);
        }
        spec.sampleGrid = grid;
        return "";
    }
    if (key == "pbs") {
        for (const auto &v : list) {
            bool known = false;
            for (const char *m : kPbsModes)
                known = known || v == m;
            if (!known)
                return "bad pbs mode '" + v +
                       "' (off, on, no-stall, no-context, no-guard)";
        }
        spec.pbsModes = list;
        return "";
    }
    if (key == "scale" || key == "scales") {
        spec.scales.clear();
        for (const auto &v : list) {
            uint64_t s;
            if (!parseU64Arg(v, s) || s == 0)
                return "bad scale '" + v + "'";
            spec.scales.push_back(s);
        }
        return "";
    }
    if (key == "div") {
        uint64_t d;
        if (list.size() != 1 || !parseU64Arg(list[0], d) || d == 0 ||
            d > 0xffffffffull) {
            return "bad div '" + values + "'";
        }
        spec.divisor = unsigned(d);
        return "";
    }
    if (key == "seed") {
        uint64_t s;
        if (list.size() != 1 || !parseU64Arg(list[0], s))
            return "bad seed '" + values + "'";
        spec.seed = s;
        return "";
    }
    if (key == "seeds") {
        uint64_t n;
        if (list.size() != 1 || !parseU64Arg(list[0], n) || n == 0 ||
            n > 0xffffffffull) {
            return "bad seeds '" + values + "'";
        }
        spec.seeds = unsigned(n);
        return "";
    }
    return "unknown spec key '" + rawKey + "'";
}

SpecResult
parseSpecText(const std::string &text)
{
    SpecResult r;
    std::istringstream ss(text);
    std::string line;
    unsigned lineNo = 0;
    while (std::getline(ss, line)) {
        lineNo++;
        // Strip comments and whitespace.
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        size_t eq = line.find('=');
        if (eq == std::string::npos) {
            r.error = "line " + std::to_string(lineNo) +
                      ": expected 'key = values'";
            return r;
        }
        std::string key = trim(line.substr(0, eq));
        std::string values = trim(line.substr(eq + 1));
        std::string err = applySpecKey(r.spec, key, values);
        if (!err.empty()) {
            r.error = "line " + std::to_string(lineNo) + ": " + err;
            return r;
        }
    }
    r.ok = true;
    return r;
}

SpecResult
parseSpecFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        SpecResult r;
        r.error = "cannot open spec file: " + path;
        return r;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseSpecText(ss.str());
}

cpu::SampleParams
sampleParams(const SweepSpec &spec)
{
    cpu::SampleParams sp;
    if (spec.sampleInterval)
        sp.interval = spec.sampleInterval;
    if (spec.sampleWarmup)
        sp.warmup = spec.sampleWarmup;
    if (spec.sampleMeasure)
        sp.measure = spec.sampleMeasure;
    return sp;
}

std::string
ignoredSampleKey(const SweepSpec &spec)
{
    const auto &modes = spec.modes;
    if (std::find(modes.begin(), modes.end(), "sampled") != modes.end())
        return "";
    if (spec.sampleInterval)
        return "sample-interval";
    if (spec.sampleWarmup)
        return "sample-warmup";
    if (spec.sampleMeasure)
        return "sample-measure";
    return spec.sampleGrid.empty() ? "" : "sample-grid";
}

ExpandResult
expandSpec(const SweepSpec &spec)
{
    ExpandResult r;

    // Resolve the workload axis ("all" -> the registry, in order).
    std::vector<std::string> workloads;
    for (const auto &w : spec.workloads) {
        if (w == "all") {
            for (const auto &b : workloads::allBenchmarks())
                workloads.push_back(b.name);
        } else {
            try {
                workloads::benchmarkByName(w);
            } catch (const std::exception &e) {
                r.error = e.what();
                return r;
            }
            workloads.push_back(w);
        }
    }
    if (workloads.empty()) {
        r.error = "spec selects no workloads (set 'workload = ...')";
        return r;
    }

    std::vector<std::string> predictors;
    for (const auto &p : spec.predictors) {
        std::string canon = bpred::canonicalPredictor(p);
        if (canon.empty()) {
            r.error = "unknown predictor: " + p;
            return r;
        }
        predictors.push_back(canon);
    }

    for (const auto &v : spec.variants) {
        if (v != "marked" && v != "predicated" && v != "cfd") {
            r.error = "unknown variant: " + v;
            return r;
        }
    }

    for (const auto &workload : workloads) {
        const auto &b = workloads::benchmarkByName(workload);
        std::vector<uint64_t> scales = spec.scales;
        if (scales.empty())
            scales.push_back(resolvedScale(b, spec.divisor));

        for (const auto &predictor : predictors)
        for (const auto &variant : spec.variants)
        for (unsigned width : spec.widths)
        for (const auto &mode : spec.modes) {
            // The sample-grid axis multiplies sampled points only; a
            // single pass with the scalar sample-* keys otherwise.
            std::vector<SampleTriple> triples;
            if (mode == "sampled" && !spec.sampleGrid.empty()) {
                triples = spec.sampleGrid;
            } else if (mode == "sampled") {
                triples.push_back({spec.sampleInterval,
                                   spec.sampleWarmup,
                                   spec.sampleMeasure});
            } else {
                triples.push_back({});
            }
            for (const SampleTriple &triple : triples)
            for (const auto &pbsMode : spec.pbsModes)
            for (uint64_t scale : scales)
            for (unsigned s = 0; s < spec.seeds; s++) {
                ExpPoint pt;
                pt.workload = workload;
                pt.predictor = predictor;
                pt.variant = variant;
                pt.wide = width == 8;
                pt.functional = mode == "mpki";
                pt.mode = pt.functional ? "detailed" : mode;
                pt.sampleInterval = triple.interval;
                pt.sampleWarmup = triple.warmup;
                pt.sampleMeasure = triple.measure;
                pt.pbs = pbsMode != "off";
                pt.stallOnBusy = pbsMode != "no-stall";
                pt.contextSupport = pbsMode != "no-context";
                pt.constValGuard = pbsMode != "no-guard";
                pt.scale = scale;
                pt.seed = spec.seed + s;
                r.points.push_back(pt);
            }
        }
    }
    r.ok = true;
    return r;
}

std::string
specJson(const SweepSpec &spec)
{
    util::JsonWriter w;
    auto strings = [&](const char *k,
                       const std::vector<std::string> &xs) {
        w.key(k).beginArray();
        for (const auto &x : xs)
            w.value(x);
        w.endArray();
    };
    w.beginObject();
    strings("workloads", spec.workloads);
    strings("predictors", spec.predictors);
    strings("variants", spec.variants);
    w.key("widths").beginArray();
    for (unsigned x : spec.widths)
        w.value(x);
    w.endArray();
    strings("modes", spec.modes);
    strings("pbs", spec.pbsModes);
    w.key("scales").beginArray();
    for (uint64_t x : spec.scales)
        w.value(x);
    w.endArray();
    w.key("div").value(spec.divisor);
    w.key("seed").value(spec.seed);
    w.key("seeds").value(spec.seeds);
    w.key("sample_interval").value(spec.sampleInterval);
    w.key("sample_warmup").value(spec.sampleWarmup);
    w.key("sample_measure").value(spec.sampleMeasure);
    w.key("sample_grid").beginArray();
    for (const auto &t : spec.sampleGrid) {
        w.value(std::to_string(t.interval) + "/" +
                std::to_string(t.warmup) + "/" +
                std::to_string(t.measure));
    }
    w.endArray();
    w.endObject();
    return w.str();
}

}  // namespace pbs::exp
