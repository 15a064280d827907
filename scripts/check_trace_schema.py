#!/usr/bin/env python3
"""Validate pbs observability artifacts (trace, metrics, manifest,
telemetry time series).

Usage:
    scripts/check_trace_schema.py [TRACE.json] [--metrics METRICS.json]
        [--min-coverage F] [--summary SUMMARY.json]
        [--manifest MANIFEST.json] [--timeseries TELEMETRY.jsonl]

Checks, in order:

  1. The trace is a Chrome trace-event document: schema "pbs-trace-v1",
     every event has ph in {X, M}, pid == 1, an integer tid and a name;
     X events carry non-negative numeric ts/dur and a cat from the
     known phase vocabulary.
  2. Every tid referenced by an X event has a thread_name metadata
     record (so Perfetto shows a labelled track per worker).
  3. With --min-coverage F: on every track, the union of top-level span
     intervals must cover at least fraction F of that track's extent
     (first span start to last span end). This is the "spans cover the
     run" acceptance gate — gaps mean uninstrumented wall time.
  4. With --metrics: schema "pbs-metrics-v1", every histogram's bucket
     counts sum to its count, every worker entry has busy_ns <= wall_ns
     and util in [0, 1].
  5. With --summary (a pbs-exp-summary-v1 JSON file): the exp.* metrics
     counters must equal the summary's cache counters field-for-field —
     the reconciliation gate between the two reporting paths.
  6. With --manifest (a pbs-run-v1 file): structural checks, then every
     listed artifact is re-read from disk and its FNV-1a-128 hash and
     byte count must match the manifest entry — the "what produced
     what" integrity gate. Relative artifact paths are tried against
     the working directory first, then the manifest's own directory.
  7. With --timeseries (a pbs-timeseries-v1 JSON-lines file): the
     header declares the schema and a positive interval; across sample
     lines t_ms is monotone non-decreasing and every counter is
     monotone non-decreasing (counters only ever accumulate).

The positional trace argument is optional, so manifest/telemetry files
can be checked on their own. Exit status: 0 when everything holds,
1 with a message otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

PHASES = {
    "ff", "capture", "interval", "restore", "warmup", "measure",
    "aggregate", "cache_io", "store_io", "point", "sweep", "artifact",
    "task", "steal",
}

# metrics counter name -> pbs-exp-summary-v1 field. exp.requested has
# no summary twin: it counts engine lookups, which exceed the grid
# size whenever an artifact re-reads a computed point — it is
# checked against the lookup identity instead (see check_summary).
SUMMARY_FIELDS = {
    "exp.mem_hits": "mem_hits",
    "exp.disk_hits": "disk_hits",
    "exp.disk_rejected": "disk_rejected",
    "exp.computed": "computed",
    "exp.stored": "stored",
    "exp.store_failed": "store_failed",
    "exp.campaign_groups": "campaign_groups",
    "exp.captures": "captures",
    "exp.ckpt_set_loads": "ckpt_set_loads",
    "exp.partial_hits": "partial_hits",
    "exp.partial_computed": "partial_computed",
    "exp.partial_stored": "partial_stored",
    "exp.stream_replays": "stream_replays",
}


def fail(msg: str) -> None:
    print(f"check_trace_schema: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def union_length(intervals: list) -> float:
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def check_trace(doc: dict, min_coverage: float) -> None:
    if doc.get("schema") != "pbs-trace-v1":
        fail(f"trace schema is {doc.get('schema')!r}, want pbs-trace-v1")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    named_tids = set()
    spans = {}  # tid -> [(start, end)]
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in ("X", "M"):
            fail(f"event {i}: ph {ph!r} not in {{X, M}}")
        if e.get("pid") != 1:
            fail(f"event {i}: pid {e.get('pid')!r} != 1")
        if not isinstance(e.get("tid"), int):
            fail(f"event {i}: non-integer tid {e.get('tid')!r}")
        if not isinstance(e.get("name"), str) or not e["name"]:
            fail(f"event {i}: missing name")
        if ph == "M":
            if e["name"] == "thread_name":
                named_tids.add(e["tid"])
            continue
        ts, dur = e.get("ts"), e.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"event {i}: bad ts {ts!r}")
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(f"event {i}: bad dur {dur!r}")
        if e.get("cat") not in PHASES:
            fail(f"event {i}: unknown phase cat {e.get('cat')!r}")
        spans.setdefault(e["tid"], []).append((ts, ts + dur))

    if not spans:
        fail("trace has no complete (ph=X) events")
    for tid in spans:
        if tid not in named_tids:
            fail(f"tid {tid} has spans but no thread_name metadata")

    if min_coverage > 0.0:
        for tid, intervals in sorted(spans.items()):
            lo = min(s for s, _ in intervals)
            hi = max(e for _, e in intervals)
            extent = hi - lo
            if extent <= 0.0:
                continue  # single instantaneous span: trivially covered
            cov = union_length(intervals) / extent
            print(f"  tid {tid}: {len(intervals)} spans, "
                  f"coverage {cov:.1%} of {extent / 1000.0:.1f} ms")
            if cov < min_coverage:
                fail(f"tid {tid}: span coverage {cov:.1%} below "
                     f"{min_coverage:.0%}")

    print(f"check_trace_schema: trace OK "
          f"({len(events)} events, {len(spans)} track(s))")


def check_metrics(doc: dict) -> dict:
    if doc.get("schema") != "pbs-metrics-v1":
        fail(f"metrics schema is {doc.get('schema')!r}, "
             "want pbs-metrics-v1")
    for name, h in doc.get("histograms", {}).items():
        n = sum(b["n"] for b in h.get("buckets", []))
        if n != h.get("count"):
            fail(f"histogram {name}: bucket sum {n} != count "
                 f"{h.get('count')}")
        for b in h.get("buckets", []):
            if b["hi"] < b["lo"]:
                fail(f"histogram {name}: bucket hi {b['hi']} < lo "
                     f"{b['lo']}")
    for tid, w in doc.get("workers", {}).items():
        if w["busy_ns"] > w["wall_ns"]:
            fail(f"worker {tid}: busy_ns {w['busy_ns']} > wall_ns "
                 f"{w['wall_ns']}")
        if not 0.0 <= w["util"] <= 1.0:
            fail(f"worker {tid}: util {w['util']} outside [0, 1]")
    print(f"check_trace_schema: metrics OK "
          f"({len(doc.get('counters', {}))} counters, "
          f"{len(doc.get('workers', {}))} worker(s))")
    return doc


def fnv1a64(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def fnv1a128_hex(data: bytes) -> str:
    """Python twin of pbs::util::fnv1a128Hex (src/util/hash.hh)."""
    a = fnv1a64(data)
    b = fnv1a64(data, 0xCBF29CE484222325 ^ 0x9E3779B97F4A7C15)
    return f"{a:016x}{b:016x}"


def check_manifest(doc: dict, manifest_path: str) -> None:
    if doc.get("schema") != "pbs-run-v1":
        fail(f"manifest schema is {doc.get('schema')!r}, want pbs-run-v1")
    if not isinstance(doc.get("binary"), str) or not doc["binary"]:
        fail("manifest: missing binary name")
    argv = doc.get("argv")
    if not isinstance(argv, list) or not all(
            isinstance(a, str) for a in argv):
        fail("manifest: argv must be a list of strings")
    wall = doc.get("wall_ms")
    if not isinstance(wall, (int, float)) or wall < 0:
        fail(f"manifest: bad wall_ms {wall!r}")
    if not isinstance(doc.get("jobs"), int) or doc["jobs"] < 1:
        fail(f"manifest: bad jobs {doc.get('jobs')!r}")

    artifacts = doc.get("artifacts")
    if not isinstance(artifacts, list):
        fail("manifest: missing artifacts list")
    base = Path(manifest_path).resolve().parent
    for i, a in enumerate(artifacts):
        path = a.get("path")
        if not isinstance(path, str) or not path:
            fail(f"manifest artifact {i}: missing path")
        # The writer recorded the path as passed on the command line;
        # resolve relative paths against cwd, then the manifest's dir.
        cand = Path(path)
        if not cand.is_file() and not cand.is_absolute():
            cand = base / path
        if not cand.is_file():
            fail(f"manifest artifact {path}: file not found")
        data = cand.read_bytes()
        if len(data) != a.get("bytes"):
            fail(f"manifest artifact {path}: {len(data)} bytes on disk, "
                 f"manifest says {a.get('bytes')}")
        got = fnv1a128_hex(data)
        if got != a.get("fnv128"):
            fail(f"manifest artifact {path}: hash {got} != manifest "
                 f"{a.get('fnv128')} — file changed after the run?")
    print(f"check_trace_schema: manifest OK ({doc['binary']}, "
          f"{len(artifacts)} artifact(s) reconciled)")


def check_timeseries(path: str) -> None:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(f"{path}: {e}")
    if not lines:
        fail(f"{path}: empty telemetry file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        fail(f"{path} header: {e}")
    if header.get("schema") != "pbs-timeseries-v1":
        fail(f"telemetry schema is {header.get('schema')!r}, "
             "want pbs-timeseries-v1")
    if not isinstance(header.get("interval_ms"), int) or \
            header["interval_ms"] < 1:
        fail(f"telemetry: bad interval_ms {header.get('interval_ms')!r}")

    last_t = float("-inf")
    last_counters = {}
    for i, line in enumerate(lines[1:], start=2):
        try:
            s = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path} line {i}: {e}")
        t = s.get("t_ms")
        if not isinstance(t, (int, float)) or t < 0:
            fail(f"telemetry line {i}: bad t_ms {t!r}")
        if t < last_t:
            fail(f"telemetry line {i}: t_ms {t} went backwards "
                 f"(previous {last_t})")
        last_t = t
        for key in ("rss_kb", "peak_rss_kb"):
            if not isinstance(s.get(key), int) or s[key] < 0:
                fail(f"telemetry line {i}: bad {key} {s.get(key)!r}")
        counters = s.get("counters")
        if not isinstance(counters, dict):
            fail(f"telemetry line {i}: missing counters object")
        for name, v in counters.items():
            if v < last_counters.get(name, 0):
                fail(f"telemetry line {i}: counter {name} decreased "
                     f"({last_counters.get(name)} -> {v})")
        last_counters.update(counters)
    print(f"check_trace_schema: telemetry OK "
          f"({len(lines) - 1} sample(s), "
          f"{header['interval_ms']} ms interval)")


def check_summary(metrics: dict, summary: dict) -> None:
    counters = metrics.get("counters", {})
    cache = summary.get("cache", summary)
    mismatches = []
    for counter, field in sorted(SUMMARY_FIELDS.items()):
        if counter not in counters and field not in cache:
            continue  # neither side reports it
        got = counters.get(counter, 0)
        want = cache.get(field, 0)
        if got != want:
            mismatches.append(f"{counter}={got} vs summary "
                              f"{field}={want}")
    if mismatches:
        fail("metrics/summary mismatch: " + "; ".join(mismatches))

    # Every lookup resolves exactly one way, and every grid point
    # needs at least one lookup.
    requested = counters.get("exp.requested", 0)
    resolved = (counters.get("exp.mem_hits", 0) +
                counters.get("exp.disk_hits", 0) +
                counters.get("exp.computed", 0))
    if requested != resolved:
        fail(f"exp.requested={requested} != mem+disk+computed="
             f"{resolved}")
    if cache.get("points", 0) > requested:
        fail(f"summary points={cache.get('points')} exceeds "
             f"exp.requested={requested}")
    print("check_trace_schema: metrics reconcile with run summary")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", nargs="?",
                    help="pbs-trace-v1 JSON file")
    ap.add_argument("--metrics", help="pbs-metrics-v1 JSON file")
    ap.add_argument("--min-coverage", type=float, default=0.0,
                    help="required per-track span coverage fraction")
    ap.add_argument("--summary",
                    help="pbs-exp-summary-v1 JSON to reconcile against")
    ap.add_argument("--manifest",
                    help="pbs-run-v1 manifest to verify against disk")
    ap.add_argument("--timeseries",
                    help="pbs-timeseries-v1 telemetry file to validate")
    args = ap.parse_args()

    if not (args.trace or args.manifest or args.timeseries):
        ap.error("nothing to check: give a trace, --manifest, "
                 "or --timeseries")

    if args.trace:
        check_trace(load(args.trace), args.min_coverage)
    metrics = None
    if args.metrics:
        metrics = check_metrics(load(args.metrics))
    if args.summary:
        if metrics is None:
            fail("--summary requires --metrics")
        check_summary(metrics, load(args.summary))
    if args.manifest:
        check_manifest(load(args.manifest), args.manifest)
    if args.timeseries:
        check_timeseries(args.timeseries)


if __name__ == "__main__":
    main()
