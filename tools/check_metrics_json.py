#!/usr/bin/env python3
"""Validate a metrics-registry JSON dump against the documented schema.

The file is the output of obs::MetricsRegistry::RenderJson (written by
`serving_bench --metrics_json=...` and `rewrite_bench --metrics_json=...`):
one JSON object with a "counters" map (metric name -> non-negative integer)
and a "histograms" map (metric name -> {count, sum, p50, p95, p99}). Names
must follow the docs/observability.md convention (mtbase_<layer>_..., counters
ending in _total, histograms in _seconds).

Invoked by the CI quick lane after the serving_bench smoke run, so it also
asserts the serving-layer signals that run must have produced: executed
statements with latency observations, admission-control accounting,
cross-session plan-cache hits (many sessions issuing the same statements must
share compiled plans), and counted DML: the smoke run's writes examine and
copy rows, so a write path that stops counting fails the check.

Usage: python3 tools/check_metrics_json.py <metrics.json>
"""
import json
import math
import re
import sys

COUNTER_RE = re.compile(r"^mtbase_[a-z0-9_]+_total$")
HISTOGRAM_RE = re.compile(r"^mtbase_[a-z0-9_]+_seconds$")
HISTOGRAM_FIELDS = {"count", "sum", "p50", "p95", "p99"}

# The serving smoke run is only a smoke run if these actually moved.
REQUIRED_POSITIVE_COUNTERS = [
    "mtbase_session_statements_total",
    "mtbase_engine_statements_total",
    "mtbase_engine_statements_admitted_total",
    "mtbase_mt_plan_cache_hits_total",
    "mtbase_engine_dml_rows_examined_total",
    "mtbase_engine_dml_rows_copied_total",
]
REQUIRED_HISTOGRAMS = [
    "mtbase_session_execute_seconds",
    "mtbase_engine_execute_seconds",
    "mtbase_engine_admission_wait_seconds",
]


def fail(msg):
    print(f"check_metrics_json: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: check_metrics_json.py <metrics.json>")
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {sys.argv[1]}: {e}")

    if not isinstance(doc, dict) or set(doc) != {"counters", "histograms"}:
        fail("top level must be an object with exactly "
             "'counters' and 'histograms'")

    counters = doc["counters"]
    if not isinstance(counters, dict):
        fail("'counters' must be an object")
    for name, value in counters.items():
        if not COUNTER_RE.match(name):
            fail(f"counter name {name!r} breaks the "
                 "mtbase_<layer>_..._total convention")
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            fail(f"counter {name} must be a non-negative integer, got "
                 f"{value!r}")

    histograms = doc["histograms"]
    if not isinstance(histograms, dict):
        fail("'histograms' must be an object")
    for name, h in histograms.items():
        if not HISTOGRAM_RE.match(name):
            fail(f"histogram name {name!r} breaks the "
                 "mtbase_<layer>_..._seconds convention")
        if not isinstance(h, dict) or set(h) != HISTOGRAM_FIELDS:
            fail(f"histogram {name} must have exactly fields "
                 f"{sorted(HISTOGRAM_FIELDS)}")
        if not isinstance(h["count"], int) or h["count"] < 0:
            fail(f"histogram {name}: count must be a non-negative integer")
        for field in ("sum", "p50", "p95", "p99"):
            v = h[field]
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or not math.isfinite(v) or v < 0:
                fail(f"histogram {name}: {field} must be a finite "
                     f"non-negative number, got {v!r}")
        if not h["p50"] <= h["p95"] <= h["p99"]:
            fail(f"histogram {name}: quantiles must be monotone "
                 f"(p50 {h['p50']} / p95 {h['p95']} / p99 {h['p99']})")
        if h["count"] == 0 and h["sum"] != 0:
            fail(f"histogram {name}: empty histogram with non-zero sum")

    for name in REQUIRED_POSITIVE_COUNTERS:
        if counters.get(name, 0) <= 0:
            fail(f"required counter {name} missing or zero - the serving "
                 "smoke run did not exercise it")
    for name in REQUIRED_HISTOGRAMS:
        if histograms.get(name, {}).get("count", 0) <= 0:
            fail(f"required histogram {name} missing or empty")

    print(f"check_metrics_json: OK ({len(counters)} counters, "
          f"{len(histograms)} histograms)")


if __name__ == "__main__":
    main()
