#!/usr/bin/env python3
"""Validate a statement-trace JSONL file against the documented schema.

Every line must be a standalone JSON object of the shape produced by
obs::StatementTrace::ToJson (docs/observability.md): a statement record with
a monotone sequence number, a layer, an outcome, and one span per executed
phase. Fails with a per-line diagnostic on the first schema departure so the
CI quick lane catches format drift the C++ unit tests cannot see (they assert
substrings, not the whole grammar).

Usage: python3 tools/check_trace_schema.py <trace.jsonl>
"""
import json
import os
import re
import sys

LAYERS = {"engine", "session"}
OUTCOMES = {"ok", "refused", "error"}
PHASES = {"parse", "rewrite", "audit", "plan", "verify", "execute"}
STATS_HEADER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "src", "engine", "stats.h")


def load_stats_fields(path):
    """ExecStats field names: the X(field, layer) entries of the
    MTBASE_EXEC_STATS_FIELDS list in src/engine/stats.h, the one place they
    are declared. Empty when the header cannot be read or holds no list."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return set()
    match = re.search(r"#define MTBASE_EXEC_STATS_FIELDS\(X\)((?:.*\\\n)*.*)",
                      text)
    if not match:
        return set()
    body = re.sub(r"/\*.*?\*/", "", match.group(1), flags=re.S)
    return set(re.findall(r"\bX\(\s*(\w+)\s*,", body))


# The keys a span's "stats" object may carry.
STATS_FIELDS = load_stats_fields(STATS_HEADER)
RECORD_KEYS = {"seq", "layer", "statement", "outcome", "codes", "spans"}
SPAN_KEYS = {"phase", "duration_ms", "outcome", "codes", "stats"}


def check_span(span, where):
    if not isinstance(span, dict):
        return f"{where}: span is not an object"
    unknown = set(span) - SPAN_KEYS
    if unknown:
        return f"{where}: unknown span key(s) {sorted(unknown)}"
    if span.get("phase") not in PHASES:
        return f"{where}: bad phase {span.get('phase')!r}"
    dur = span.get("duration_ms")
    if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
        return f"{where}: bad duration_ms {dur!r}"
    if span.get("outcome") not in OUTCOMES:
        return f"{where}: bad span outcome {span.get('outcome')!r}"
    if "codes" in span and not isinstance(span["codes"], str):
        return f"{where}: span codes is not a string"
    if "stats" in span:
        stats = span["stats"]
        if not isinstance(stats, dict):
            return f"{where}: span stats is not an object"
        bad = set(stats) - STATS_FIELDS
        if bad:
            return f"{where}: unknown stats field(s) {sorted(bad)}"
        for name, value in stats.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                return f"{where}: stats.{name} is not a non-negative integer"
    return None


def check_record(rec, where):
    if not isinstance(rec, dict):
        return f"{where}: record is not an object"
    unknown = set(rec) - RECORD_KEYS
    if unknown:
        return f"{where}: unknown record key(s) {sorted(unknown)}"
    seq = rec.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        return f"{where}: bad seq {seq!r}"
    if rec.get("layer") not in LAYERS:
        return f"{where}: bad layer {rec.get('layer')!r}"
    if not isinstance(rec.get("statement"), str):
        return f"{where}: statement is not a string"
    if rec.get("outcome") not in OUTCOMES:
        return f"{where}: bad record outcome {rec.get('outcome')!r}"
    if "codes" in rec and not isinstance(rec["codes"], str):
        return f"{where}: record codes is not a string"
    spans = rec.get("spans")
    if not isinstance(spans, list):
        return f"{where}: spans is not a list"
    for i, span in enumerate(spans):
        err = check_span(span, f"{where} span {i}")
        if err:
            return err
    return None


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1])
        return 2
    path = sys.argv[1]
    if not STATS_FIELDS:
        print(f"{STATS_HEADER}: found no ExecStats field names (X(field, "
              "layer) entries of MTBASE_EXEC_STATS_FIELDS)")
        return 1
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"cannot read {path}: {e}")
        return 1
    if not lines:
        print(f"{path}: empty trace file")
        return 1
    records = 0
    for n, line in enumerate(lines, 1):
        if not line:
            print(f"{path}:{n}: blank line")
            return 1
        try:
            rec = json.loads(line)
        except ValueError as e:
            print(f"{path}:{n}: invalid JSON: {e}")
            return 1
        err = check_record(rec, f"{path}:{n}")
        if err:
            print(err)
            return 1
        records += 1
    print(f"{path}: {records} trace record(s) conform to the schema.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
