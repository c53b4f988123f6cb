#!/usr/bin/env python3
"""Compare parent/change runs of mtbench pair by pair.

A pairs file holds one JSON object per line:

    {"side": "parent" | "change", "pair": <n>, "workload": <name>,
     "result": <the last stdout line of mtbench/run.py>}

Record a run (run.py's stdout on stdin; the last line must be its result):

    python3 mtbench/run.py --workload mth-adhoc --seed 701 --seconds 30 \\
        | python3 tools/compare_bench.py record pairs.jsonl \\
              --side change --pair 1 --workload mth-adhoc

Compare the recorded pairs:

    python3 tools/compare_bench.py compare pairs.jsonl \\
        [--claim mth-adhoc:suite_s] [--benchmark BENCHMARK.json]

For each workload and each end-to-end metric of BENCHMARK.json, it prints
each side's median and quartiles, the pairs the change won (ties count for
neither side) and a verdict. The failed/attempted operations and the runs
whose checks failed are printed per side.

- A claimed metric (--claim WORKLOAD:METRIC, repeatable) is met only when the
  change wins at least 9 of every 10 pairs run and the medians differ, in
  the better direction, by more than the parent's interquartile range.
- Every other metric reads `better` (every change run beats every parent
  run, or the medians differ in the change's favour by more than the
  parent's IQR), `unresolved` (the parent's IQR, relative to its median, is
  wider than the metric's bound), `worse` (the change's median is worse by
  more than the bound, relative to the parent's median) or `within bound`.

The exit status is 1 when a claim is not met or anything regressed: a
`worse` metric, a larger share of failed operations, or a change run whose
checks failed. It is 2 on unusable input.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
CLAIM_SHARE = 0.9


def die(message):
    print("compare_bench: " + message, file=sys.stderr)
    sys.exit(2)


def record(args):
    lines = [l for l in sys.stdin.read().splitlines() if l.strip()]
    if not lines:
        die("no input: pipe mtbench/run.py's stdout into record")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("the last input line is not run.py's JSON result")
    if not isinstance(result, dict) or "metrics" not in result:
        die("the last input line is not run.py's JSON result")
    entry = {"side": args.side, "pair": args.pair,
             "workload": args.workload, "result": result}
    with open(args.pairs, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def quartiles(values):
    """(q1, median, q3), interpolated between closest ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def load_pairs(path):
    runs = {}  # workload -> pair -> side -> result
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                side, pair = entry["side"], entry["pair"]
                workload, result = entry["workload"], entry["result"]
            except (ValueError, KeyError, TypeError):
                die("%s:%d: not a pairs entry" % (path, number))
            if side not in SIDES:
                die("%s:%d: side must be parent or change" % (path, number))
            sides = runs.setdefault(workload, {}).setdefault(pair, {})
            if side in sides:
                die("%s:%d: pair %s of %s has two %s runs" %
                    (path, number, pair, workload, side))
            sides[side] = result
    return runs


def metric_value(result, name):
    try:
        return float(result["metrics"][name]["value"])
    except (KeyError, TypeError, ValueError):
        return None


def verdict(metric, parent, change, wins, n_pairs, claimed):
    """The verdict on one metric, and whether it fails the comparison."""
    lower = metric["better"] == "lower"
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = (p_med - c_med) if lower else (c_med - p_med)
    iqr = p_q3 - p_q1
    if claimed:
        met = wins >= CLAIM_SHARE * n_pairs and gain > iqr
        return ("claim met" if met else "claim not met"), not met
    if lower:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if all_better:
        return "better", False
    if p_med != 0 and iqr / abs(p_med) > metric["bound"]:
        return "unresolved", False
    if p_med != 0 and -gain / abs(p_med) > metric["bound"]:
        return "worse", True
    if gain > iqr:
        return "better", False
    return "within bound", False


def fmt(x):
    return "%.4g" % x


def compare(args):
    try:
        with open(args.benchmark) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (args.benchmark, e))
    metrics = spec["end_to_end"]
    names = {m["name"] for m in metrics}
    claims = set()
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if metric not in names:
            die("claim %s: %s is not an end-to-end metric" % (claim, metric))
        claims.add((workload, metric))
    runs = load_pairs(args.pairs)
    for workload, _ in claims:
        if workload not in runs:
            die("claim on %s, which has no recorded pairs" % workload)

    failed = False
    for workload in sorted(runs):
        pairs = runs[workload]
        complete = sorted((p for p in pairs if len(pairs[p]) == 2), key=str)
        print("== %s: %d complete pairs" % (workload, len(complete)))
        shares, bad_runs = {}, {}
        for side in SIDES:
            results = [pairs[p][side] for p in complete]
            attempted = sum(int(r.get("attempted", 0)) for r in results)
            failed_ops = sum(int(r.get("failed", 0)) for r in results)
            bad_runs[side] = sum(1 for r in results
                                 if not r.get("correct", False))
            shares[side] = failed_ops / attempted if attempted else 0.0
            print("   %-6s failed/attempted %d/%d, runs with failed checks %d" %
                  (side, failed_ops, attempted, bad_runs[side]))
        if not complete:
            failed = failed or any(w == workload for w, _ in claims)
            continue
        if shares["change"] > shares["parent"]:
            print("   REGRESSION: a larger share of operations failed")
            failed = True
        if bad_runs["change"]:
            print("   REGRESSION: a change run failed its checks")
            failed = True
        print("   %-12s %-30s %-30s %-7s %s" %
              ("metric", "parent median [q1-q3]", "change median [q1-q3]",
               "won", "verdict"))
        for metric in metrics:
            name = metric["name"]
            parent, change, wins = [], [], 0
            for p in complete:
                pv = metric_value(pairs[p]["parent"], name)
                cv = metric_value(pairs[p]["change"], name)
                if pv is None or cv is None:
                    continue
                parent.append(pv)
                change.append(cv)
                if (cv < pv) if metric["better"] == "lower" else (cv > pv):
                    wins += 1
            if not parent:
                print("   %-12s no values" % name)
                continue
            text, bad = verdict(metric, parent, change, wins, len(parent),
                                (workload, name) in claims)
            failed = failed or bad
            sides = []
            for values in (parent, change):
                q1, med, q3 = quartiles(values)
                sides.append("%s [%s-%s]" % (fmt(med), fmt(q1), fmt(q3)))
            print("   %-12s %-30s %-30s %-7s %s" %
                  (name, sides[0], sides[1], "%d/%d" % (wins, len(parent)),
                   text))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(
        description="Record and compare mtbench parent/change pairs.")
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="append one run from run.py's stdout")
    rec.add_argument("pairs")
    rec.add_argument("--side", choices=SIDES, required=True)
    rec.add_argument("--pair", type=int, required=True)
    rec.add_argument("--workload", required=True)
    cmp_ = sub.add_parser("compare", help="the verdict on recorded pairs")
    cmp_.add_argument("pairs")
    cmp_.add_argument("--claim", action="append", default=[],
                      metavar="WORKLOAD:METRIC")
    cmp_.add_argument("--benchmark",
                      default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    if args.command == "record":
        record(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
