#!/usr/bin/env python3
"""Compare parent/change runs of mtbench pair by pair.

A pairs file holds one JSON object per line:

    {"side": "parent" | "change", "pair": <n>, "workload": <name>,
     "result": <the last stdout line of mtbench/run.py>}

Record a run (run.py's stdout on stdin; the last line must be its result):

    python3 mtbench/run.py --workload mth-adhoc --seed 701 --seconds 30 \\
        | python3 tools/compare_bench.py record pairs.jsonl \\
              --side change --pair 1 --workload mth-adhoc

Compare the recorded pairs, and optionally write each workload's
comparison as BENCH_<workload>.json into DIR:

    python3 tools/compare_bench.py compare pairs.jsonl \\
        [--claim mth-adhoc:suite_s] [--benchmark BENCHMARK.json] [--json DIR]

Check committed BENCH files (default: every BENCH_*.json at the repo root),
or print one as a markdown table:

    python3 tools/compare_bench.py check [BENCH_mth-adhoc.json ...]
    python3 tools/compare_bench.py table BENCH_mth-adhoc.json

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

For every per-layer metric of BENCHMARK.json the recorded runs carry
(run.py reports them with --trace 1), it also prints each side's median and
quartiles and the pairs the change won. These show where a change moved the
work; they are not a gate: they get no verdict and never change the exit
status. --json writes them under `per_layer`, but only into a BENCH file
that has end-to-end metrics too: a comparison of traced runs alone writes no
file, so it never replaces a workload's end-to-end evidence.

`record` keeps run.py's `config` lines (git sha, nproc, build type, sf,
tenants, threads, seed, ...) with each run. A BENCH file holds, per side,
the configuration its runs share (and their seeds), each side's median and
quartiles per end-to-end metric, the pairs won and the verdict. `check`
fails a BENCH file that has no configuration for either side, has no
end-to-end metric, or names a metric BENCHMARK.json does not list.

The exit status is 1 when a claim is not met or anything regressed: a
`worse` metric, a larger share of failed operations, or a change run whose
checks failed; and when `check` finds a bad file. It is 2 on unusable
input.
"""
import argparse
import glob
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
             "workload": args.workload, "config": run_config(lines),
             "result": result}
    with open(args.pairs, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def run_config(lines):
    """run.py's `config` lines as one dict: `config KEY VALUE` lines and
    the `config {...}` object mtbench prints."""
    config = {}
    for line in lines:
        if not line.startswith("config "):
            continue
        rest = line[len("config "):].strip()
        if rest.startswith("{"):
            try:
                config.update(json.loads(rest))
            except ValueError:
                die("unreadable config line: " + line)
        else:
            key, _, value = rest.partition(" ")
            config[key] = value
    return config


def shared_config(configs):
    """The configuration every run of a side shares, plus their seeds."""
    configs = [c for c in configs if c]
    if not configs:
        return {}
    shared = {k: v for k, v in configs[0].items()
              if all(c.get(k) == v for c in configs)}
    shared.pop("seed", None)
    seeds = sorted({str(c["seed"]) for c in configs if "seed" in c},
                   key=lambda seed: (len(seed), seed))  # numeric order
    if seeds:
        shared["seeds"] = seeds
    return shared


def quartiles(values):
    """(q1, median, q3), interpolated between closest ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def load_pairs(path):
    runs = {}  # workload -> pair -> side -> result (its config under
    # "_config")
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
            sides[side] = dict(result, _config=entry.get("config", {}))
    return runs


def metric_value(result, name):
    try:
        return float(result["metrics"][name]["value"])
    except (KeyError, TypeError, ValueError):
        return None


def paired_values(pairs, complete, metric):
    """Each side's values of `metric` over the complete pairs that report
    it on both sides, and the pairs the change won (ties count for neither
    side)."""
    parent, change, wins = [], [], 0
    for p in complete:
        pv = metric_value(pairs[p]["parent"], metric["name"])
        cv = metric_value(pairs[p]["change"], metric["name"])
        if pv is None or cv is None:
            continue
        parent.append(pv)
        change.append(cv)
        if (cv < pv) if metric["better"] == "lower" else (cv > pv):
            wins += 1
    return parent, change, wins


def summary(metric, parent, change, wins):
    """The BENCH entry for one metric (without a verdict), and its table
    cells per side."""
    entry = {"unit": metric["unit"], "better": metric["better"],
             "won": wins, "pairs": len(parent)}
    cells = []
    for side, values in zip(SIDES, (parent, change)):
        q1, med, q3 = quartiles(values)
        cells.append("%s [%s-%s]" % (fmt(med), fmt(q1), fmt(q3)))
        entry[side] = {"median": med, "q1": q1, "q3": q3}
    return entry, cells


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


def load_spec(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def compare(args):
    spec = load_spec(args.benchmark)
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
        bench = {"workload": workload, "pairs": len(complete),
                 "claims": sorted(m for w, m in claims if w == workload),
                 "config": {}, "operations": {}, "metrics": {}}
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
            bench["config"][side] = shared_config(
                [r["_config"] for r in results])
            bench["operations"][side] = {
                "attempted": attempted, "failed": failed_ops,
                "runs_with_failed_checks": bad_runs[side]}
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
            parent, change, wins = paired_values(pairs, complete, metric)
            if not parent:
                print("   %-12s no values" % name)
                continue
            text, bad = verdict(metric, parent, change, wins, len(parent),
                                (workload, name) in claims)
            failed = failed or bad
            entry, cells = summary(metric, parent, change, wins)
            entry["verdict"] = text
            bench["metrics"][name] = entry
            print("   %-12s %-30s %-30s %-7s %s" %
                  (name, cells[0], cells[1], "%d/%d" % (wins, len(parent)),
                   text))
        for metric in spec["per_layer"]:
            parent, change, wins = paired_values(pairs, complete, metric)
            if not parent:
                continue
            entry, cells = summary(metric, parent, change, wins)
            if "per_layer" not in bench:
                print("   per-layer metrics (no verdicts)")
                bench["per_layer"] = {}
            bench["per_layer"][metric["name"]] = entry
            print("   %-40s %-30s %-30s %s" %
                  (metric["name"], cells[0], cells[1],
                   "%d/%d" % (wins, len(parent))))
        if args.json and not bench["metrics"]:
            print("   no end-to-end metrics: BENCH_%s.json not written" %
                  workload)
        elif args.json:
            path = os.path.join(args.json, "BENCH_%s.json" % workload)
            with open(path, "w") as f:
                json.dump(bench, f, indent=2, sort_keys=True)
                f.write("\n")
    return 1 if failed else 0


def bench_problems(path, spec):
    """Why the BENCH file at `path` is unusable, or [] when it is not."""
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        return ["unreadable: %s" % e]
    if not isinstance(bench, dict):
        return ["not a JSON object"]
    problems = []
    workloads = {w["name"] for w in spec["workloads"]}
    if bench.get("workload") not in workloads:
        problems.append("workload %r is not in BENCHMARK.json" %
                        bench.get("workload"))
    config = bench.get("config")
    if not isinstance(config, dict) or not all(
            isinstance(config.get(s), dict) and config[s] for s in SIDES):
        problems.append("no config block for both sides")
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = bench.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("no metrics")
        metrics = {}
    else:
        for name in sorted(set(metrics) - known):
            problems.append("metric %s is not in BENCHMARK.json" % name)
    # The evidence must agree with itself: every claim met, nothing worse.
    claims = bench.get("claims", [])
    if not isinstance(claims, list):
        problems.append("claims is not a list")
        claims = []
    for name in claims:
        entry = metrics.get(name)
        if not isinstance(entry, dict):
            problems.append("claimed metric %s is absent" % name)
        elif entry.get("verdict") != "claim met":
            problems.append("claimed metric %s: %s" %
                            (name, entry.get("verdict")))
    for name, entry in sorted(metrics.items()):
        if isinstance(entry, dict) and entry.get("verdict") == "worse":
            problems.append("metric %s is worse" % name)
    per_layer = bench.get("per_layer", {})
    if not isinstance(per_layer, dict):
        problems.append("per_layer is not an object")
    else:
        for name in sorted(set(per_layer) - known):
            problems.append("metric %s is not in BENCHMARK.json" % name)
    return problems


def check(args):
    spec = load_spec(args.benchmark)
    files = args.files or sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    bad = False
    for path in files:
        problems = bench_problems(path, spec)
        for problem in problems:
            print("%s: %s" % (path, problem))
        bad = bad or bool(problems)
    print("checked %d BENCH file(s)%s" % (len(files), ": FAILED" if bad else ""))
    return 1 if bad else 0


def table(args):
    """A BENCH file's metrics as a markdown table."""
    try:
        with open(args.bench) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (args.bench, e))
    print("| metric | parent median [q1-q3] | change median [q1-q3] | "
          "pairs won | verdict |")
    print("|---|---|---|---|---|")
    rows = sorted(bench["metrics"].items()) + \
        sorted(bench.get("per_layer", {}).items())
    for name, m in rows:
        cells = ["%s [%s-%s] %s" % (fmt(m[s]["median"]), fmt(m[s]["q1"]),
                                    fmt(m[s]["q3"]), m["unit"])
                 for s in SIDES]
        print("| `%s` | %s | %s | %d/%d | %s |" %
              (name, cells[0], cells[1], m["won"], m["pairs"],
               m.get("verdict", "per-layer, no verdict")))
    return 0


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
    cmp_.add_argument("--json", metavar="DIR",
                      help="write BENCH_<workload>.json files into DIR")
    chk = sub.add_parser("check", help="check committed BENCH files")
    chk.add_argument("files", nargs="*",
                     help="BENCH files (default: BENCH_*.json at the root)")
    chk.add_argument("--benchmark",
                     default=os.path.join(ROOT, "BENCHMARK.json"))
    tab = sub.add_parser("table", help="a BENCH file as a markdown table")
    tab.add_argument("bench")
    args = parser.parse_args()
    if args.command == "record":
        record(args)
        return 0
    if args.command == "check":
        return check(args)
    if args.command == "table":
        return table(args)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
