#!/usr/bin/env python3
"""Checks tools/compare_bench.py's verdicts on the recorded pairs in
tools/testdata/: a claim that is met, a claim won in only 8 of 10 pairs,
and a throughput regression; that `record` appends run.py's result with
its configuration; that `compare --json` writes a BENCH file `check`
accepts, with the per-layer pairs its runs carry; that `compare` reports
per-layer pairs without verdicts and writes no BENCH file for traced runs
alone; and that `check` accepts the committed BENCH files and refuses one
without a configuration, without end-to-end metrics, with a metric
BENCHMARK.json does not list, with a claim that is absent or not met, or
with a metric whose verdict is `worse`.

Usage: python3 tools/compare_bench_test.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, "compare_bench.py")
DATA = os.path.join(HERE, "testdata")


def run(*args, stdin=None):
    proc = subprocess.run([sys.executable, TOOL] + list(args), input=stdin,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def verdicts(stdout):
    """metric -> (pairs won, verdict) from the comparison table."""
    out = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 6 and "/" in fields[5]:
            out[fields[0]] = (fields[5], " ".join(fields[6:]))
    return out


class CompareBenchTest(unittest.TestCase):
    def compare(self, fixture, *claims):
        args = ["compare", os.path.join(DATA, fixture)]
        for claim in claims:
            args += ["--claim", claim]
        return run(*args)

    def test_met_claim(self):
        code, out = self.compare("compare_bench_met.jsonl",
                                 "mth-adhoc:suite_s")
        self.assertEqual(code, 0, out)
        v = verdicts(out)
        self.assertEqual(v["suite_s"], ("10/10", "claim met"))
        self.assertEqual(v["stmts_per_s"][1], "better")
        self.assertEqual(v["setup_s"][1], "within bound")

    def test_claim_won_in_eight_of_ten_pairs_is_not_met(self):
        code, out = self.compare("compare_bench_8of10.jsonl",
                                 "mth-adhoc:suite_s")
        self.assertEqual(code, 1, out)
        self.assertEqual(verdicts(out)["suite_s"], ("8/10", "claim not met"))
        # Unclaimed, the same runs read better and fail nothing.
        code, out = self.compare("compare_bench_8of10.jsonl")
        self.assertEqual(code, 0, out)
        self.assertEqual(verdicts(out)["suite_s"][1], "better")

    def test_regression_fails(self):
        code, out = self.compare("compare_bench_regression.jsonl")
        self.assertEqual(code, 1, out)
        v = verdicts(out)
        self.assertEqual(v["stmts_per_s"], ("0/10", "worse"))
        self.assertEqual(v["suite_s"][1], "within bound")

    def test_record_appends_the_result_line(self):
        result = {"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {"suite_s": {"value": 0.2, "unit": "s"}}}
        stdout = "config git_sha abc\nmetric suite_s 0.2 s x\n" + \
            json.dumps(result) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            pairs = os.path.join(tmp, "pairs.jsonl")
            for pair in (1, 2):
                code, _ = run("record", pairs, "--side", "parent", "--pair",
                              str(pair), "--workload", "mth-adhoc",
                              stdin=stdout)
                self.assertEqual(code, 0)
            with open(pairs) as f:
                lines = [json.loads(l) for l in f]
        self.assertEqual([l["pair"] for l in lines], [1, 2])
        self.assertEqual(lines[0]["result"], result)
        self.assertEqual(lines[0]["workload"], "mth-adhoc")
        code, _ = run("record", os.devnull, "--side", "change", "--pair", "1",
                      "--workload", "mth-adhoc", stdin="build failed\n")
        self.assertEqual(code, 2)

    def test_record_keeps_the_config_lines(self):
        result = {"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {"suite_s": {"value": 0.2, "unit": "s"}}}
        stdout = ("config git_sha abc\n"
                  'config {"nproc": "4", "build_type": "Release", '
                  '"sf": "0.001000", "seed": "7"}\n' + json.dumps(result))
        with tempfile.TemporaryDirectory() as tmp:
            pairs = os.path.join(tmp, "pairs.jsonl")
            code, _ = run("record", pairs, "--side", "parent", "--pair", "1",
                          "--workload", "mth-adhoc", stdin=stdout)
            self.assertEqual(code, 0)
            with open(pairs) as f:
                entry = json.loads(f.readline())
        self.assertEqual(entry["config"],
                         {"git_sha": "abc", "nproc": "4",
                          "build_type": "Release", "sf": "0.001000",
                          "seed": "7"})

    def write_bench(self, tmp, with_config, per_layer=False):
        """compare --json over the met fixture, its runs given a config or
        not and, with `per_layer`, a per-layer metric too; returns the exit
        code and the BENCH file's path."""
        pairs = os.path.join(tmp, "pairs.jsonl")
        with open(os.path.join(DATA, "compare_bench_met.jsonl")) as src, \
                open(pairs, "w") as dst:
            for line in src:
                entry = json.loads(line)
                if with_config:
                    entry["config"] = {"git_sha": entry["side"], "nproc": "4",
                                       "seed": str(entry["pair"])}
                if per_layer:
                    entry["result"]["metrics"]["suite_s.o4"] = {
                        "value": entry["pair"], "unit": "s"}
                dst.write(json.dumps(entry) + "\n")
        code, _ = run("compare", pairs, "--claim", "mth-adhoc:suite_s",
                      "--json", tmp)
        return code, os.path.join(tmp, "BENCH_mth-adhoc.json")

    def test_json_writes_a_bench_file_check_accepts(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, path = self.write_bench(tmp, with_config=True)
            self.assertEqual(code, 0)
            with open(path) as f:
                bench = json.load(f)
            code, out = run("check", path)
            self.assertEqual(code, 0, out)
        self.assertEqual(bench["claims"], ["suite_s"])
        self.assertEqual(bench["config"]["parent"],
                         {"git_sha": "parent", "nproc": "4",
                          "seeds": [str(p) for p in range(1, 11)]})
        suite = bench["metrics"]["suite_s"]
        self.assertEqual((suite["won"], suite["pairs"], suite["verdict"]),
                         (10, 10, "claim met"))
        self.assertLess(suite["change"]["median"], suite["parent"]["q1"])

    def test_check_refuses_a_bench_file_without_config(self):
        with tempfile.TemporaryDirectory() as tmp:
            _, path = self.write_bench(tmp, with_config=False)
            code, out = run("check", path)
        self.assertEqual(code, 1, out)
        self.assertIn("no config block", out)

    def test_check_refuses_an_unlisted_metric(self):
        code, out = run("check",
                        os.path.join(DATA, "BENCH_unknown_metric.json"))
        self.assertEqual(code, 1, out)
        self.assertIn("metric suite_ms is not in BENCHMARK.json", out)

    def check_edited(self, edit):
        """`check` on a BENCH file whose claim was met, after edit(bench)."""
        with tempfile.TemporaryDirectory() as tmp:
            code, path = self.write_bench(tmp, with_config=True)
            self.assertEqual(code, 0)
            with open(path) as f:
                bench = json.load(f)
            edit(bench)
            with open(path, "w") as f:
                json.dump(bench, f)
            return run("check", path)

    def test_check_refuses_a_missed_claim(self):
        def miss(bench):
            bench["metrics"]["suite_s"]["verdict"] = "claim not met"
        code, out = self.check_edited(miss)
        self.assertEqual(code, 1, out)
        self.assertIn("claimed metric suite_s: claim not met", out)

    def test_check_refuses_a_claim_on_an_absent_metric(self):
        def claim_absent(bench):
            bench["claims"].append("suite_p99_s")
        code, out = self.check_edited(claim_absent)
        self.assertEqual(code, 1, out)
        self.assertIn("claimed metric suite_p99_s is absent", out)

    def test_check_refuses_a_worse_metric(self):
        def worsen(bench):
            bench["metrics"]["stmts_per_s"]["verdict"] = "worse"
        code, out = self.check_edited(worsen)
        self.assertEqual(code, 1, out)
        self.assertIn("metric stmts_per_s is worse", out)

    def test_json_writes_per_layer_pairs_with_the_metrics(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, path = self.write_bench(tmp, with_config=True,
                                          per_layer=True)
            self.assertEqual(code, 0)
            code, out = run("check", path)
            self.assertEqual(code, 0, out)
            code, table_out = run("table", path)
            self.assertEqual(code, 0)
            with open(path) as f:
                bench = json.load(f)
            # Per-layer entries name BENCHMARK.json's metrics ...
            bench["per_layer"]["rows_joined"] = bench["per_layer"]["suite_s.o4"]
            with open(path, "w") as f:
                json.dump(bench, f)
            code, unlisted = run("check", path)
            # ... and never stand in for the end-to-end metrics.
            del bench["per_layer"]["rows_joined"]
            bench["metrics"] = {}
            with open(path, "w") as f:
                json.dump(bench, f)
            code_alone, alone = run("check", path)
        self.assertEqual(code, 1, unlisted)
        self.assertIn("metric rows_joined is not in BENCHMARK.json", unlisted)
        self.assertEqual(code_alone, 1, alone)
        self.assertIn("no metrics", alone)
        o4 = bench["per_layer"]["suite_s.o4"]
        self.assertEqual((o4["won"], o4["pairs"]), (0, 10))
        self.assertNotIn("verdict", o4)
        self.assertIn("| `suite_s.o4` | 5.5 [3.25-7.75] s | 5.5 [3.25-7.75] s "
                      "| 0/10 | per-layer, no verdict |", table_out)

    def test_traced_runs_print_per_layer_pairs_and_write_no_bench_file(self):
        # Traced runs report only per-layer metrics. The change joins fewer
        # rows in every pair and is slower at o4 in every pair: both are
        # printed with each side's median and quartiles and the pairs won,
        # and neither moves the exit status.
        with tempfile.TemporaryDirectory() as tmp:
            pairs = os.path.join(tmp, "traced.jsonl")
            with open(pairs, "w") as f:
                for pair in range(1, 4):
                    for side, joined, o4 in (("parent", 700 + pair, 0.3),
                                             ("change", 300 + pair, 0.4)):
                        metrics = {
                            "engine.rows_joined.o4": {"value": joined,
                                                      "unit": "count"},
                            "suite_s.o4": {"value": o4 + pair / 100,
                                           "unit": "s"}}
                        f.write(json.dumps({
                            "side": side, "pair": pair,
                            "workload": "mth-analytic",
                            "config": {"git_sha": side, "seed": str(pair)},
                            "result": {"correct": True, "attempted": 1,
                                       "failed": 0, "metrics": metrics}}) +
                            "\n")
            # A committed BENCH file of the workload stays as it is.
            path = os.path.join(tmp, "BENCH_mth-analytic.json")
            with open(path, "w") as f:
                f.write("end-to-end evidence\n")
            code, out = run("compare", pairs, "--json", tmp)
            with open(path) as f:
                kept = f.read()
        self.assertEqual(code, 0, out)
        lines = {l.split()[0]: l.split() for l in out.splitlines()
                 if l.strip()}
        self.assertEqual(lines["engine.rows_joined.o4"][1:],
                         ["702", "[701.5-702.5]", "302", "[301.5-302.5]",
                          "3/3"])
        self.assertEqual(lines["suite_s.o4"][-1], "0/3")
        self.assertNotIn("worse", out)
        self.assertIn("BENCH_mth-analytic.json not written", out)
        self.assertEqual(kept, "end-to-end evidence\n")

    def test_committed_bench_files_check(self):
        code, out = run("check")
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
