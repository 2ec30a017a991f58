#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size.

    python3 perfbench/smoke_test.py

Runs every workload run.py accepts for 2 seconds on tiny data, once
untraced and once traced, and checks that the last line of each run is
the result object with every end-to-end (untraced) or per-layer
(traced) metric of BENCHMARK.json, by name and with its unit.  Prints
the attempted and failed counts of each run; exits 1 on any problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    # Every workload run.py accepts: the ones BENCHMARK.json lists.
    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    from run import WORKLOADS
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = spec["command"] + ["--workload", name, "--seed", "1", "--seconds", "2",
                                     "--trace", str(trace), "--tiny"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            tag = "%s trace=%d" % (name, trace)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (tag, r.returncode, r.stderr[-2000:]))
                continue
            try:
                res = json.loads(lines[-1])
            except ValueError:
                problems.append("%s: last line is not JSON: %r" % (tag, lines[-1][:200]))
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: keys %s" % (tag, sorted(res)))
                continue
            print("%-24s correct=%s attempted=%d failed=%d" %
                  (tag, res["correct"], res["attempted"], res["failed"]))
            if res["attempted"] < 1:
                problems.append("%s: nothing attempted" % tag)
            names = {m["name"] for m in wanted}
            extra = set(res["metrics"]) - names
            if extra:
                problems.append("%s: metrics not in BENCHMARK.json: %s" % (tag, sorted(extra)))
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s: missing %s" % (tag, m["name"]))
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: %s is %r, want unit %s" % (tag, m["name"], got, m["unit"]))
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("smoke test: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
