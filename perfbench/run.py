#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Builds perfbench/pbench.exe from source with dune, runs it from the
repository root, and relays its output: the last line on stdout is one
JSON object with the keys correct, attempted, failed and metrics.
Exits non-zero, printing no result, when the program cannot be built
or the run fails.  Everything it writes stays under the repository
root (_build/ and .perfbench_out/).
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join("_build", "default", "perfbench", "pbench.exe")
WORKLOADS = ("serve-hot", "local-large")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def env():
    e = dict(os.environ)
    e["DUNE_CACHE"] = "disabled"
    e["XDG_CACHE_HOME"] = os.path.join(ROOT, ".perfbench_out", "cache")
    return e


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at %s: the benchmark builds the repository from source" % (need, ROOT))
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/pbench.exe"], cwd=ROOT,
                       stdout=sys.stderr, stderr=sys.stderr, env=env(), timeout=900)
    if r.returncode != 0 or not os.path.exists(os.path.join(ROOT, EXE)):
        fail("build failed", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="shrink the data (smoke test)")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    os.chdir(ROOT)
    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed), "--seconds", repr(a.seconds),
           "--trace", str(a.trace), "--commit", source_id()] + (["--tiny"] if a.tiny else [])
    # Own process group: on a timeout the harness and every server it
    # forked go down together.
    p = subprocess.Popen(cmd, env=env(), start_new_session=True)
    try:
        code = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    except KeyboardInterrupt:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    if code != 0:
        fail("run failed with exit code %d" % code, 1)


if __name__ == "__main__":
    main()
