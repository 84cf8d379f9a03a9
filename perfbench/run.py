#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload warm-open --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The Go program in this directory is built
from the checkout's sources into .bench_build/ (the Go build cache, module
cache and temporary files live there too, so nothing is written outside the
checkout) and then run with the same arguments; its last line of standard
output is the result JSON.

Repeat mode runs one workload N times with seeds seed, seed+1, ... and
prints each metric's median, quartiles and spread (the distance between the
quartiles as a share of the median):

    python3 perfbench/run.py --workload warm-open --seed 1 --seconds 20 --repeat 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env.update(
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
        GOPROXY="off",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env())
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(args, seed, capture):
    cmd = [BINARY, "-workload", args.workload, "-seed", str(seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if capture:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: run with seed {seed} failed (exit {proc.returncode})")
        res = json.loads(lines[-1])
        if not res["correct"]:
            print("\n".join(lines[:-1]), flush=True)
        return res
    return subprocess.run(cmd, cwd=ROOT).returncode


def repeat(args):
    results = []
    for i in range(args.repeat):
        seed = args.seed + i
        res = run_once(args, seed, capture=True)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
    summary = {}
    print(f"{args.workload}: {args.repeat} runs, {args.seconds} s each")
    print(f"  {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else 0.0
        unit = results[0]["metrics"][name]["unit"]
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
        print(f"  {name:<32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {unit}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "all_correct": all(r["correct"] for r in results), "metrics": summary}))
    return 0 if all(r["correct"] for r in results) else 1


def main():
    p = argparse.ArgumentParser(description="Argus discovery benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="run N times with consecutive seeds and summarize")
    args = p.parse_args()
    build()
    if args.repeat > 0:
        return repeat(args)
    return run_once(args, args.seed, capture=False)


if __name__ == "__main__":
    sys.exit(main())
