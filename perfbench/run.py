#!/usr/bin/env python3
"""Horse repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release) and measures one workload by
starting one `perfbench run` child process per simulation run, cycling
through the workload's sub-runs (independent scenarios drawn from the
seed) until `--seconds` have passed and every sub-run ran once.

With `--trace 0` it reports the end-to-end metrics, each the median over
the children: `setup_s` (scenario build + `Simulation::new`, set up
several times per child), `run_s` (`start` + `run_until` + `finish`) and
`peak_rss_mb` (VmHWM of the child). Children scale their host seconds to
a reference host speed with a fixed probe; the metadata line keeps the
raw seconds too (NOTES.md, "Host speed"). With `--trace 1` it runs one
traced child on sub-run 0 and reports its per-layer split, plus
`trace.overhead` against untraced children of the same scenario.

Every child checks its own outcomes (conservation laws, and at the
default seed the recorded outcome digest); run.py also checks that
repeated runs of one scenario, traced or not, agree on the digest. The
last line of standard output is the JSON result; the lines before it are
run metadata and the layer summary. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fattree_flaps", "ixp_paper", "hybrid_fg")
# Every run must end within 180 s; stop starting children well before.
HARD_LIMIT_S = 150.0


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    binary = os.path.join(ROOT, target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def child(binary, args, timeout):
    """Runs one child; returns its parsed report, or an error string."""
    try:
        done = subprocess.run(
            [binary] + args, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True
        )
    except subprocess.TimeoutExpired:
        return f"child {args} timed out"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return f"child {args} exited with {done.returncode}"
    try:
        return json.loads(lines[-1])
    except ValueError:
        return f"child {args} printed no report"


def source_digest():
    """SHA-256 over the program's sources: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    names = [os.path.join(ROOT, n) for n in ("Cargo.toml", "Cargo.lock")]
    for top in ("src", "crates", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            names += [os.path.join(d, f) for f in files if f.endswith((".rs", ".toml", ".lock"))]
    for name in sorted(names):
        if os.path.isfile(name):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Tally:
    """Children run so far, and which of them failed."""

    def __init__(self):
        self.reports = []  # successful child reports
        self.problems = []  # one message per failed child
        self.attempted = 0

    def add(self, report):
        self.attempted += 1
        if isinstance(report, str):
            self.problems.append(report)
        elif report["errors"]:
            self.problems.append(f"sub-run {report['sub']}: {'; '.join(report['errors'])}")
        else:
            self.reports.append(report)

    def disagreeing(self):
        """Fails every run of a sub-run whose children disagree on the
        outcome digest (a run must not depend on anything but its inputs)."""
        by_sub = {}
        for r in self.reports:
            by_sub.setdefault(r["sub"], set()).add(r["digest"])
        bad = {s for s, ds in by_sub.items() if len(ds) > 1}
        for s in sorted(bad):
            self.problems.append(f"sub-run {s}: runs disagree on the outcome digest")
        self.reports = [r for r in self.reports if r["sub"] not in bad]

    @property
    def failed(self):
        return self.attempted - len(self.reports)


def measure_for(binary, workload, seed, subs, seconds, started, tally,
                only_sub=None, minimum=None):
    """Starts children until `seconds` passed and `minimum` ran."""
    minimum = subs if minimum is None else minimum
    t0 = time.monotonic()
    n = 0
    while n < minimum or time.monotonic() - t0 < seconds:
        left = HARD_LIMIT_S - (time.monotonic() - started)
        if left <= 0:
            break
        sub = only_sub if only_sub is not None else n % subs
        args = ["run", "--workload", workload, "--seed", str(seed), "--sub", str(sub)]
        tally.add(child(binary, args, timeout=left + 20))
        n += 1


def summary(xs):
    """Median, sample count and the highest of p75/p90/p99 that has at
    least ten samples above it."""
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None}
    for p in (99, 90, 75):
        if len(xs) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(xs, n=100)[p - 1]
            break
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    p = argparse.ArgumentParser(description="Horse repository benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        sys.exit(1)
    started = time.monotonic()
    info = child(binary, ["describe"], timeout=60)
    if isinstance(info, str):
        print(f"perfbench: {info}", file=sys.stderr)
        sys.exit(1)
    subs = int(info["workloads"][args.workload]["subs"])
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "profile": info["profile"],
        "subs": subs,
    }

    tally = Tally()
    child(binary, ["probe"], timeout=30)  # warm-up: the first probe after a build reads slow
    if args.trace == 0:
        measure_for(binary, args.workload, args.seed, subs, args.seconds, started, tally)
        tally.disagreeing()
        ok = tally.reports
        samples = {
            "setup_s": [s for r in ok for s in r["setup_s"]],
            "run_s": [r["run_s"] for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
            "setup_raw_s": [s for r in ok for s in r["setup_raw_s"]],
            "run_raw_s": [r["run_raw_s"] for r in ok],
            "probe_s": [p for r in ok for p in r["probe_s"]],
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
        metrics = {
            name: metric(statistics.median(samples[name]) if ok else 0.0, unit)
            for name, unit in units.items()
        }
        meta["timings"] = {name: summary(xs) for name, xs in samples.items()}
        meta["samples"] = {name: [round(x, 6) for x in xs] for name, xs in samples.items()}
    else:
        args_traced = ["run", "--workload", args.workload, "--seed", str(args.seed),
                       "--sub", "0", "--traced"]
        tally.add(child(binary, args_traced, timeout=HARD_LIMIT_S))
        measure_for(binary, args.workload, args.seed, subs, args.seconds / 2, started, tally,
                    only_sub=0, minimum=2)
        tally.disagreeing()
        ok = tally.reports
        traced = next((r for r in ok if "layers" in r), None)
        plain = [r["run_s"] for r in ok if "layers" not in r]
        metrics = {}
        for name, unit in info["per_layer"]:
            value = traced["layers"][name]["value"] if traced else 0.0
            metrics[name] = metric(value, unit)
        overhead = traced["run_s"] / statistics.median(plain) if traced and plain else 0.0
        metrics["trace.overhead"] = metric(overhead, "ratio")
        if traced:
            meta["dominant_layer"] = traced["dominant"]
            meta["snapshot_errors"] = traced["snapshot_errors"]
            share = {k: round(metrics[f"split.{k}_share"]["value"], 4)
                     for k in ("bootstrap", "dataplane", "other")}
            print(f"layer split of run_s on {args.workload}: {share}; "
                  f"dominant: {traced['dominant']}")

    meta["children"] = tally.attempted
    meta["problems"] = tally.problems
    print(json.dumps({"meta": meta}))
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and bool(tally.reports),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
