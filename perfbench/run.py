#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload, and
print the result as one JSON line (see perfbench/README.md).

    python3 perfbench/run.py --workload zoo_fig10 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The build and every output file go under
.bench_build/ there. --threads overrides NOCW_THREADS (default: the number of
CPUs); running one seed with --threads 1 and then without it checks that the
outputs do not depend on the thread count.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
RESULTS = os.path.join(OUT, "results")
DIGESTS = os.path.join(OUT, "digests")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what to recompile."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # The build's chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def git_sha():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_digest(binary, raw):
    """Every run of one build on one workload and seed must print the same
    digest, whatever its trace flag and thread count."""
    path = os.path.join(DIGESTS, file_hash(binary),
                        f"{raw['workload']}-s{raw['seed']}.json")
    this = {"trace": raw["trace"], "threads": raw["threads"],
            "digest": raw["digest"]}
    seen = []
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    ok = True
    for run in seen:
        if run["digest"] != raw["digest"]:
            log(f"digest {raw['digest']} (trace {raw['trace']}, threads "
                f"{raw['threads']}) differs from {run['digest']} (trace "
                f"{run['trace']}, threads {run['threads']})")
            ok = False
    if this not in seen:
        seen.append(this)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(seen, f)
    return ok


def log_overhead(args, traced):
    """Tracing overhead: the traced run's own end-to-end figures against the
    latest untraced run of the same workload and seed, when there is one."""
    log("traced end-to-end: " + json.dumps(traced))
    prefix = f"run-{args.workload}-s{args.seed}-t0-"
    untraced = sorted(f for f in os.listdir(RESULTS) if f.startswith(prefix))
    if not untraced:
        return
    with open(os.path.join(RESULTS, untraced[-1])) as f:
        base = json.load(f)["e2e"]
    log("tracing overhead vs " + untraced[-1] + ": " + ", ".join(
        f"{k} {100.0 * (traced[k] / base[k] - 1.0):+.1f}%"
        for k in sorted(base) if base[k] and traced.get(k) is not None))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(RESULTS, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("NOCW_")}
    env["NOCW_THREADS"] = str(args.threads)
    env["NOCW_QUIET"] = "1"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall_s = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    raw = json.loads(lines[-1])

    failed = raw["failed"]
    if not check_digest(binary, raw):
        failed += 1
    correct = failed == 0
    measured = raw["layers" if args.trace else "e2e"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None or not math.isfinite(value) or (
                not args.trace and value <= 0):
            log(f"metric {m['name']} is missing or invalid: {value}")
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = set(measured) - {m["name"] for m in wanted}
    if extra:
        log(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
        correct = False

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "nocw_threads": args.threads,
              "git_sha": git_sha(), "passes": raw["passes"],
              "digest": raw["digest"], "e2e": raw["e2e"],
              "layers": raw["layers"]}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(
            RESULTS, f"run-{args.workload}-s{args.seed}-t{args.trace}-"
                     f"{stamp}.json"), "w") as f:
        json.dump(record, f, indent=1)
    log(f"workload {args.workload} seed {args.seed} NOCW_THREADS "
        f"{args.threads} git {record['git_sha']} passes {raw['passes']} "
        f"digest {raw['digest']} ({raw['digest_lines']} outputs) "
        f"wall {wall_s:.1f} s")
    if args.trace:
        log_overhead(args, raw["e2e"])

    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        sys.exit(1)
