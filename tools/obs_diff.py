#!/usr/bin/env python3
"""Cross-run regression gate: compare two bench summaries or run manifests.

Inputs are the JSON artifacts every bench writes through bench_util:

  BENCH_summary.json   schema nocw.bench_summary.v1 — one entry per bench,
                       each carrying a flat {metric_name: value} map.
  run_<tool>.json      schema nocw.manifest.v1 — a single run's provenance
                       manifest; its "metrics" map is compared as one bench
                       named by its "tool" field.

Metrics are classified by name, because the repo's metric names are a
closed, suffix-disciplined vocabulary (see tools/lint.py units.vocab and
DESIGN.md §10):

  informational   wall-clock and throughput numbers that vary with the host
                  machine (substrings: _ms, seconds, gflops, speedup,
                  flops; e.g. each bench's wall_ms), plus the host-dependent
                  metrics named in HOST_DEPENDENT (timing-overhead ratios
                  and the core count). Reported, never gated.
  lower-better    latency, energy, cycles, _j, overhead, dropped, drops,
                  shed, burn, breach — an increase beyond tolerance is a
                  regression (SLO burn rates, breached-window counts and
                  trace-sampling drop counters all gate downward).
  higher-better   accuracy, cr, bit_identical, goodput — a decrease beyond
                  tolerance is a regression (speedup is informational).
  neutral         everything else (counts, point totals, ratios without a
                  direction) — any drift beyond tolerance is flagged as a
                  change, which also fails the gate: simulator outputs are
                  deterministic, so unexplained drift means behaviour moved.

Tolerance is relative (default 5%, --tol); values within --abs-tol of each
other (default 1e-12) always match, so exact-zero metrics don't divide by
zero.

The gate is warn-only by default: regressions are printed and the exit
status stays 0 so CI surfaces them without blocking. Set
NOCW_REGRESS_STRICT=1 (or pass --strict) to turn regressions into exit 1.
Missing benches/metrics on either side are warnings in both modes.

Usage:
  tools/obs_diff.py BASELINE CANDIDATE [--tol 0.05] [--strict]
  tools/obs_diff.py --self-test

Exit status: 0 clean (or warn-only), 1 regressions under --strict, 2 bad
input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys

INFORMATIONAL = ("_ms", "seconds", "gflops", "speedup", "flops")
# Exact metric names whose values depend on the host, not on the simulated
# outputs: two wall-clock overhead ratios (which the "overhead" substring
# would otherwise gate as lower-better) and the runner's core count.
HOST_DEPENDENT = ("disabled_overhead_pct", "trace_overhead_fraction",
                  "hardware_concurrency")
LOWER_BETTER = ("latency", "energy", "cycles", "_j", "overhead", "dropped",
                "drops", "shed", "burn", "breach")
HIGHER_BETTER = ("accuracy", "bit_identical", ".cr", "_cr", "goodput")


def classify(name: str) -> str:
    low = name.lower()
    if low in HOST_DEPENDENT or any(s in low for s in INFORMATIONAL):
        return "info"
    if any(s in low for s in LOWER_BETTER):
        return "lower"
    if any(s in low for s in HIGHER_BETTER) or low == "cr":
        return "higher"
    return "neutral"


def load_benches(path: pathlib.Path) -> dict[str, dict[str, float]]:
    """Return {bench_name: {metric: value}} from either supported schema."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    schema = doc.get("schema", "")
    if schema == "nocw.bench_summary.v1":
        return {name: entry.get("metrics", {})
                for name, entry in doc.get("benches", {}).items()}
    if schema == "nocw.manifest.v1":
        return {doc.get("tool", path.stem): doc.get("metrics", {})}
    raise ValueError(f"{path}: unknown schema {schema!r} "
                     f"(expected nocw.bench_summary.v1 or nocw.manifest.v1)")


class Diff:
    def __init__(self, tol: float, abs_tol: float):
        self.tol = tol
        self.abs_tol = abs_tol
        self.regressions: list[str] = []
        self.improvements: list[str] = []
        self.info: list[str] = []
        self.warnings: list[str] = []
        self.compared = 0

    def compare(self, base: dict[str, dict[str, float]],
                cand: dict[str, dict[str, float]]) -> None:
        for bench in sorted(set(base) | set(cand)):
            if bench not in cand:
                self.warnings.append(f"{bench}: missing from candidate")
                continue
            if bench not in base:
                self.warnings.append(f"{bench}: not in baseline (new bench)")
                continue
            self._compare_bench(bench, base[bench], cand[bench])

    def _compare_bench(self, bench: str, base: dict[str, float],
                       cand: dict[str, float]) -> None:
        for metric in sorted(set(base) | set(cand)):
            if metric not in cand:
                self.warnings.append(
                    f"{bench}.{metric}: missing from candidate")
                continue
            if metric not in base:
                self.warnings.append(
                    f"{bench}.{metric}: not in baseline (new metric)")
                continue
            self._compare_metric(bench, metric, base[metric], cand[metric])

    def _compare_metric(self, bench: str, metric: str, b: float,
                        c: float) -> None:
        self.compared += 1
        if abs(c - b) <= self.abs_tol:
            return
        denom = max(abs(b), self.abs_tol)
        rel = (c - b) / denom
        kind = classify(metric)
        line = (f"{bench}.{metric}: {b:g} -> {c:g} "
                f"({rel * 100.0:+.2f}%, class={kind})")
        if kind == "info":
            if abs(rel) > self.tol:
                self.info.append(line)
        elif abs(rel) <= self.tol:
            return
        elif kind == "lower":
            (self.regressions if rel > 0 else self.improvements).append(line)
        elif kind == "higher":
            (self.regressions if rel < 0 else self.improvements).append(line)
        else:  # neutral: deterministic outputs — unexplained drift fails
            self.regressions.append(line)

    def report(self) -> None:
        for label, lines in (("REGRESSION", self.regressions),
                             ("improvement", self.improvements),
                             ("info", self.info),
                             ("warning", self.warnings)):
            for line in lines:
                print(f"[{label}] {line}")
        print(f"obs_diff: {self.compared} metrics compared, "
              f"{len(self.regressions)} regression(s), "
              f"{len(self.improvements)} improvement(s), "
              f"{len(self.warnings)} warning(s)")


def run_diff(baseline: pathlib.Path, candidate: pathlib.Path, tol: float,
             abs_tol: float, strict: bool) -> int:
    try:
        base = load_benches(baseline)
        cand = load_benches(candidate)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"obs_diff: {e}", file=sys.stderr)
        return 2
    d = Diff(tol, abs_tol)
    d.compare(base, cand)
    d.report()
    if d.regressions:
        if strict:
            print("obs_diff: FAIL (strict mode)")
            return 1
        print("obs_diff: regressions found, but warn-only "
              "(set NOCW_REGRESS_STRICT=1 to gate)")
    return 0


def self_test() -> int:
    """Identical summaries diff clean; seeded perturbations are caught with
    the right class and direction."""
    import copy
    import tempfile

    base_doc = {
        "schema": "nocw.bench_summary.v1",
        "benches": {
            "fig2_lenet_breakdown": {
                "model": "LeNet-5",
                "metrics": {"latency_cycles": 26530.4, "energy_j": 2.2e-05,
                            "comm_cycles": 11225.8, "wall_ms": 1200.0},
            },
            "fig10_tradeoff": {
                "model": "",
                "metrics": {"lenet-5.d10.accuracy": 0.92,
                            "lenet-5.d10.latency_cycles": 20015.0},
            },
            "micro_kernels": {
                "model": "",
                "metrics": {"gemm.t1.seconds": 0.5, "gemm.flops": 2.68e8},
            },
        },
    }

    failures = []

    def run(doc_b, doc_c, strict, tol=0.05):
        with tempfile.TemporaryDirectory() as tmp:
            pb = pathlib.Path(tmp) / "base.json"
            pc = pathlib.Path(tmp) / "cand.json"
            pb.write_text(json.dumps(doc_b), encoding="utf-8")
            pc.write_text(json.dumps(doc_c), encoding="utf-8")
            d = Diff(tol, 1e-12)
            d.compare(load_benches(pb), load_benches(pc))
            rc = run_diff(pb, pc, tol, 1e-12, strict)
            return d, rc

    # 1. Identical inputs: zero regressions, exit 0 even under --strict.
    d, rc = run(base_doc, copy.deepcopy(base_doc), strict=True)
    if d.regressions or d.warnings or rc != 0:
        failures.append(f"identical inputs not clean: "
                        f"{d.regressions + d.warnings}, rc={rc}")

    # 2. +10% latency: flagged as a regression; strict exits 1, lax exits 0.
    pert = copy.deepcopy(base_doc)
    m = pert["benches"]["fig2_lenet_breakdown"]["metrics"]
    m["latency_cycles"] *= 1.10
    d, rc_strict = run(base_doc, pert, strict=True)
    _, rc_lax = run(base_doc, pert, strict=False)
    if not any("latency_cycles" in r for r in d.regressions):
        failures.append(f"+10% latency not flagged: {d.regressions}")
    if rc_strict != 1 or rc_lax != 0:
        failures.append(f"exit codes wrong: strict={rc_strict} lax={rc_lax}")

    # 3. -10% accuracy (higher-better): regression.
    pert = copy.deepcopy(base_doc)
    pert["benches"]["fig10_tradeoff"]["metrics"][
        "lenet-5.d10.accuracy"] *= 0.90
    d, _ = run(base_doc, pert, strict=False)
    if not any("accuracy" in r for r in d.regressions):
        failures.append(f"-10% accuracy not flagged: {d.regressions}")

    # 4. -10% latency (improvement): reported, not a regression.
    pert = copy.deepcopy(base_doc)
    pert["benches"]["fig2_lenet_breakdown"]["metrics"][
        "latency_cycles"] *= 0.90
    d, rc = run(base_doc, pert, strict=True)
    if d.regressions or rc != 0:
        failures.append(f"-10% latency misflagged: {d.regressions}")
    if not any("latency_cycles" in s for s in d.improvements):
        failures.append(f"-10% latency not an improvement: {d.improvements}")

    # 5. 2x wall-clock time (seconds and a bench's wall_ms): informational
    #    only, never gates.
    pert = copy.deepcopy(base_doc)
    pert["benches"]["micro_kernels"]["metrics"]["gemm.t1.seconds"] *= 2.0
    pert["benches"]["fig2_lenet_breakdown"]["metrics"]["wall_ms"] *= 2.0
    d, rc = run(base_doc, pert, strict=True)
    if d.regressions or rc != 0:
        failures.append(f"wall-clock drift gated: {d.regressions}")
    for key in ("seconds", "wall_ms"):
        if not any(key in s for s in d.info):
            failures.append(f"wall-clock drift not reported: {d.info}")

    # 6. Drift within tolerance (+1%): silent.
    pert = copy.deepcopy(base_doc)
    pert["benches"]["fig2_lenet_breakdown"]["metrics"][
        "latency_cycles"] *= 1.01
    d, _ = run(base_doc, pert, strict=True)
    if d.regressions or d.improvements:
        failures.append(f"+1% drift not absorbed by tolerance: "
                        f"{d.regressions + d.improvements}")

    # 7. Missing bench: warning, not a regression.
    pert = copy.deepcopy(base_doc)
    del pert["benches"]["micro_kernels"]
    d, rc = run(base_doc, pert, strict=True)
    if d.regressions or rc != 0:
        failures.append(f"missing bench gated: {d.regressions}")
    if not any("micro_kernels" in w for w in d.warnings):
        failures.append(f"missing bench not warned: {d.warnings}")

    # 8. Manifest schema loads as a single-bench map.
    manifest = {"schema": "nocw.manifest.v1", "tool": "ext_timeseries",
                "metrics": {"latency_cycles": 20015.0}}
    with tempfile.TemporaryDirectory() as tmp:
        p = pathlib.Path(tmp) / "run.json"
        p.write_text(json.dumps(manifest), encoding="utf-8")
        loaded = load_benches(p)
    if loaded != {"ext_timeseries": {"latency_cycles": 20015.0}}:
        failures.append(f"manifest load wrong: {loaded}")

    # 9. Serving directions: goodput down and shed up are both regressions.
    serving_doc = copy.deepcopy(base_doc)
    serving_doc["benches"]["ext_serving"] = {
        "model": "LeNet-5",
        "metrics": {"sjf.l150.goodput_rps": 1226.0,
                    "sjf.l150.shed_rate": 0.13},
    }
    pert = copy.deepcopy(serving_doc)
    pert["benches"]["ext_serving"]["metrics"]["sjf.l150.goodput_rps"] *= 0.90
    pert["benches"]["ext_serving"]["metrics"]["sjf.l150.shed_rate"] *= 1.50
    d, _ = run(serving_doc, pert, strict=False)
    if not any("goodput" in r for r in d.regressions):
        failures.append(f"-10% goodput not flagged: {d.regressions}")
    if not any("shed_rate" in r for r in d.regressions):
        failures.append(f"+50% shed rate not flagged: {d.regressions}")

    # 10. Tracing/SLO directions: more breached windows, a hotter burn rate
    # and more sampler drops are all regressions; fewer dropped trees is an
    # improvement (the tail sampler kept more of the tail).
    trace_doc = copy.deepcopy(base_doc)
    trace_doc["benches"]["ext_reqtrace"] = {
        "model": "LeNet-5",
        "metrics": {"slo.windows_breached": 20.0,
                    "slo.max_burn_4w": 0.5,
                    "traces.exemplar_drops": 4.0,
                    "traces.dropped_trees": 700.0},
    }
    pert = copy.deepcopy(trace_doc)
    m = pert["benches"]["ext_reqtrace"]["metrics"]
    m["slo.windows_breached"] = 24.0
    m["slo.max_burn_4w"] = 0.8
    m["traces.exemplar_drops"] = 6.0
    m["traces.dropped_trees"] = 500.0
    d, _ = run(trace_doc, pert, strict=False)
    for key in ("windows_breached", "max_burn_4w", "exemplar_drops"):
        if not any(key in r for r in d.regressions):
            failures.append(f"worse {key} not flagged: {d.regressions}")
    if any("dropped_trees" in r for r in d.regressions) or not any(
            "dropped_trees" in s for s in d.improvements):
        failures.append(f"fewer dropped_trees misclassified: "
                        f"{d.regressions} / {d.improvements}")

    # 11. Host-dependent metrics: a 2x move in each is reported, never
    # gated, even at zero relative tolerance — while a 1-ulp move in a
    # latency_cycles value still fails there.
    host_doc = copy.deepcopy(base_doc)
    host_doc["benches"]["ext_trace_overhead"] = {
        "model": "LeNet-5", "metrics": {"disabled_overhead_pct": 0.42}}
    host_doc["benches"]["ext_reqtrace"] = {
        "model": "LeNet-5", "metrics": {"trace_overhead_fraction": 0.009}}
    host_doc["benches"]["micro_kernels"]["metrics"][
        "hardware_concurrency"] = 4.0
    pert = copy.deepcopy(host_doc)
    pert["benches"]["ext_trace_overhead"]["metrics"][
        "disabled_overhead_pct"] *= 2.0
    pert["benches"]["ext_reqtrace"]["metrics"][
        "trace_overhead_fraction"] *= 2.0
    pert["benches"]["micro_kernels"]["metrics"]["hardware_concurrency"] *= 2.0
    d, rc = run(host_doc, pert, strict=True, tol=0.0)
    if d.regressions or d.improvements or rc != 0:
        failures.append(f"host-dependent drift gated: "
                        f"{d.regressions + d.improvements}, rc={rc}")
    for key in HOST_DEPENDENT:
        if not any(key in s for s in d.info):
            failures.append(f"2x {key} not reported: {d.info}")
    pert = copy.deepcopy(host_doc)
    m = pert["benches"]["fig2_lenet_breakdown"]["metrics"]
    m["latency_cycles"] = math.nextafter(m["latency_cycles"], math.inf)
    d, rc = run(host_doc, pert, strict=True, tol=0.0)
    if not any("latency_cycles" in r for r in d.regressions) or rc != 1:
        failures.append(f"1-ulp latency_cycles move not gated: "
                        f"{d.regressions}, rc={rc}")

    if failures:
        print("obs_diff self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("obs_diff self-test passed: 11 scenarios")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?", type=pathlib.Path)
    ap.add_argument("candidate", nargs="?", type=pathlib.Path)
    ap.add_argument("--tol", type=float, default=0.05,
                    help="relative tolerance (default 0.05 = 5%%)")
    ap.add_argument("--abs-tol", type=float, default=1e-12,
                    help="absolute tolerance floor (default 1e-12)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on regressions (also NOCW_REGRESS_STRICT=1)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.candidate is None:
        ap.error("baseline and candidate paths are required")
    strict = args.strict or os.environ.get("NOCW_REGRESS_STRICT") == "1"
    return run_diff(args.baseline, args.candidate, args.tol, args.abs_tol,
                    strict)


if __name__ == "__main__":
    sys.exit(main())
