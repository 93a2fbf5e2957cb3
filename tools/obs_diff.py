#!/usr/bin/env python3
"""Cross-run regression gate: compare two bench summaries or run manifests.

Inputs are the JSON artifacts every bench writes through bench_util:

  BENCH_summary.json   schema nocw.bench_summary.v1 — one entry per bench,
                       each carrying a "metrics" and a "host" map.
  run_<tool>.json      schema nocw.manifest.v1 — a single run's provenance
                       manifest, compared as one bench named by its "tool".

Two classes, declared by the bench that measures the value (DESIGN.md §10):

  host      the "host" map: wall-clock times, rates, speed-ups, overhead
            ratios and core counts. They depend on the machine, so changes
            are reported and never gated.
  exact     the "metrics" map: everything else. The simulator is
            deterministic, so each metric must equal its baseline exactly —
            both JSON numbers parse to the same double, and null equals
            null. Any other value is a mismatch.

The gate is warn-only by default: mismatches are printed and the exit
status stays 0. Set NOCW_REGRESS_STRICT=1 (or pass --strict) to turn them
into exit 1. A bench or metric present on one side only is a warning in
both modes.

Usage:
  tools/obs_diff.py BASELINE CANDIDATE [--strict]
  tools/obs_diff.py --self-test

Exit status: 0 clean (or warn-only), 1 mismatches under --strict, 2 bad
input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys


def load_benches(path: pathlib.Path) -> dict[str, dict[str, dict]]:
    """Return {bench_name: {"metrics": {...}, "host": {...}}} from either
    supported schema."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    schema = doc.get("schema", "")
    if schema == "nocw.bench_summary.v1":
        entries = doc.get("benches", {})
    elif schema == "nocw.manifest.v1":
        entries = {doc.get("tool", path.stem): doc}
    else:
        raise ValueError(f"{path}: unknown schema {schema!r} "
                         f"(expected nocw.bench_summary.v1 or "
                         f"nocw.manifest.v1)")
    return {name: {"metrics": e.get("metrics", {}), "host": e.get("host", {})}
            for name, e in entries.items()}


def same(b: float | None, c: float | None) -> bool:
    """Exact match: null equals null; numbers compare as doubles."""
    if b is None or c is None:
        return b is None and c is None
    return float(b) == float(c)


class Diff:
    def __init__(self) -> None:
        self.mismatches: list[str] = []
        self.host: list[str] = []
        self.warnings: list[str] = []
        self.compared = 0

    def compare(self, base: dict[str, dict[str, dict]],
                cand: dict[str, dict[str, dict]]) -> None:
        for bench in sorted(set(base) | set(cand)):
            if bench not in cand:
                self.warnings.append(f"{bench}: missing from candidate")
            elif bench not in base:
                self.warnings.append(f"{bench}: not in baseline (new bench)")
            else:
                self._compare_bench(bench, base[bench], cand[bench])

    def _compare_bench(self, bench: str, base: dict[str, dict],
                       cand: dict[str, dict]) -> None:
        bm, cm = base["metrics"], cand["metrics"]
        for metric in sorted(set(bm) | set(cm)):
            if metric not in cm:
                self.warnings.append(
                    f"{bench}.{metric}: missing from candidate")
            elif metric not in bm:
                self.warnings.append(
                    f"{bench}.{metric}: not in baseline (new metric)")
            else:
                self.compared += 1
                if not same(bm[metric], cm[metric]):
                    self.mismatches.append(
                        f"{bench}.{metric}: {json.dumps(bm[metric])} -> "
                        f"{json.dumps(cm[metric])}")
        bh, ch = base["host"], cand["host"]
        for key in sorted(set(bh) | set(ch)):
            b, c = bh.get(key), ch.get(key)
            if key not in bh or key not in ch or not same(b, c):
                self.host.append(
                    f"{bench}.{key}: {json.dumps(b)} -> {json.dumps(c)}")

    def report(self) -> None:
        for label, lines in (("MISMATCH", self.mismatches),
                             ("host", self.host),
                             ("warning", self.warnings)):
            for line in lines:
                print(f"[{label}] {line}")
        print(f"obs_diff: {self.compared} metrics compared exactly, "
              f"{len(self.mismatches)} mismatch(es), "
              f"{len(self.host)} host value(s) changed, "
              f"{len(self.warnings)} warning(s)")


def run_diff(baseline: pathlib.Path, candidate: pathlib.Path,
             strict: bool) -> tuple[Diff | None, int]:
    try:
        base = load_benches(baseline)
        cand = load_benches(candidate)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"obs_diff: {e}", file=sys.stderr)
        return None, 2
    d = Diff()
    d.compare(base, cand)
    d.report()
    if d.mismatches:
        if strict:
            print("obs_diff: FAIL (strict mode)")
            return d, 1
        print("obs_diff: mismatches found, but warn-only "
              "(set NOCW_REGRESS_STRICT=1 to gate)")
    return d, 0


def self_test() -> int:
    """Identical summaries diff clean; a 1-ulp metric move fails under
    --strict; host moves are reported and never gated."""
    import copy
    import tempfile

    base_doc = {
        "schema": "nocw.bench_summary.v1",
        "benches": {
            "fig2_lenet_breakdown": {
                "model": "LeNet-5",
                "metrics": {"latency_cycles": 26530.4, "energy_j": 2.2e-05,
                            "comm_cycles": 11225.8},
                "host": {"wall_ms": 1200.0},
            },
            "ext_serving": {
                "model": "LeNet-5",
                "metrics": {"sjf.l150.p99_cycles": 209531368,
                            "sjf.l150.max_burn_1w": None},
                "host": {"wall_ms": 900.0},
            },
            "micro_kernels": {
                "model": "",
                "metrics": {"gemm.flops": 268435456},
                "host": {"gemm.t1.seconds": 0.5, "gemm.t1.speedup": 1.0,
                         "hardware_concurrency": 4, "wall_ms": 3000.0},
            },
        },
    }

    failures = []

    def run(doc_b, doc_c, strict):
        with tempfile.TemporaryDirectory() as tmp:
            pb = pathlib.Path(tmp) / "base.json"
            pc = pathlib.Path(tmp) / "cand.json"
            pb.write_text(json.dumps(doc_b), encoding="utf-8")
            pc.write_text(json.dumps(doc_c), encoding="utf-8")
            return run_diff(pb, pc, strict)

    # 1. Identical inputs: clean, exit 0 under --strict.
    d, rc = run(base_doc, copy.deepcopy(base_doc), strict=True)
    if d.mismatches or d.host or d.warnings or rc != 0:
        failures.append(f"identical inputs not clean: "
                        f"{d.mismatches + d.host + d.warnings}, rc={rc}")

    # 2. A 1-ulp move of one latency_cycles value: exit 1 under --strict,
    # exit 0 warn-only.
    pert = copy.deepcopy(base_doc)
    m = pert["benches"]["fig2_lenet_breakdown"]["metrics"]
    m["latency_cycles"] = math.nextafter(m["latency_cycles"], math.inf)
    d, rc_strict = run(base_doc, pert, strict=True)
    _, rc_lax = run(base_doc, pert, strict=False)
    if [s.split(":")[0] for s in d.mismatches] != [
            "fig2_lenet_breakdown.latency_cycles"]:
        failures.append(f"1-ulp latency_cycles move not flagged alone: "
                        f"{d.mismatches}")
    if rc_strict != 1 or rc_lax != 0:
        failures.append(f"exit codes wrong: strict={rc_strict} lax={rc_lax}")

    # 3. A 2x move of every host value: each reported, exit 0 under
    # --strict.
    pert = copy.deepcopy(base_doc)
    host_keys = []
    for name, entry in pert["benches"].items():
        for key in entry["host"]:
            entry["host"][key] *= 2
            host_keys.append(f"{name}.{key}")
    d, rc = run(base_doc, pert, strict=True)
    if d.mismatches or rc != 0:
        failures.append(f"host drift gated: {d.mismatches}, rc={rc}")
    if sorted(s.split(":")[0] for s in d.host) != sorted(host_keys):
        failures.append(f"2x host moves not all reported: {d.host}")

    # 4. null equals null, and an integer equals the same double; null
    # against a number is a mismatch.
    pert = copy.deepcopy(base_doc)
    pert["benches"]["ext_serving"]["metrics"]["sjf.l150.p99_cycles"] = (
        209531368.0)
    d, rc = run(base_doc, pert, strict=True)
    if d.mismatches or rc != 0:
        failures.append(f"null/null or int/double flagged: {d.mismatches}")
    pert["benches"]["ext_serving"]["metrics"]["sjf.l150.max_burn_1w"] = 0.0
    d, rc = run(base_doc, pert, strict=True)
    if len(d.mismatches) != 1 or rc != 1:
        failures.append(f"null -> 0 not flagged: {d.mismatches}, rc={rc}")

    # 5. A missing bench or metric warns and never gates.
    pert = copy.deepcopy(base_doc)
    del pert["benches"]["micro_kernels"]
    del pert["benches"]["fig2_lenet_breakdown"]["metrics"]["energy_j"]
    d, rc = run(base_doc, pert, strict=True)
    if d.mismatches or rc != 0:
        failures.append(f"missing bench/metric gated: {d.mismatches}")
    for key in ("micro_kernels", "fig2_lenet_breakdown.energy_j"):
        if not any(w.startswith(key + ":") for w in d.warnings):
            failures.append(f"missing {key} not warned: {d.warnings}")

    # 6. A manifest with a host map loads as a single bench.
    manifest = {"schema": "nocw.manifest.v1", "tool": "ext_timeseries",
                "metrics": {"latency_cycles": 20015.0},
                "host": {"wall_ms": 40.0}}
    with tempfile.TemporaryDirectory() as tmp:
        p = pathlib.Path(tmp) / "run.json"
        p.write_text(json.dumps(manifest), encoding="utf-8")
        loaded = load_benches(p)
    if loaded != {"ext_timeseries": {"metrics": {"latency_cycles": 20015.0},
                                     "host": {"wall_ms": 40.0}}}:
        failures.append(f"manifest load wrong: {loaded}")

    if failures:
        print("obs_diff self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("obs_diff self-test passed: 6 scenarios")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?", type=pathlib.Path)
    ap.add_argument("candidate", nargs="?", type=pathlib.Path)
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on mismatches (also NOCW_REGRESS_STRICT=1)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.candidate is None:
        ap.error("baseline and candidate paths are required")
    strict = args.strict or os.environ.get("NOCW_REGRESS_STRICT") == "1"
    return run_diff(args.baseline, args.candidate, strict)[1]


if __name__ == "__main__":
    sys.exit(main())
