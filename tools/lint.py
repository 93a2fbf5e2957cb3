#!/usr/bin/env python3
"""Repo-specific lint rules that a generic tool cannot express.

Rules (all scoped to src/, the library code):

  units       double/float *fields* declared in src/power, src/noc and
              src/accel headers must carry a physical-unit suffix (_pj, _j,
              _mw, _w, _ghz, _hz, _cycles, _seconds, _s, _bits, _bytes,
              _flits) or an explicitly dimensionless one (_efficiency,
              _ratio, _scale, _factor, _fraction, _share, _utilization).
              A bare `cycles` or `seconds` is also accepted. The energy
              model multiplies these fields straight into the Fig. 10
              joules; an unlabelled unit is how a pJ/J mix-up ships.

  rng         rand(), srand() and std::random_device are forbidden outside
              util/rng.hpp. All stochastic behaviour flows through the
              seeded, implementation-stable generators in util/rng.hpp so
              every experiment is reproducible from a single 64-bit seed.

  iostream    std::cout in library code is forbidden (library output goes
              through return values; printing belongs to bench/, examples/
              and tools).

  assert      naked assert() is forbidden outside util/check.hpp; use
              NOCW_CHECK* (always-on invariants) or NOCW_DCHECK* (hot
              paths). static_assert is fine.

  fault       the counter-based fault-sampling primitive fault_hash() may
              only be called in src/noc/fault.cpp (declaration in
              src/noc/fault.hpp). All stochastic fault behaviour must flow
              through the FaultModel / corrupt_bits wrappers so a fault
              experiment is reproducible from a single seed at any thread
              count; ad-hoc sampling scattered through the tree is how
              determinism quietly breaks.

  metric      obs::Registry registration sites (set_counter, add_counter,
              set_gauge, observe) whose unit argument is a string literal
              must draw it from the closed vocabulary — parsed at startup
              from src/util/units_vocab.inc, the same X-macro list that
              units.hpp and unit_allowed() in src/obs/registry.cpp compile
              in, so an unknown unit is caught before the run-time
              NOCW_CHECK is and the three consumers cannot drift.

  print       (scoped to bench/) std::printf / std::cout are forbidden in
              bench drivers outside bench_util.cpp, the sanctioned table
              emission point. Progress lines go through obs::log(), which
              NOCW_QUIET can silence at once; fprintf to a *file* (JSON
              mirrors) is fine.

  manifest    (scoped to bench/) every bench driver (a bench/*.cpp that
              defines main) must register its run with the summary writer
              by calling bench::write_summary, so BENCH_summary.json and
              the per-run manifest cover every binary and the cross-run
              regression gate (tools/obs_diff.py) sees the whole suite.
              A bench that skips registration silently falls out of the
              gate's coverage.

  route       next-hop computation (dor_next_hop()) is forbidden outside
              src/noc/routing.{cpp,hpp} and src/noc/router.cpp. Fault-aware
              routing (DESIGN.md §13) works because the RouteTable is the
              single source of next hops — an ad-hoc DOR call elsewhere
              would silently ignore quarantined links/routers and ship
              packets into a hole the recovery machinery cannot see.

  serve       (scoped to src/serve/) direct AcceleratorSim simulate() /
              simulate_layer() calls are forbidden outside
              src/serve/serve_sim.cpp, the audited ServeSim driver path.
              Schedulers, arrival generators and queues consult the
              ServiceProfiles the driver precomputes; an ad-hoc simulate
              call in policy code would fork request timing off the one
              path the determinism gates (ext_serving) actually check.

  trace-ctx   constructing an obs::TraceContext by aggregate init or
              writing a raw `.trace_id =` is forbidden outside the trace
              plumbing (src/obs/trace_context.{hpp,cpp}, src/obs/trace.cpp)
              and the one sanctioned root mint
              (src/serve/trace_ids.cpp). Request span ids are pure
              functions of (trace seed, request id) via request_trace_
              context() + derive_child(); a second mint would fork the id
              space and break the Perfetto-export ↔ reqtrace-JSON join
              that ext_reqtrace gates on.

  slo         the window-alignment primitive slo_window_start() may only
              be called in src/obs/slo.{hpp,cpp}. SLO windows, burn rates
              and exemplar pins all assume one tumbling alignment; a
              second, subtly different alignment computed elsewhere is how
              a breached window and its exemplar trace silently disagree.

Usage:
  tools/lint.py [--root DIR]   lint the tree rooted at DIR (default: the
                               repository containing this script)
  tools/lint.py --self-test    verify every rule fires on a seeded
                               violation and stays quiet on clean code

Exit status: 0 clean, 1 violations found (or self-test failure).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

UNIT_SUFFIXES = (
    "_pj", "_j", "_mw", "_w", "_ghz", "_hz", "_cycles", "_seconds", "_s",
    "_bits", "_bytes", "_flits",
)
DIMENSIONLESS_SUFFIXES = (
    "_efficiency", "_ratio", "_scale", "_factor", "_fraction", "_share",
    "_utilization", "_probability",
)
EXACT_UNIT_NAMES = {"cycles", "seconds"}

UNITS_DIRS = ("src/power", "src/noc", "src/accel")
RNG_ALLOWED = "src/util/rng.hpp"
ASSERT_ALLOWED = "src/util/check.hpp"
FAULT_ALLOWED = ("src/noc/fault.cpp", "src/noc/fault.hpp")
PRINT_ALLOWED = "bench/bench_util.cpp"
ROUTE_ALLOWED = ("src/noc/routing.cpp", "src/noc/routing.hpp",
                 "src/noc/router.cpp")
SERVE_ALLOWED = ("src/serve/serve_sim.cpp",)
TRACE_CTX_ALLOWED = ("src/obs/trace_context.hpp", "src/obs/trace_context.cpp",
                     "src/obs/trace.cpp", "src/serve/trace_ids.cpp")
SLO_ALLOWED = ("src/obs/slo.hpp", "src/obs/slo.cpp")

NOCW_UNIT_RE = re.compile(r"^\s*NOCW_UNIT\((\w+)\)", re.M)


def load_metric_units() -> frozenset[str]:
    """The closed unit vocabulary, parsed from src/util/units_vocab.inc —
    the same X-macro list units.hpp and registry.cpp (unit_allowed) compile
    in, so the linter can never drift from the library. The baked-in
    fallback only covers a checkout where the .inc has been deleted."""
    inc = pathlib.Path(__file__).resolve().parent.parent / (
        "src/util/units_vocab.inc")
    try:
        units = NOCW_UNIT_RE.findall(inc.read_text(encoding="utf-8"))
    except OSError:
        units = []
    return frozenset(units) or frozenset({
        "count", "cycles", "seconds", "flits", "packets", "events", "bits",
        "bytes", "joules", "watts", "ratio", "fraction", "percent",
        "samples",
    })


METRIC_UNITS = load_metric_units()

# `double name;` or `double name = ...;` at the start of a line — a field or
# namespace-scope declaration. Function parameters and return types never
# start a line with the bare type in this codebase's style.
FIELD_RE = re.compile(r"^\s*(?:double|float)\s+(\w+)\s*(?:=[^;]*)?;")
RAND_RE = re.compile(r"\b(?:rand|srand)\s*\(|std::random_device")
COUT_RE = re.compile(r"std::cout")
ASSERT_RE = re.compile(r"\bassert\s*\(")
FAULT_RE = re.compile(r"\bfault_hash\s*\(")
ROUTE_RE = re.compile(r"\bdor_next_hop\s*\(")
# A member call to AcceleratorSim's simulate()/simulate_layer(). Within
# src/serve/ only the audited ServeSim driver may invoke the accelerator;
# schedulers and generators must consult the precomputed ServiceProfiles.
SIMULATE_RE = re.compile(r"(?:\.|->)\s*simulate(?:_layer)?\s*\(")
# A TraceContext built by aggregate init (`TraceContext{...}` /
# `TraceContext ctx{...}`, which also matches the struct definition — the
# definition lives in an allowed file) or a raw trace-id field write.
TRACE_CTX_RE = re.compile(r"\bTraceContext\s*\w*\s*\{|\.trace_id\s*=(?!=)")
SLO_WINDOW_RE = re.compile(r"\bslo_window_start\s*\(")
PRINT_RE = re.compile(r"std::printf|std::cout")
MAIN_RE = re.compile(r"^\s*int\s+main\s*\(", re.M)
WRITE_SUMMARY_RE = re.compile(r"\bwrite_summary\s*\(")
# A registry call whose unit argument is a string literal. The name argument
# (anything up to the first top-level comma; registry metric names never
# contain commas) may span lines, hence DOTALL matching over the whole file.
METRIC_RE = re.compile(
    r"\b(?:set_counter|add_counter|set_gauge|observe)\s*"
    r"\(\s*[^,;]*?,\s*\"([^\"]*)\"", re.S)


def strip_comments(text: str) -> str:
    """Blank out comments, preserving line numbers."""
    out = []
    i = 0
    n = len(text)
    in_line = in_block = in_string = False
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if in_line:
            if c == "\n":
                in_line = False
                out.append(c)
            else:
                out.append(" ")
        elif in_block:
            if c == "*" and nxt == "/":
                in_block = False
                out.append("  ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
        elif in_string:
            if c == "\\":
                out.append(c + nxt)
                i += 1
            else:
                if c == '"':
                    in_string = False
                out.append(c)
        elif c == '"':
            in_string = True
            out.append(c)
        elif c == "/" and nxt == "/":
            in_line = True
            out.append("  ")
            i += 1
        elif c == "/" and nxt == "*":
            in_block = True
            out.append("  ")
            i += 1
        else:
            out.append(c)
        i += 1
    return "".join(out)


def unit_name_ok(name: str) -> bool:
    # Private members carry a trailing underscore (`flip_probability_`);
    # units are judged on the semantic name.
    name = name.rstrip("_")
    if name in EXACT_UNIT_NAMES:
        return True
    return name.endswith(UNIT_SUFFIXES) or name.endswith(
        DIMENSIONLESS_SUFFIXES)


def lint_metric_units(rel: str, text: str) -> list[str]:
    """The [metric] rule: registry registration sites whose unit argument is
    a string literal must draw it from the closed vocabulary. Calls may span
    lines, so the rule matches the whole comment-stripped text; shared by the
    src/ and bench/ passes."""
    findings = []
    for m in METRIC_RE.finditer(text):
        unit = m.group(1)
        if unit not in METRIC_UNITS:
            lineno = text.count("\n", 0, m.start()) + 1
            findings.append(
                f"{rel}:{lineno}: [metric] unit '{unit}' is not in the "
                f"registry vocabulary ({', '.join(sorted(METRIC_UNITS))}); "
                f"keep units closed so exports stay comparable")
    return findings


def lint_file(root: pathlib.Path, path: pathlib.Path) -> list[str]:
    rel = path.relative_to(root).as_posix()
    text = strip_comments(path.read_text(encoding="utf-8"))
    findings = []

    in_units_scope = rel.endswith((".hpp", ".h")) and rel.startswith(
        UNITS_DIRS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if in_units_scope and "(" not in line:
            m = FIELD_RE.match(line)
            if m and not unit_name_ok(m.group(1)):
                findings.append(
                    f"{rel}:{lineno}: [units] float field '{m.group(1)}' "
                    f"lacks a unit suffix ({', '.join(UNIT_SUFFIXES)}; "
                    f"dimensionless: {', '.join(DIMENSIONLESS_SUFFIXES)})")
        if rel != RNG_ALLOWED and RAND_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [rng] rand()/srand()/std::random_device "
                f"outside util/rng.hpp breaks seeded reproducibility")
        if COUT_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [iostream] std::cout in library code; "
                f"printing belongs in bench/, examples/ or tools")
        if rel != ASSERT_ALLOWED and ASSERT_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [assert] naked assert(); use NOCW_CHECK* "
                f"or NOCW_DCHECK* from util/check.hpp")
        if rel not in FAULT_ALLOWED and FAULT_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [fault] fault_hash() outside noc/fault.cpp; "
                f"sample faults through FaultModel / corrupt_bits so fault "
                f"experiments stay seed-reproducible")
        if rel not in ROUTE_ALLOWED and ROUTE_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [route] dor_next_hop() outside noc/routing "
                f"(+ router.cpp); next hops come from the RouteTable so "
                f"quarantined links/routers are honored everywhere")
        if (rel.startswith("src/serve/") and rel not in SERVE_ALLOWED
                and SIMULATE_RE.search(line)):
            findings.append(
                f"{rel}:{lineno}: [serve] direct AcceleratorSim simulate "
                f"call outside the ServeSim driver; serving code consults "
                f"the precomputed ServiceProfiles so request timing stays "
                f"on the one audited accelerator path")
        if rel not in TRACE_CTX_ALLOWED and TRACE_CTX_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [trace-ctx] TraceContext construction / "
                f"raw trace_id write outside the trace plumbing; mint roots "
                f"with serve::request_trace_context and derive children "
                f"with obs::derive_child so span ids stay a pure function "
                f"of the trace seed")
        if rel not in SLO_ALLOWED and SLO_WINDOW_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [slo] slo_window_start() outside obs/slo; "
                f"one tumbling alignment keeps windows, burn rates and "
                f"exemplar pins mutually consistent")
    findings.extend(lint_metric_units(rel, text))
    return findings


def lint_bench_file(root: pathlib.Path, path: pathlib.Path) -> list[str]:
    rel = path.relative_to(root).as_posix()
    text = strip_comments(path.read_text(encoding="utf-8"))
    findings = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if rel != PRINT_ALLOWED and PRINT_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [print] std::printf/std::cout in a "
                f"bench driver; progress lines go through obs::log() "
                f"(NOCW_QUIET-aware), tables through bench::emit")
        if TRACE_CTX_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [trace-ctx] TraceContext construction / "
                f"raw trace_id write outside the trace plumbing; mint roots "
                f"with serve::request_trace_context and derive children "
                f"with obs::derive_child so span ids stay a pure function "
                f"of the trace seed")
        if SLO_WINDOW_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [slo] slo_window_start() outside obs/slo; "
                f"one tumbling alignment keeps windows, burn rates and "
                f"exemplar pins mutually consistent")
    findings.extend(lint_metric_units(rel, text))
    if (MAIN_RE.search(text) and rel != PRINT_ALLOWED
            and not WRITE_SUMMARY_RE.search(text)):
        lineno = text.count("\n", 0, MAIN_RE.search(text).start()) + 1
        findings.append(
            f"{rel}:{lineno}: [manifest] bench driver never calls "
            f"bench::write_summary; every bench must register with "
            f"BENCH_summary.json so the regression gate "
            f"(tools/obs_diff.py) covers it")
    return findings


def lint_tree(root: pathlib.Path) -> list[str]:
    findings = []
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".cpp", ".hpp", ".h", ".cc"):
            findings.extend(lint_file(root, path))
    bench = root / "bench"
    if bench.is_dir():
        for path in sorted(bench.rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h", ".cc"):
                findings.extend(lint_bench_file(root, path))
    return findings


def self_test() -> int:
    """Seed one violation per rule plus a clean file; every violation must
    be flagged and the clean file must not be."""
    seeded = {
        "src/power/bad_units.hpp":
            "struct T {\n  double latency;\n  double energy = 0.0;\n};\n",
        "src/nn/bad_rng.cpp":
            "int f() { return rand(); }\n",
        "src/core/bad_rng2.cpp":
            "#include <random>\nstd::random_device rd;\n",
        "src/eval/bad_print.cpp":
            "#include <iostream>\nvoid p() { std::cout << 1; }\n",
        "src/noc/bad_assert.cpp":
            "#include <cassert>\nvoid g(int x) { assert(x > 0); }\n",
        "src/eval/bad_fault.cpp":
            "#include \"noc/fault.hpp\"\n"
            "unsigned long h() { return nocw::noc::fault_hash(1, 2, 3, 4); }\n",
        "src/eval/bad_metric.cpp":
            "#include \"obs/registry.hpp\"\n"
            "void f(nocw::obs::Registry& r) {\n"
            "  r.set_gauge(\"x.energy\", \"femtojoules\", 1.0);\n"
            "}\n",
        "bench/bad_progress.cpp":
            "#include <cstdio>\n"
            "void p() { std::printf(\"working...\\n\"); }\n",
        "bench/bad_manifest.cpp":
            "#include \"bench_util.hpp\"\n"
            "int main(int, char** argv) {\n"
            "  (void)nocw::bench::output_dir(argv[0]);\n"
            "  return 0;\n"
            "}\n",
        "src/accel/bad_route.cpp":
            "#include \"noc/routing.hpp\"\n"
            "int hop(const nocw::noc::NocConfig& c) {\n"
            "  return nocw::noc::dor_next_hop(c, 0, 15);\n"
            "}\n",
        "src/serve/bad_sim.cpp":
            "#include \"accel/simulator.hpp\"\n"
            "double cost(const nocw::accel::AcceleratorSim& sim,\n"
            "            const nocw::accel::ModelSummary& s) {\n"
            "  return sim.simulate(s).latency.total().value();\n"
            "}\n",
        "src/noc/bad_traceid.cpp":
            "#include \"obs/trace.hpp\"\n"
            "void forge(nocw::obs::TraceEvent& ev) { ev.trace_id = 7; }\n",
        "src/eval/bad_mint.cpp":
            "#include \"obs/trace_context.hpp\"\n"
            "nocw::obs::TraceContext mint() {\n"
            "  return nocw::obs::TraceContext{1, 2, 3};\n"
            "}\n",
        "src/eval/bad_slo.cpp":
            "#include \"obs/slo.hpp\"\n"
            "unsigned long align(unsigned long cycle) {\n"
            "  return nocw::obs::slo_window_start(cycle, 4096);\n"
            "}\n",
        "bench/bad_slo_bench.cpp":
            "#include \"obs/slo.hpp\"\n"
            "unsigned long w(unsigned long c) {\n"
            "  return nocw::obs::slo_window_start(c, 1000);\n"
            "}\n",
    }
    clean = {
        "src/power/good.hpp":
            "struct U {\n"
            "  double read_energy_pj = 1.0;\n"
            "  double leakage_mw = 0.5;\n"
            "  double memory_cycles = 0.0;\n"
            "  double dram_efficiency = 0.7;\n"
            "  double bit_flip_probability = 0.0;\n"
            "  double flip_probability_ = 0.0;\n"
            "  double seconds = 0.0;\n"
            "};\n",
        "src/noc/fault.cpp":
            "// the one place sampling may live\n"
            "unsigned long fault_hash(unsigned long s, unsigned long a,\n"
            "                         unsigned long b, unsigned long c);\n"
            "unsigned long use() { return fault_hash(1, 2, 3, 4); }\n",
        "src/util/good.cpp":
            "// rand() in a comment is fine; \"std::cout\" only here\n"
            "static_assert(sizeof(int) == 4);\n",
        "src/obs/good_metric.cpp":
            "#include \"obs/registry.hpp\"\n"
            "void g(nocw::obs::Registry& r, double v) {\n"
            "  r.observe(base + \"packet_latency\",\n"
            "            \"cycles\", v);\n"
            "  r.set_counter(\"noc.flits_injected\", \"flits\", 1);\n"
            "}\n",
        "bench/bench_util.cpp":
            "#include <cstdio>\n"
            "void emit() { std::printf(\"== table ==\\n\"); }\n",
        "bench/good_progress.cpp":
            "#include \"obs/log.hpp\"\n"
            "#include <cstdio>\n"
            "void p(std::FILE* f) {\n"
            "  nocw::obs::log(\"working...\\n\");\n"
            "  std::fprintf(f, \"{}\\n\");\n"
            "}\n",
        "bench/good_manifest.cpp":
            "#include \"bench_util.hpp\"\n"
            "int main(int, char** argv) {\n"
            "  const std::string dir = nocw::bench::output_dir(argv[0]);\n"
            "  nocw::bench::write_summary(dir, \"good\", {{\"x\", 1.0}});\n"
            "  return 0;\n"
            "}\n",
        "src/noc/router.cpp":
            "#include \"noc/routing.hpp\"\n"
            "// the DOR fallback path may compute next hops directly\n"
            "int fallback(const nocw::noc::NocConfig& c, int id, int dst) {\n"
            "  return nocw::noc::dor_next_hop(c, id, dst);\n"
            "}\n",
        "src/serve/serve_sim.cpp":
            "#include \"accel/simulator.hpp\"\n"
            "// the audited driver path may run the accelerator\n"
            "double profile(const nocw::accel::AcceleratorSim& sim,\n"
            "               const nocw::accel::ModelSummary& s) {\n"
            "  return sim.simulate(s).latency.total().value();\n"
            "}\n",
        "src/serve/good_sched.cpp":
            "// simulate() in a comment is fine; profiles are the API\n"
            "unsigned long cost(unsigned long full_cycles) {\n"
            "  return full_cycles;\n"
            "}\n",
        "src/serve/trace_ids.cpp":
            "#include \"obs/trace_context.hpp\"\n"
            "// the one sanctioned root mint may assemble a context\n"
            "nocw::obs::TraceContext request_trace_context(\n"
            "    unsigned long seed, unsigned long request_id) {\n"
            "  nocw::obs::TraceContext ctx;\n"
            "  ctx.trace_id = seed ^ request_id;\n"
            "  return ctx;\n"
            "}\n",
        "src/obs/trace.cpp":
            "#include \"obs/trace.hpp\"\n"
            "// stamping attribution onto emitted events is plumbing\n"
            "void stamp(nocw::obs::TraceEvent& ev, unsigned long id) {\n"
            "  ev.trace_id = id;\n"
            "}\n",
        "src/obs/slo.cpp":
            "#include \"obs/slo.hpp\"\n"
            "// the alignment primitive lives (and is used) here\n"
            "unsigned long open_window(unsigned long cycle) {\n"
            "  return nocw::obs::slo_window_start(cycle, 4096);\n"
            "}\n",
        "src/eval/good_span.cpp":
            "#include \"obs/trace_context.hpp\"\n"
            "// ScopedTraceContext and derive_child are the sanctioned API\n"
            "nocw::obs::TraceContext child(\n"
            "    const nocw::obs::TraceContext& parent) {\n"
            "  return nocw::obs::derive_child(parent, 2);\n"
            "}\n",
    }
    expected_rules = {
        "src/power/bad_units.hpp": "[units]",
        "src/nn/bad_rng.cpp": "[rng]",
        "src/core/bad_rng2.cpp": "[rng]",
        "src/eval/bad_print.cpp": "[iostream]",
        "src/noc/bad_assert.cpp": "[assert]",
        "src/eval/bad_fault.cpp": "[fault]",
        "src/eval/bad_metric.cpp": "[metric]",
        "bench/bad_progress.cpp": "[print]",
        "bench/bad_manifest.cpp": "[manifest]",
        "src/accel/bad_route.cpp": "[route]",
        "src/serve/bad_sim.cpp": "[serve]",
        "src/noc/bad_traceid.cpp": "[trace-ctx]",
        "src/eval/bad_mint.cpp": "[trace-ctx]",
        "src/eval/bad_slo.cpp": "[slo]",
        "bench/bad_slo_bench.cpp": "[slo]",
    }

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for rel, content in {**seeded, **clean}.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(content, encoding="utf-8")
        findings = lint_tree(root)

        failures = []
        # bad_units.hpp seeds two violations on one rule.
        units_hits = [f for f in findings if f.startswith(
            "src/power/bad_units.hpp")]
        if len(units_hits) != 2:
            failures.append(
                f"expected 2 [units] findings in bad_units.hpp, got "
                f"{len(units_hits)}")
        for rel, rule in expected_rules.items():
            if not any(f.startswith(rel) and rule in f for f in findings):
                failures.append(f"rule {rule} did not fire on {rel}")
        for rel in clean:
            hits = [f for f in findings if f.startswith(rel)]
            if hits:
                failures.append(f"false positive on clean file {rel}: {hits}")

        if failures:
            print("lint self-test FAILED:")
            for f in failures:
                print(f"  {f}")
            return 1
        print(f"lint self-test passed: {len(findings)} seeded violations "
              f"flagged, 0 false positives")
        return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root.resolve())
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} violation(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
