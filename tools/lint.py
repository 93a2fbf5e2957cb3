#!/usr/bin/env python3
"""Static checks for the rules behind the Fig. 10 numbers that the compiler
cannot see: unit discipline around the pJ/J energy model, single-seed
determinism, and the few call sites each subsystem is allowed to use.

Every rule is one row of RULES (id, regex, path scope, allowed files,
message; the message says what the rule protects). All rules run over the
comment- and string-blanked text of the C++ files under src/, bench/, tests/
and examples/:

  units.field / .vocab / .value-launder   unit suffixes on bare float
      fields, the closed unit vocabulary, raw `.value()` arithmetic
  determinism.rng / .clock / .unordered / .fault-hash   seeded randomness,
      no wall clock in src/, ordered exports, fault sampling in noc/fault
  contracts.assert / .scale-factor   NOCW_CHECK* instead of assert(), named
      unit conversions instead of inline 1eN factors
  print, manifest, route, serve, trace-ctx, slo   the one sanctioned site for
      printing, bench registration, next hops, accelerator calls from
      serving, trace-id minting and SLO window alignment
  host   wall-clock times, rates and speed-ups go in a bench's host map,
      never its metrics map, which the regression gate matches exactly

Suppression: a finding is dropped when its line, or the line above, carries
`// nocw-analyze: allow(<id or prefix>)`, e.g. allow(units.value-launder) or
allow(units). Suppress only where the raw form is the correct one, and say
why in the surrounding comment.

Usage:
  tools/lint.py [--root DIR]   check the tree rooted at DIR (default: the
                               repository containing this script)
  tools/lint.py --self-test    every rule fires on its seeded fixtures and
                               stays quiet on the clean ones

Exit status: 0 clean, 1 findings (or self-test failure), 2 when
<root>/src/util/units_vocab.inc is missing or lists no unit.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import subprocess
import sys
import tempfile
from collections.abc import Callable

SCAN_DIRS = ("src", "bench", "tests", "examples")
CXX_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
ALL = tuple(d + "/" for d in SCAN_DIRS)
VOCAB_FILE = "src/util/units_vocab.inc"

UNIT_SUFFIXES = (
    "_pj", "_j", "_mw", "_w", "_ghz", "_hz", "_cycles", "_seconds", "_s",
    "_bits", "_bytes", "_flits",
)
DIMENSIONLESS_SUFFIXES = (
    "_efficiency", "_ratio", "_scale", "_factor", "_fraction", "_share",
    "_utilization", "_probability",
)
EXACT_UNIT_NAMES = {"cycles", "seconds"}
ENERGY_SUFFIXES = ("_j", "_pj", "_mw", "_w", "_joules", "_watts")
UNITS_DIRS = ("src/power/", "src/noc/", "src/accel/")

NOCW_UNIT_RE = re.compile(r"^\s*NOCW_UNIT\((\w+)\)", re.M)
SUPPRESS_RE = re.compile(r"//.*?nocw-analyze:\s*allow\(([\w.,\s-]+)\)")
WRITE_SUMMARY_RE = re.compile(r"\bwrite_summary\s*\(")
HOST_KEY_SUFFIXES = ("_ms", "_ns", "seconds", "gflops", "speedup")
# A comment, or a string or character literal up to its closing quote or the
# line's end. A quote after a word character is a digit separator (10'000).
LEXEME_RE = re.compile(r"//[^\n]*|/\*.*?(?:\*/|\Z)|\"(?:\\.|[^\"\\\n])*\"?"
                       r"|(?<!\w)'(?:\\.|[^'\\\n])*'?", re.S)


class VocabError(Exception):
    """The tree has no usable unit vocabulary."""


@dataclasses.dataclass
class Source:
    rel: str
    text: str  # comments and literal contents blanked; same offsets
    vocab: frozenset[str]


def field_bad(f: Source, groups: tuple[str, ...]) -> bool:
    # Private members carry a trailing underscore (`flip_probability_`);
    # units are judged on the semantic name.
    name = groups[0].rstrip("_")
    if not f.rel.endswith((".hpp", ".h")):
        return False
    if name.endswith(ENERGY_SUFFIXES):
        return True
    return (f.rel.startswith(UNITS_DIRS) and name not in EXACT_UNIT_NAMES
            and not name.endswith(UNIT_SUFFIXES + DIMENSIONLESS_SUFFIXES))


def host_key_bad(f: Source, groups: tuple[str, ...]) -> bool:
    # The key ends with the subscript's last string literal:
    # `metrics["dense_ms"]`, `metrics[key + "seconds"]`.
    literals = re.findall(r'"((?:\\.|[^"\\])*)"', groups[0])
    return bool(literals) and literals[-1].endswith(HOST_KEY_SUFFIXES)


@dataclasses.dataclass(frozen=True)
class Rule:
    id: str
    regex: re.Pattern[str]
    scope: tuple[str, ...]     # path prefixes the rule applies to
    allowed: tuple[str, ...]   # files exempt from it
    message: str               # formatted with the match's groups
    # Decides a match from its groups, read from the unblanked source.
    bad: Callable[[Source, tuple[str, ...]], bool] = lambda f, g: True


RULES = (
    # `double name;` or `double name = ...;` at the start of a line: a field
    # or namespace-scope declaration (parameters never start a line here).
    Rule("units.field",
         re.compile(r"^[ \t]*(?:double|float)[ \t]+(\w+)[ \t]*"
                    r"(?:=[^;(\n]*)?;", re.M),
         ("src/",), (),
         "float field '{0}' needs its unit: an energy/power suffix (_j, _pj, "
         "_mw, _w, _joules, _watts) asks for a units:: quantity, and in "
         "src/power, src/noc and src/accel a bare double names its unit "
         f"({', '.join(UNIT_SUFFIXES)}) or says it is dimensionless "
         f"({', '.join(DIMENSIONLESS_SUFFIXES)}); an unlabelled unit is how "
         "a pJ/J mix-up reaches the Fig. 10 joules",
         field_bad),
    # The name argument may span lines and hold one level of parentheses;
    # the typed append takes no string unit and so never matches.
    Rule("units.vocab",
         re.compile(r"\bappend"
                    r"\s*\(\s*(?:[^,;()]|\([^;()]*\))*?,\s*\"([^\"]*)\""),
         ALL, (),
         "unit '{0}' is not in src/util/units_vocab.inc; the vocabulary is "
         "closed so exported series stay comparable (or use the typed "
         "append and no string at all)",
         lambda f, g: g[0] not in f.vocab),
    Rule("units.value-launder",
         re.compile(r"\.value\(\)\s*[-+]\s*[\w.:>\[\]()-]*?\.value\(\)"),
         ALL, ("src/util/units.hpp",),
         "arithmetic between two .value() escapes skips the typed operators' "
         "dimension check; add/subtract the quantities themselves (or "
         "suppress where mixing is the intent)"),
    Rule("determinism.rng",
         re.compile(r"\b(?:rand|srand)\s*\(|std::random_device"),
         ALL, ("src/util/rng.hpp",),
         "rand()/srand()/std::random_device outside util/rng.hpp breaks "
         "single-seed reproducibility"),
    Rule("determinism.clock",
         re.compile(r"std::chrono::(?:steady_clock|system_clock|"
                    r"high_resolution_clock)|\btime\s*\(\s*(?:nullptr|NULL|0)"
                    r"\s*\)|\bclock\s*\(\s*\)"),
         ("src/",), (),
         "wall-clock read in library code; wall time belongs in bench "
         "drivers and must never feed simulation state"),
    Rule("determinism.unordered",
         re.compile(r"std::unordered_(?:map|set|multimap|multiset)"),
         ("src/obs/", "src/eval/"), (),
         "unordered container in an export/aggregation layer; iteration "
         "order reaches serialized artifacts, so use std::map or a sorted "
         "vector"),
    Rule("determinism.fault-hash",
         re.compile(r"\bfault_hash\s*\("),
         ALL, ("src/noc/fault.cpp", "src/noc/fault.hpp",
               "tests/noc/fault_test.cpp"),
         "fault_hash() outside noc/fault.{cpp,hpp}; sample faults through "
         "FaultModel / corrupt_bits so fault experiments replay from one "
         "seed at any thread count"),
    Rule("contracts.assert",
         re.compile(r"\bassert\s*\("),
         ALL, ("src/util/check.hpp",),
         "naked assert(); use NOCW_CHECK* from util/check.hpp"),
    # `Joules{x * 1e-12}`: a power-of-ten factor inside the constructor. A
    # plain literal magnitude (`Seconds{1e-6}`) is fine.
    Rule("contracts.scale-factor",
         re.compile(r"\b(?:Joules|Watts|Seconds|Picojoules|Milliwatts)\s*\{"
                    r"[^{}]*(?:[*/]\s*1e-?\d+|\b1e-?\d+\s*[*/])"),
         ALL, ("src/util/units.hpp",),
         "quantity constructed with an inline power-of-ten factor; scale "
         "changes go through the named conversions in units.hpp (to_joules, "
         "to_watts, seconds_at) so each factor exists in one audited place"),
    Rule("print",
         re.compile(r"std::printf|std::cout"),
         ("src/", "bench/"), ("bench/bench_util.cpp",),
         "std::cout/std::printf outside bench_util.cpp; library code returns "
         "values, bench progress lines go through obs::log() (NOCW_QUIET-"
         "aware) and tables through bench::emit"),
    Rule("manifest",
         re.compile(r"^\s*int\s+main\s*\(", re.M),
         ("bench/",), ("bench/bench_util.cpp",),
         "bench driver never calls bench::write_summary; every bench must "
         "register with BENCH_summary.json so the regression gate "
         "(tools/obs_diff.py) covers it",
         lambda f, g: not WRITE_SUMMARY_RE.search(f.text)),
    Rule("host",
         re.compile(r"\bmetrics\s*\[([^\];{}]*)\]"),
         ("bench/",), (),
         "host-dependent key [{0}] written into a metrics map; wall-clock "
         "times, rates and speed-ups go in the manifest's host map, which "
         "the regression gate reports without gating, so that every metric "
         "can match its baseline exactly",
         host_key_bad),
    Rule("route",
         re.compile(r"\bdor_next_hop\s*\("),
         ("src/",), ("src/noc/routing.cpp", "src/noc/routing.hpp",
                     "src/noc/lane_store.cpp"),
         "dor_next_hop() outside noc/routing (+ lane_store.cpp); next hops "
         "come from the RouteTable so quarantined links/routers are honored "
         "everywhere"),
    Rule("serve",
         re.compile(r"(?:\.|->)\s*simulate(?:_layer)?\s*\("),
         ("src/serve/",), ("src/serve/serve_sim.cpp",),
         "direct AcceleratorSim simulate call outside the ServeSim driver; "
         "serving code consults the precomputed ServiceProfiles so request "
         "timing stays on the one audited accelerator path"),
    # Aggregate init (`TraceContext{...}`, `TraceContext ctx{...}`, which
    # also matches the struct definition in an allowed file) or a raw
    # trace-id write.
    Rule("trace-ctx",
         re.compile(r"\bTraceContext\s*\w*\s*\{|\.trace_id\s*=(?!=)"),
         ("src/", "bench/"), ("src/obs/trace_context.hpp",
                              "src/obs/trace_context.cpp", "src/obs/trace.cpp",
                              "src/serve/trace_ids.cpp"),
         "TraceContext construction / raw trace_id write outside the trace "
         "plumbing; mint roots with serve::request_trace_context and derive "
         "children with obs::derive_child so span ids stay a pure function "
         "of the trace seed"),
    Rule("slo",
         re.compile(r"\bslo_window_start\s*\("),
         ("src/", "bench/"), ("src/obs/slo.hpp", "src/obs/slo.cpp"),
         "slo_window_start() outside obs/slo; one tumbling alignment keeps "
         "windows, burn rates and exemplar pins mutually consistent"),
)


def strip(text: str) -> str:
    """Blank comments and the contents of string and character literals,
    keeping every offset, newline and quote: a match in the result sits on
    the same line and columns as in the source."""
    def blank(m: re.Match[str]) -> str:
        s = m.group()
        if s[0] not in "\"'":
            return re.sub(r"[^\n]", " ", s)
        closed = len(s) > 1 and s[-1] == s[0]
        body = s[1:-1] if closed else s[1:]
        return s[0] + re.sub(r"[^\n]", " ", body) + (s[0] if closed else "")
    return LEXEME_RE.sub(blank, text)


def load_vocab(root: pathlib.Path) -> frozenset[str]:
    """The closed unit vocabulary, from the X-macro list units.hpp compiles
    in, so this check cannot drift from the library."""
    try:
        units = NOCW_UNIT_RE.findall((root / VOCAB_FILE).read_text("utf-8"))
    except OSError as e:
        raise VocabError(f"cannot read {VOCAB_FILE}: {e.strerror}") from e
    if not units:
        raise VocabError(f"{VOCAB_FILE} lists no NOCW_UNIT(...) line")
    return frozenset(units)


def allows(original: str) -> dict[int, set[str]]:
    """Line number -> rule ids or id prefixes allowed on it."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(original.splitlines(), start=1):
        if m := SUPPRESS_RE.search(line):
            out[lineno] = {k.strip() for k in m.group(1).split(",")}
    return out


def lint_file(rel: str, original: str,
              vocab: frozenset[str]) -> list[tuple[str, int, str, str]]:
    """(file, line, rule id, message) for each finding in one file."""
    f = Source(rel, strip(original), vocab)
    allowed = allows(original) if "nocw-analyze" in original else {}
    findings = []
    for rule in RULES:
        if not rel.startswith(rule.scope) or rel in rule.allowed:
            continue
        for m in rule.regex.finditer(f.text):
            groups = tuple(original[m.start(k):m.end(k)]
                           for k in range(1, rule.regex.groups + 1))
            if not rule.bad(f, groups):
                continue
            line = f.text.count("\n", 0, m.start()) + 1
            keys = allowed.get(line, set()) | allowed.get(line - 1, set())
            if any(rule.id == k or rule.id.startswith(k + ".") for k in keys):
                continue
            message = rule.message.format(*groups) if groups else rule.message
            findings.append((rel, line, rule.id, message))
    return findings


def lint_tree(root: pathlib.Path) -> list[tuple[str, int, str, str]]:
    vocab = load_vocab(root)
    findings = []
    for d in SCAN_DIRS:
        for path in sorted((root / d).rglob("*")):
            if path.suffix in CXX_SUFFIXES:
                rel = path.relative_to(root).as_posix()
                findings += lint_file(rel, path.read_text("utf-8"), vocab)
    return findings


# Self-test: every rule flags exactly its seeded lines, the clean fixtures
# stay quiet, and a rule without a seeded fixture fails the test.

SELF_TEST_VOCAB = "".join(f"NOCW_UNIT({u})\n"
                          for u in ("cycles", "joules", "flits", "count"))

# Fixture trees: each `=== <file> [<rule id> <flagged line>...]` header is
# followed by that file's content. A seeded file must be flagged on exactly
# the listed lines by exactly that rule; a clean file (no rule id) on none.
SEEDED = r"""
=== src/power/bad_units.hpp units.field 2 3 4 5
struct T {
  double latency;
  double energy = 0.0;
  double dynamic_j = 0.0;
  double leak_mw;
};
=== src/eval/bad_metric.cpp units.vocab 3
#include "obs/timeseries.hpp"
void f(nocw::obs::TimeSeriesSet& s) {
  s.append("x.energy", "femtojoules", 0, 1.0);
}
=== src/obs/bad_series.cpp units.vocab 2 3
void f(nocw::obs::TimeSeriesSet& s) {
  s.append("noc.occupancy", "furlongs", 10, 1.0);
  s.append(prefix("noc.") + "hops", "leagues", 20, 2.0);
}
=== src/accel/bad_launder.cpp units.value-launder 3
#include "util/units.hpp"
double f(nocw::units::Cycles a, nocw::units::Joules b) {
  return a.value() + b.value();
}
=== src/nn/bad_rng.cpp determinism.rng 2 3 4 5
#include <random>
int f() { return rand(); }
std::random_device rd;
bool q(char c) { return c == '"' && rand(); }
unsigned long n = 1'000; int r = rand();
=== src/core/bad_clock.cpp determinism.clock 2
#include <chrono>
long f() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
=== src/obs/bad_unordered.hpp determinism.unordered 2
#include <unordered_map>
struct E { std::unordered_map<int, double> by_id; };
=== src/eval/bad_fault.cpp determinism.fault-hash 2
#include "noc/fault.hpp"
unsigned long h() { return nocw::noc::fault_hash(1, 2, 3, 4); }
=== src/noc/bad_assert.cpp contracts.assert 2
#include <cassert>
void g(int x) { assert(x > 0); }
=== src/power/bad_scale.cpp contracts.scale-factor 3
#include "util/units.hpp"
nocw::units::Joules f(double pj) {
  return nocw::units::Joules{pj * 1e-12};
}
=== src/eval/bad_print.cpp print 2
#include <iostream>
void p() { std::cout << 1; }
=== bench/bad_progress.cpp print 2
#include <cstdio>
void p() { std::printf("working...\n"); }
=== bench/bad_manifest.cpp manifest 2
#include "bench_util.hpp"
int main(int, char** argv) {
  (void)nocw::bench::output_dir(argv[0]);
  return 0;
}
=== bench/bad_host_metric.cpp host 3 5
#include "bench_util.hpp"
void f(nocw::obs::RunManifest& man, const std::string& key, double s) {
  man.metrics["dense_ms"] = s;
  man.metrics["latency_cycles"] = s;
  man.metrics[key + "seconds"] =
      s;
}
=== src/accel/bad_route.cpp route 3
#include "noc/routing.hpp"
int hop(const nocw::noc::NocConfig& c) {
  return nocw::noc::dor_next_hop(c, 0, 15);
}
=== src/serve/bad_sim.cpp serve 4
#include "accel/simulator.hpp"
double cost(const nocw::accel::AcceleratorSim& sim,
            const nocw::accel::ModelSummary& s) {
  return sim.simulate(s).latency.total().value();
}
=== src/noc/bad_traceid.cpp trace-ctx 2
#include "obs/trace.hpp"
void forge(nocw::obs::TraceEvent& ev) { ev.trace_id = 7; }
=== src/eval/bad_mint.cpp trace-ctx 3
#include "obs/trace_context.hpp"
nocw::obs::TraceContext mint() {
  return nocw::obs::TraceContext{1, 2, 3};
}
=== src/eval/bad_slo.cpp slo 3
#include "obs/slo.hpp"
unsigned long align(unsigned long cycle) {
  return nocw::obs::slo_window_start(cycle, 4096);
}
=== bench/bad_slo_bench.cpp slo 3
#include "obs/slo.hpp"
unsigned long w(unsigned long c) {
  return nocw::obs::slo_window_start(c, 1000);
}
"""

CLEAN = r"""
=== src/power/good.hpp
#include "util/units.hpp"
struct U {
  nocw::units::Joules dynamic_j;
  double link_bits = 64.0;
  double clock_ghz = 1.0;
  double memory_cycles = 0.0;
  double dram_efficiency = 0.7;
  double bit_flip_probability = 0.0;
  double flip_probability_ = 0.0;
  double seconds = 0.0;
};
=== src/obs/good_metric.cpp
#include "obs/timeseries.hpp"
void g(nocw::obs::TimeSeriesSet& s, double v) {
  s.append(base + "packet_latency",
           "cycles", 0, v);
  s.append("noc.flits_injected", "flits", 0, 1.0);
  s.append("x.energy", 0, nocw::units::Joules{1.0});
  // s.append("x.energy", "femtojoules", 0, 1.0);
  /* s.append("x.hops",
              "leagues", 0, 2.0); */
}
=== src/accel/good_typed.cpp
#include "util/units.hpp"
nocw::units::Cycles f(nocw::units::Cycles a, nocw::units::Cycles b) {
  return a + b;  // typed add; .value() + literal is also fine
}
double g(nocw::units::Flits x) { return x.value() + 1.0; }
=== src/accel/suppressed_launder.cpp
#include "util/units.hpp"
double f(nocw::units::Flits a, nocw::units::Words b) {
  // flit+word sum is a dimensionless event count here
  // nocw-analyze: allow(units.value-launder)
  return a.value() + b.value();
}
=== src/nn/suppressed_rng.cpp
// the legacy draw is the subject here  nocw-analyze: allow(determinism)
int f() { return rand(); }
int g() { return srand(1), 0; }  // nocw-analyze: allow(determinism.rng)
=== src/util/good_comment.cpp
// rand() and assert( and std::chrono::steady_clock in a comment
// rand() in a comment is fine; "std::cout" only here
static_assert(sizeof(int) == 4);
const char* s = "std::random_device in a string";
const char* k = "std::cout rand() assert(x) fault_hash(1)"
                " dor_next_hop(c) slo_window_start(0) x.trace_id = 1"
                " std::chrono::steady_clock Joules{x * 1e-12}";
const char q = '\'';
=== src/noc/fault.cpp
// the one place sampling may live
unsigned long fault_hash(unsigned long s, unsigned long a,
                         unsigned long b, unsigned long c);
unsigned long use() { return fault_hash(1, 2, 3, 4); }
=== src/noc/lane_store.cpp
#include "noc/routing.hpp"
// the lane store builds its DOR route table directly
int fallback(const nocw::noc::NocConfig& c, int id, int dst) {
  return nocw::noc::dor_next_hop(c, id, dst);
}
=== src/serve/serve_sim.cpp
#include "accel/simulator.hpp"
// the audited driver path may run the accelerator
double profile(const nocw::accel::AcceleratorSim& sim,
               const nocw::accel::ModelSummary& s) {
  return sim.simulate(s).latency.total().value();
}
=== src/serve/good_sched.cpp
// simulate() in a comment is fine; profiles are the API
unsigned long cost(unsigned long full_cycles) {
  return full_cycles;
}
=== src/serve/trace_ids.cpp
#include "obs/trace_context.hpp"
// the one sanctioned root mint may assemble a context
nocw::obs::TraceContext request_trace_context(
    unsigned long seed, unsigned long request_id) {
  nocw::obs::TraceContext ctx;
  ctx.trace_id = seed ^ request_id;
  return ctx;
}
=== src/obs/trace.cpp
#include "obs/trace.hpp"
// stamping attribution onto emitted events is plumbing
void stamp(nocw::obs::TraceEvent& ev, unsigned long id) {
  ev.trace_id = id;
}
=== src/obs/slo.cpp
#include "obs/slo.hpp"
// the alignment primitive lives (and is used) here
unsigned long open_window(unsigned long cycle) {
  return nocw::obs::slo_window_start(cycle, 4096);
}
=== src/eval/good_span.cpp
#include "obs/trace_context.hpp"
// ScopedTraceContext and derive_child are the sanctioned API
nocw::obs::TraceContext child(
    const nocw::obs::TraceContext& parent) {
  return nocw::obs::derive_child(parent, 2);
}
=== bench/bench_util.cpp
#include <cstdio>
void emit() { std::printf("== table ==\n"); }
=== bench/good_progress.cpp
#include "obs/log.hpp"
#include <cstdio>
void p(std::FILE* f) {
  nocw::obs::log("working...\n");
  std::fprintf(f, "{}\n");
}
=== bench/good_manifest.cpp
#include "bench_util.hpp"
int main(int, char** argv) {
  const std::string dir = nocw::bench::output_dir(argv[0]);
  nocw::bench::write_summary(dir, "good", {{"x", 1.0}});
  return 0;
}
=== bench/good_host_metric.cpp
#include "bench_util.hpp"
void f(nocw::obs::RunManifest& man, const std::string& key, double s) {
  man.host["dense_ms"] = s;
  man.host[key + "gflops"] = s;
  man.metrics[key + "flops"] = s;
  man.metrics["speedup_cycles"] = s;  // metrics["x_ms"] in a comment
}
=== bench/good_clock.cpp
#include <chrono>
long wall_ms() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
"""


def parse_fixtures(spec: str) -> list[tuple[str, str, set[int], str]]:
    """(file, rule id or "", flagged lines, content) per fixture."""
    out = []
    for chunk in spec.split("\n=== ")[1:]:
        header, _, body = chunk.partition("\n")
        rel, *expect = header.split()
        out.append((rel, expect[0] if expect else "",
                    {int(n) for n in expect[1:]}, body + "\n"))
    return out


def write_tree(root: pathlib.Path, files: dict[str, str]) -> None:
    for rel, content in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content, encoding="utf-8")


def self_test() -> int:
    fixtures = parse_fixtures(SEEDED) + parse_fixtures(CLEAN)
    failures = []
    unseeded = {r.id for r in RULES} - {rule for _, rule, _, _ in fixtures}
    failures += [f"rule {r} has no seeded fixture" for r in sorted(unseeded)]
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        write_tree(root, {VOCAB_FILE: SELF_TEST_VOCAB,
                          **{rel: body for rel, _, _, body in fixtures}})
        findings = lint_tree(root)
        got: dict[str, set[tuple[str, int]]] = {}
        for rel, line, rule, _ in findings:
            got.setdefault(rel, set()).add((rule, line))
        for rel, rule, lines, _ in fixtures:
            want, have = {(rule, n) for n in lines}, got.get(rel, set())
            if have != want:
                failures.append(f"{rel}: expected {sorted(want)}, got "
                                f"{sorted(have)}")

    # A tree without a unit vocabulary is an error, not a silent pass.
    for vocab in ({}, {VOCAB_FILE: "// no units\n"}):
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(pathlib.Path(tmp), {"src/a.cpp": "int x;\n", **vocab})
            rc = subprocess.run([sys.executable, __file__, "--root", tmp],
                                capture_output=True, check=False).returncode
            if rc != 2:
                state = "empty" if vocab else "missing"
                failures.append(f"vocabulary {state}: exit {rc}, expected 2")

    if failures:
        print("lint self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"lint self-test passed: {len(RULES)} rules, {len(findings)} "
          f"seeded findings in {len(fixtures)} fixtures, a tree without a "
          f"vocabulary exits 2")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    try:
        findings = lint_tree(args.root.resolve())
    except VocabError as e:
        print(f"lint: {e}")
        return 2
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: [{rule}] {message}")
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
