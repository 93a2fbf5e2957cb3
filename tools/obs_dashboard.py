#!/usr/bin/env python3
"""Render a self-contained HTML dashboard from the observability artifacts.

Inputs (both optional — the dashboard renders whatever is available):

  --timeseries timeseries_lenet5.json   schema nocw.timeseries.v1, written
                                        by bench/ext_timeseries (sampled
                                        DRAM/MAC/decompress activity and
                                        NoC flit/queue series over cycles)
  --summary BENCH_summary.json          schema nocw.bench_summary.v1, the
                                        merged per-bench metric map written
                                        by every bench through bench_util
  --slo results/slo_windows.json        schema nocw.slo.v1, the per-window
                                        SLO verdicts + burn rates written
                                        by bench/ext_reqtrace

Output is ONE html file with inline SVG — no JavaScript, no external
assets, so it survives as a CI artifact and opens anywhere:

  1. Phase timeline: horizontal extent bars for each accel.* series
     (DRAM streaming, MAC activity, weight decompression) over the cycle
     axis, showing how the phases of each layer overlap.
  2. Utilization over cycles: every series as a polyline, each normalized
     to its own peak (units differ), with the peak printed in the legend.
  3. δ-trade-off curves: δ (%) vs latency, energy and accuracy per model,
     built from fig10_tradeoff's "<model>.d<delta>.*" summary metrics.
  4. Serving load sweep: p50/p99/p99.9 latency percentiles and goodput per
     scheduler, plus (with --slo) the SLO burn-rate panel and a
     breached-window table whose exemplar trace ids link into the
     nocw.reqtrace.v1 export.
  5. A bench summary table (model, git short-sha, wall seconds from the
     bench's host wall_ms value, #metrics, trace-sampling drop counters).

Usage:
  tools/obs_dashboard.py --timeseries TS.json --summary SUMMARY.json \\
                         -o dashboard.html
  tools/obs_dashboard.py --self-test

Exit status: 0 on success (including nothing-to-render), 1 on self-test
failure, 2 on unreadable/invalid input.
"""

from __future__ import annotations

import argparse
import html
import json
import pathlib
import re
import sys

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f"]

DELTA_KEY_RE = re.compile(r"^(?P<model>.+)\.d(?P<delta>\d+)\."
                          r"(?P<metric>latency_cycles|energy_j|accuracy)$")

# ext_serving's grid keys: "<scheduler>.l<load%>.<metric>", e.g.
# "sjf.l120.p99_cycles" is SJF at 1.2x capacity.
SERVING_KEY_RE = re.compile(
    r"^(?P<sched>[a-z_]+)\.l(?P<load>\d+)\."
    r"(?P<metric>p50_cycles|p99_cycles|p999_cycles|goodput_rps)$")

# Trace-sampling drop accounting published by ext_reqtrace: per-point
# "<sched>.l<load%>.dropped_trees" plus the global exemplar_drops.
TRACE_DROP_KEY_RE = re.compile(r"(^|\.)(dropped_trees|exemplar_drops)$")


def fmt(v: float) -> str:
    return f"{v:g}"


# --- tiny SVG builder -------------------------------------------------------

class Chart:
    """A fixed-size line chart with linear axes and 5-tick labels."""

    W, H = 640, 280
    ML, MR, MT, MB = 70, 20, 24, 40  # margins

    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.lines: list[tuple[str, str, list[tuple[float, float]]]] = []

    def add_line(self, name: str, color: str,
                 pts: list[tuple[float, float]]) -> None:
        if pts:
            self.lines.append((name, color, pts))

    def _ranges(self):
        xs = [x for _, _, pts in self.lines for x, _ in pts]
        ys = [y for _, _, pts in self.lines for _, y in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + (abs(y0) or 1.0)
        return x0, x1, y0, y1

    def render(self) -> str:
        if not self.lines:
            return ""
        x0, x1, y0, y1 = self._ranges()
        pw = self.W - self.ML - self.MR
        ph = self.H - self.MT - self.MB

        def sx(x: float) -> float:
            return self.ML + (x - x0) / (x1 - x0) * pw

        def sy(y: float) -> float:
            return self.MT + ph - (y - y0) / (y1 - y0) * ph

        out = [f'<svg viewBox="0 0 {self.W} {self.H}" width="{self.W}" '
               f'height="{self.H}" role="img">',
               f'<text x="{self.W / 2}" y="14" text-anchor="middle" '
               f'class="title">{html.escape(self.title)}</text>']
        # Axes + ticks.
        out.append(f'<rect x="{self.ML}" y="{self.MT}" width="{pw}" '
                   f'height="{ph}" class="frame"/>')
        for i in range(5):
            xt = x0 + (x1 - x0) * i / 4
            yt = y0 + (y1 - y0) * i / 4
            out.append(f'<line x1="{sx(xt):.1f}" y1="{self.MT + ph}" '
                       f'x2="{sx(xt):.1f}" y2="{self.MT + ph + 4}" '
                       f'class="tick"/>')
            out.append(f'<text x="{sx(xt):.1f}" y="{self.MT + ph + 16}" '
                       f'text-anchor="middle" class="lbl">{fmt(xt)}</text>')
            out.append(f'<text x="{self.ML - 6}" y="{sy(yt) + 3:.1f}" '
                       f'text-anchor="end" class="lbl">{fmt(yt)}</text>')
        out.append(f'<text x="{self.ML + pw / 2}" y="{self.H - 6}" '
                   f'text-anchor="middle" class="lbl">'
                   f'{html.escape(self.xlabel)}</text>')
        out.append(f'<text x="12" y="{self.MT + ph / 2}" class="lbl" '
                   f'text-anchor="middle" transform="rotate(-90 12 '
                   f'{self.MT + ph / 2})">{html.escape(self.ylabel)}</text>')
        # Data.
        for name, color, pts in self.lines:
            coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5">'
                       f'<title>{html.escape(name)}</title></polyline>')
            for x, y in pts:
                out.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
                           f'r="2" fill="{color}"/>')
        out.append("</svg>")
        # Legend under the chart.
        legend = "".join(
            f'<span class="key"><span class="swatch" '
            f'style="background:{color}"></span>{html.escape(name)}</span>'
            for name, color, _ in self.lines)
        return "".join(out) + f'<div class="legend">{legend}</div>'


def phase_timeline(series: list[dict]) -> str:
    """Horizontal extent bars for the accel.* phase series."""
    phases = [s for s in series if s["name"].startswith("accel.")
              and s["points"]]
    if not phases:
        return ""
    cyc_max = max(p[0] for s in phases for p in s["points"])
    W, ML, MR, ROW = 640, 170, 20, 26
    pw = W - ML - MR
    H = 30 + ROW * len(phases) + 22
    out = [f'<svg viewBox="0 0 {W} {H}" width="{W}" height="{H}" '
           f'role="img">',
           f'<text x="{W / 2}" y="14" text-anchor="middle" class="title">'
           f'Phase timeline (cycle extents)</text>']
    for i, s in enumerate(phases):
        c0 = min(p[0] for p in s["points"])
        c1 = max(p[0] for p in s["points"])
        y = 30 + ROW * i
        x0 = ML + c0 / cyc_max * pw
        x1 = ML + c1 / cyc_max * pw
        color = PALETTE[i % len(PALETTE)]
        out.append(f'<text x="{ML - 6}" y="{y + 13}" text-anchor="end" '
                   f'class="lbl">{html.escape(s["name"])}</text>')
        out.append(f'<rect x="{x0:.1f}" y="{y}" '
                   f'width="{max(x1 - x0, 2):.1f}" height="18" '
                   f'fill="{color}" opacity="0.75">'
                   f'<title>{html.escape(s["name"])}: cycles '
                   f'{fmt(c0)}–{fmt(c1)}</title></rect>')
    y_axis = 30 + ROW * len(phases)
    out.append(f'<line x1="{ML}" y1="{y_axis}" x2="{ML + pw}" '
               f'y2="{y_axis}" class="tick"/>')
    for i in range(5):
        c = cyc_max * i / 4
        x = ML + c / cyc_max * pw
        out.append(f'<text x="{x:.1f}" y="{y_axis + 14}" '
                   f'text-anchor="middle" class="lbl">{fmt(c)}</text>')
    out.append("</svg>")
    return "".join(out)


def utilization_chart(series: list[dict]) -> str:
    chart = Chart("Activity over cycles (each series normalized to its "
                  "own peak)", "cycle", "fraction of series peak")
    for i, s in enumerate(sorted(series, key=lambda s: s["name"])):
        pts = s["points"]
        if not pts:
            continue
        peak = max(abs(v) for _, v in pts) or 1.0
        label = (f'{s["name"]} (peak {fmt(peak)} {s["unit"]}'
                 + (f', stride {s["stride"]}' if s.get("stride", 1) > 1
                    else "") + ")")
        chart.add_line(label, PALETTE[i % len(PALETTE)],
                       [(c, v / peak) for c, v in pts])
    return chart.render()


def delta_curves(benches: dict) -> list[str]:
    """One chart per metric, one line per model, from fig10-style keys."""
    curves: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for entry in benches.values():
        for key, value in entry.get("metrics", {}).items():
            m = DELTA_KEY_RE.match(key)
            if m:
                curves.setdefault(m["metric"], {}).setdefault(
                    m["model"], []).append((float(m["delta"]), value))
    charts = []
    titles = {"latency_cycles": ("Inference latency vs δ", "cycles"),
              "energy_j": ("Inference energy vs δ", "joules"),
              "accuracy": ("Accuracy vs δ", "accuracy")}
    for metric in ("latency_cycles", "energy_j", "accuracy"):
        if metric not in curves:
            continue
        title, ylabel = titles[metric]
        chart = Chart(title, "δ (% of weight range)", ylabel)
        for i, (model, pts) in enumerate(sorted(curves[metric].items())):
            chart.add_line(model, PALETTE[i % len(PALETTE)], sorted(pts))
        charts.append(chart.render())
    return charts


def serving_curves(benches: dict) -> list[str]:
    """Latency percentiles (p50/p99/p99.9) and goodput per scheduler, from
    ext_serving's load-sweep keys."""
    curves: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for entry in benches.values():
        for key, value in entry.get("metrics", {}).items():
            m = SERVING_KEY_RE.match(key)
            if m:
                curves.setdefault(m["metric"], {}).setdefault(
                    m["sched"], []).append((float(m["load"]) / 100.0, value))
    charts = []
    latency = [("p50_cycles", "p50"), ("p99_cycles", "p99"),
               ("p999_cycles", "p99.9")]
    if any(metric in curves for metric, _ in latency):
        chart = Chart("Request latency percentiles vs offered load",
                      "offered load (fraction of capacity)", "cycles")
        i = 0
        for metric, pct in latency:
            for sched, pts in sorted(curves.get(metric, {}).items()):
                chart.add_line(f"{sched} {pct}", PALETTE[i % len(PALETTE)],
                               sorted(pts))
                i += 1
        charts.append(chart.render())
    if "goodput_rps" in curves:
        chart = Chart("Goodput vs offered load",
                      "offered load (fraction of capacity)", "requests/s")
        for i, (sched, pts) in enumerate(
                sorted(curves["goodput_rps"].items())):
            chart.add_line(sched, PALETTE[i % len(PALETTE)], sorted(pts))
        charts.append(chart.render())
    return charts


def slo_panel(slo: dict) -> list[str]:
    """Burn-rate chart over closed windows plus a breached-window table
    with exemplar trace links, from a nocw.slo.v1 export."""
    windows = slo.get("windows", [])
    if not windows:
        return []
    out = []
    chart = Chart("SLO burn rate at each window close",
                  "closed window (event order)", "burn (x error budget)")
    for i, horizon in enumerate(("burn_1w", "burn_4w", "burn_16w")):
        pts = [(float(w_index), w.get(horizon, 0.0))
               for w_index, w in enumerate(windows)]
        chart.add_line(horizon.replace("burn_", "") + " horizon",
                       PALETTE[i % len(PALETTE)], pts)
    out.append(chart.render())

    breached = [w for w in windows if w.get("breach_mask", 0)]
    if breached:
        rows = []
        for w in breached:
            mask = int(w.get("breach_mask", 0))
            reasons = [name for bit, name in
                       ((1, "p99"), (2, "p99.9"), (4, "goodput"))
                       if mask & bit]
            completions = int(w.get("completions", 0))
            exemplar = (w.get("exemplar", "") if completions > 0
                        else w.get("shed_exemplar", ""))
            rows.append(
                f"<tr><td>{int(w.get('class_id', 0))}</td>"
                f"<td>{int(w.get('window_start', 0))}</td>"
                f"<td>{html.escape('+'.join(reasons) or '—')}</td>"
                f"<td>{fmt(w.get('burn_1w', 0.0))}</td>"
                f"<td><code>{html.escape(exemplar)}</code></td></tr>")
        out.append(
            f"<p>{len(breached)} of {len(windows)} windows breached. "
            "Exemplar trace ids resolve in the nocw.reqtrace.v1 export "
            "(BENCH_reqtrace.json).</p>"
            "<table><tr><th>class</th><th>window start</th><th>breach</th>"
            "<th>burn 1w</th><th>exemplar trace</th></tr>"
            + "".join(rows) + "</table>")
    return out


def trace_drops(entry: dict) -> str:
    """Total sampled-tree / exemplar drops a bench reported, or an em-dash
    when it published no drop counters."""
    keys = [k for k in entry.get("metrics", {})
            if TRACE_DROP_KEY_RE.search(k)]
    if not keys:
        return "—"
    return fmt(sum(entry["metrics"][k] for k in keys))


def summary_table(benches: dict) -> str:
    if not benches:
        return ""
    rows = []
    for name in sorted(benches):
        e = benches[name]
        sha = (e.get("git_sha", "") or "")[:12]
        rows.append(
            f"<tr><td>{html.escape(name)}</td>"
            f"<td>{html.escape(e.get('model', '') or '—')}</td>"
            f"<td><code>{html.escape(sha) or '—'}</code></td>"
            f"<td>{e.get('host', {}).get('wall_ms', 0.0) / 1e3:.3f}</td>"
            f"<td>{len(e.get('metrics', {}))}</td>"
            f"<td>{trace_drops(e)}</td></tr>")
    return ("<table><tr><th>bench</th><th>model</th><th>git sha</th>"
            "<th>wall s</th><th>metrics</th><th>trace drops</th></tr>"
            + "".join(rows) + "</table>")


CSS = """
body { font: 14px/1.4 system-ui, sans-serif; margin: 24px auto;
       max-width: 720px; color: #222; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
svg { display: block; margin: 8px 0; }
.title { font-size: 13px; font-weight: 600; }
.lbl { font-size: 10px; fill: #555; }
.frame { fill: none; stroke: #999; } .tick { stroke: #999; }
.legend { font-size: 11px; margin: 2px 0 10px; }
.key { margin-right: 14px; white-space: nowrap; }
.swatch { display: inline-block; width: 10px; height: 10px;
          margin-right: 4px; border-radius: 2px; }
table { border-collapse: collapse; font-size: 12px; }
td, th { border: 1px solid #ccc; padding: 3px 8px; text-align: left; }
"""


def render(timeseries: dict | None, summary: dict | None,
           slo: dict | None = None) -> str:
    sections = []
    if timeseries is not None:
        series = timeseries.get("series", [])
        sections.append("<h2>Time series</h2>")
        sections.append(phase_timeline(series))
        sections.append(utilization_chart(series))
    if summary is not None:
        benches = summary.get("benches", {})
        charts = delta_curves(benches)
        if charts:
            sections.append("<h2>δ trade-off (fig10_tradeoff)</h2>")
            sections.extend(charts)
        charts = serving_curves(benches)
        if charts:
            sections.append("<h2>Serving load sweep (ext_serving)</h2>")
            sections.extend(charts)
    if slo is not None:
        panels = slo_panel(slo)
        if panels:
            sections.append("<h2>SLO windows (ext_reqtrace)</h2>")
            sections.extend(panels)
    if summary is not None:
        benches = summary.get("benches", {})
        sections.append("<h2>Bench runs</h2>")
        sections.append(summary_table(benches))
    if not sections:
        sections.append("<p>No inputs provided — nothing to render.</p>")
    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            "<title>nocw observability dashboard</title>"
            f"<style>{CSS}</style></head><body>"
            "<h1>nocw observability dashboard</h1>"
            + "".join(sections) + "</body></html>")


def load(path: pathlib.Path | None, schema: str) -> dict | None:
    if path is None:
        return None
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != schema:
        raise ValueError(f"{path}: expected schema {schema!r}, "
                         f"got {doc.get('schema')!r}")
    return doc


def self_test() -> int:
    ts = {"schema": "nocw.timeseries.v1", "series": [
        {"name": "accel.dram_words", "unit": "count", "stride": 1,
         "points": [[256, 700.0], [512, 700.0], [768, 650.0]]},
        {"name": "accel.macs", "unit": "count", "stride": 2,
         "points": [[900, 5000.0], [1200, 5000.0]]},
        {"name": "noc.link_flits", "unit": "flits", "stride": 1,
         "points": [[256, 80.0], [512, 90.0], [768, 0.0]]},
    ]}
    summary = {"schema": "nocw.bench_summary.v1", "benches": {
        "fig10_tradeoff": {"model": "", "git_sha": "abc123", "threads": 1,
                           "host": {"wall_ms": 1500.0},
                           "metrics": {
                               "lenet-5.d0.latency_cycles": 26530.0,
                               "lenet-5.d0.energy_j": 2.2e-05,
                               "lenet-5.d0.accuracy": 0.93,
                               "lenet-5.d10.latency_cycles": 20015.0,
                               "lenet-5.d10.energy_j": 1.7e-05,
                               "lenet-5.d10.accuracy": 0.92,
                               "mini-vgg.d10.latency_cycles": 91000.0}},
        "ext_timeseries": {"model": "LeNet-5", "git_sha": "abc123",
                           "threads": 1,
                           "metrics": {"bit_identical": 1.0},
                           "host": {"wall_ms": 40.0}},
        "ext_serving": {"model": "LeNet-5", "git_sha": "abc123",
                        "threads": 1, "host": {"wall_ms": 1500.0},
                        "metrics": {
                            "fifo.l090.p50_cycles": 21011002.0,
                            "fifo.l090.p99_cycles": 39021290.0,
                            "fifo.l090.p999_cycles": 41007113.0,
                            "fifo.l090.goodput_rps": 1087.0,
                            "fifo.l150.p50_cycles": 35400911.0,
                            "fifo.l150.p99_cycles": 69729940.0,
                            "fifo.l150.p999_cycles": 72013551.0,
                            "fifo.l150.goodput_rps": 1277.0,
                            "sjf.l090.p99_cycles": 37030121.0,
                            "sjf.l090.goodput_rps": 1086.0,
                            "sjf.l150.p99_cycles": 209531368.0,
                            "sjf.l150.goodput_rps": 1226.0,
                            "capacity_rps": 1260.0}},
        "ext_reqtrace": {"model": "LeNet-5", "git_sha": "abc123",
                         "threads": 1, "host": {"wall_ms": 2000.0},
                         "metrics": {
                             "fifo.l130.dropped_trees": 731.0,
                             "sjf.l130.dropped_trees": 729.0,
                             "exemplar_drops": 0.0,
                             "windows_breached": 29.0}},
    }}
    slo = {"schema": "nocw.slo.v1", "window_cycles": 1000000,
           "error_budget": 0.01, "windows": [
               {"class_id": 0, "window_start": 0, "completions": 12,
                "sheds": 0, "max_latency_cycles": 900, "breach_mask": 0,
                "burn_1w": 0.0, "burn_4w": 0.0, "burn_16w": 0.0,
                "exemplar": "00000000000000aa",
                "shed_exemplar": "0000000000000000"},
               {"class_id": 0, "window_start": 1000000, "completions": 9,
                "sheds": 3, "max_latency_cycles": 4100, "breach_mask": 5,
                "burn_1w": 25.0, "burn_4w": 12.5, "burn_16w": 12.5,
                "exemplar": "00000000000000bb",
                "shed_exemplar": "00000000000000cc"},
               {"class_id": 1, "window_start": 1000000, "completions": 0,
                "sheds": 4, "max_latency_cycles": 0, "breach_mask": 4,
                "burn_1w": 100.0, "burn_4w": 50.0, "burn_16w": 50.0,
                "exemplar": "0000000000000000",
                "shed_exemplar": "00000000000000dd"},
           ]}
    page = render(ts, summary, slo)

    failures = []
    # timeline + utilization + 3 δ charts + 2 serving charts + burn rates
    if page.count("<svg") != 8:
        failures.append(f"expected 8 svg blocks, got {page.count('<svg')}")
    if page.count("<polyline") < 3 + 3 + 6 + 3:  # series/δ/serving/burn
        failures.append(f"too few polylines: {page.count('<polyline')}")
    for needle in ("accel.dram_words", "noc.link_flits", "stride 2",
                   "Inference latency vs δ", "Accuracy vs δ", "lenet-5",
                   "mini-vgg", "ext_timeseries", "abc123",
                   "Request latency percentiles vs offered load",
                   "fifo p50", "fifo p99.9",
                   "Goodput vs offered load", "sjf",
                   "SLO burn rate at each window close", "16w horizon",
                   "2 of 3 windows breached",
                   "00000000000000bb",  # breached window, completions > 0
                   "00000000000000dd",  # all-shed window: shed exemplar
                   "trace drops", "1460",  # 731 + 729 + 0 summed
                   "<td>2.000</td>",  # ext_reqtrace's wall_ms in seconds
                   "p99+goodput"):
        if needle not in page:
            failures.append(f"missing from rendered page: {needle!r}")
    if "javascript" in page.lower() or "<script" in page.lower():
        failures.append("page must be script-free")
    # Empty inputs must still render a valid page.
    empty = render(None, None)
    if "nothing to render" not in empty:
        failures.append("empty-input page missing placeholder")
    # An slo doc with no windows adds no section.
    no_windows = render(None, None, {"schema": "nocw.slo.v1",
                                     "windows": []})
    if "SLO" in no_windows:
        failures.append("empty slo doc should render no SLO section")
    # A series with no points must not crash or emit a line.
    degenerate = render({"schema": "nocw.timeseries.v1", "series": [
        {"name": "noc.queue_depth", "unit": "flits", "stride": 1,
         "points": []}]}, None)
    if "<polyline" in degenerate:
        failures.append("empty series produced a polyline")

    if failures:
        print("obs_dashboard self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("obs_dashboard self-test passed")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--timeseries", type=pathlib.Path,
                    help="nocw.timeseries.v1 JSON (from ext_timeseries)")
    ap.add_argument("--summary", type=pathlib.Path,
                    help="nocw.bench_summary.v1 JSON (BENCH_summary.json)")
    ap.add_argument("--slo", type=pathlib.Path,
                    help="nocw.slo.v1 JSON (results/slo_windows.json from "
                         "ext_reqtrace)")
    ap.add_argument("-o", "--output", type=pathlib.Path,
                    default=pathlib.Path("dashboard.html"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    try:
        ts = load(args.timeseries, "nocw.timeseries.v1")
        summary = load(args.summary, "nocw.bench_summary.v1")
        slo = load(args.slo, "nocw.slo.v1")
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"obs_dashboard: {e}", file=sys.stderr)
        return 2
    args.output.write_text(render(ts, summary, slo), encoding="utf-8")
    print(f"obs_dashboard: wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
