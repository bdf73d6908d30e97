"""``python -m repro report``: aggregate obs artifacts into one HTML dashboard.

Takes the artifacts a run leaves behind — the runner's result JSON (with the
embedded profile), ``--sample`` time series, ``--trace-packets`` span JSONL and
``--inspect`` channel report — and renders a single static HTML file with
inline-SVG charts: per-flow rate and queue-depth time series, a per-hop
stacked latency breakdown, a PrioPlus state timeline and the engine profile
table.  Pure stdlib; the output opens in any browser with no network access.

    python -m repro quickstart --sample s.csv --trace-packets spans.jsonl \\
        --inspect ch.json --profile > result.json
    python -m repro report --result result.json --samples s.csv \\
        --spans spans.jsonl --channel ch.json --out dashboard.html
"""

from __future__ import annotations

import argparse
import html
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["build_dashboard", "report_main"]

# Categorical palette (validated light/dark, fixed slot order — see
# docs/TRACING.md; slots are assigned by sorted entity id, never cycled).
_SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948")
_SERIES_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767")

#: latency components in stacking order -> categorical slot index
_COMPONENTS = (("queue_ns", "queueing", 0), ("pause_ns", "PFC pause", 1),
               ("tx_ns", "serialization", 2), ("prop_ns", "propagation", 3))

#: PrioPlus states -> categorical slot index ("done" is inactivity: muted ink)
_STATE_SLOTS = {"running": 0, "linear_start": 2, "probe_wait": 3,
                "cautious_restart": 4, "relinquished": 1}

_W, _H = 720, 240
_ML, _MR, _MT, _MB = 64, 16, 12, 30


def _esc(s: object) -> str:
    return html.escape(str(s), quote=True)


def _fmt(v: float) -> str:
    """Compact figure: 1,284 / 12.9K / 4.2M."""
    a = abs(v)
    for div, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if a >= div:
            return f"{v / div:.1f}{suffix}"
    if v == int(v):
        return f"{int(v):,}"
    return f"{v:.1f}"


def _ticks(vmax: float) -> List[float]:
    """Clean round tick values from 0 up to (at least) vmax, about four."""
    if vmax <= 0:
        return [0.0, 1.0]
    raw = vmax / 4
    mag = 10 ** max(0, len(str(int(raw))) - 1) if raw >= 1 else 1
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if step >= raw:
            break
    ticks = [0.0]
    while ticks[-1] < vmax:
        ticks.append(round(ticks[-1] + step, 10))
    return ticks


class _Svg:
    """Accumulates SVG fragments for one chart frame."""

    def __init__(self, height: int = _H):
        self.w, self.h = _W, height
        self.parts: List[str] = []

    def line(self, x1, y1, x2, y2, stroke):
        self.parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{stroke}" stroke-width="1" stroke-linecap="butt"/>'
        )

    def poly(self, pts: Sequence[Tuple[float, float]], stroke: str):
        d = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{d}" fill="none" stroke="{stroke}" '
            f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        )

    def dot(self, x, y, fill):
        self.parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{fill}" '
            f'stroke="var(--surface)" stroke-width="2"/>'
        )

    def rect(self, x, y, w, h, fill, rx=0.0, tip: Optional[str] = None):
        t = f' data-tip="{_esc(tip)}"' if tip else ""
        self.parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{max(w, 0):.1f}" '
            f'height="{h:.1f}" fill="{fill}" rx="{rx}"{t}/>'
        )

    def text(self, x, y, s, anchor="start", cls="lbl"):
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}" '
            f'class="{cls}">{_esc(s)}</text>'
        )

    def hit(self, x, y, tip: str):
        """Invisible hover target, larger than the mark it covers."""
        self.parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="10" fill="transparent" '
            f'data-tip="{_esc(tip)}"/>'
        )

    def render(self) -> str:
        body = "".join(self.parts)
        return (f'<svg viewBox="0 0 {self.w} {self.h}" role="img" '
                f'preserveAspectRatio="xMidYMid meet">{body}</svg>')


def _frame(svg: _Svg, yticks: List[float], ymax: float, y_label: str,
           x0_ms: float, x1_ms: float) -> None:
    """Hairline gridlines + axis labels for a time-series frame."""
    for tv in yticks:
        y = _H - _MB - (tv / ymax) * (_H - _MT - _MB)
        svg.line(_ML, y, _W - _MR, y, "var(--grid)")
        svg.text(_ML - 6, y + 3.5, _fmt(tv), anchor="end", cls="tick")
    svg.line(_ML, _H - _MB, _W - _MR, _H - _MB, "var(--axis)")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _ML + frac * (_W - _ML - _MR)
        ms = x0_ms + frac * (x1_ms - x0_ms)
        svg.text(x, _H - _MB + 14, f"{ms:.2f}", anchor="middle", cls="tick")
    svg.text(_ML, _MT - 2, y_label, cls="tick")
    svg.text(_W - _MR, _H - _MB + 14, "ms", anchor="end", cls="tick")


def _legend(entries: List[Tuple[str, str]]) -> str:
    """Swatch + name rows; identity never rides on color alone."""
    items = "".join(
        f'<span class="key"><span class="sw" style="background:{color}"></span>'
        f"{_esc(name)}</span>"
        for name, color in entries
    )
    return f'<div class="legend">{items}</div>'


def _table(headers: List[str], rows: List[List[object]], summary: str) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (f"<details><summary>{_esc(summary)}</summary>"
            f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table></details>")


def _series_chart(series: Dict[str, List[Tuple[int, float]]], y_label: str,
                  unit_div: float, tip_unit: str) -> str:
    """Multi-series 2px line chart with end dots, hover targets and a table."""
    if not series:
        return ""
    names = sorted(series)
    shown = names[:8]
    ymax = max((v for n in shown for _, v in series[n]), default=0.0) / unit_div
    yticks = _ticks(ymax if ymax > 0 else 1.0)
    ymax = yticks[-1]
    tmax = max(t for n in shown for t, _ in series[n])
    tmin = min(t for n in shown for t, _ in series[n])
    span = max(tmax - tmin, 1)
    svg = _Svg()
    _frame(svg, yticks, ymax, y_label, tmin / 1e6, tmax / 1e6)

    def sx(t):
        return _ML + (t - tmin) / span * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v / unit_div) / ymax * (_H - _MT - _MB)

    for i, name in enumerate(shown):
        color = f"var(--s{i + 1})"
        pts = [(sx(t), sy(v)) for t, v in series[name]]
        svg.poly(pts, color)
        for t, v in series[name]:
            svg.hit(sx(t), sy(v),
                    f"{name} · {t / 1e6:.3f} ms · {_fmt(v / unit_div)}{tip_unit}")
        t_end, v_end = series[name][-1]
        svg.dot(sx(t_end), sy(v_end), color)
    # direct-label line ends only while they are few and separated
    if len(shown) <= 4:
        used: List[float] = []
        for i, name in enumerate(shown):
            t_end, v_end = series[name][-1]
            y = sy(v_end)
            if all(abs(y - u) > 12 for u in used):
                svg.text(sx(t_end) - 8, y - 8, name, anchor="end")
                used.append(y)
    note = "" if len(names) <= 8 else \
        f'<p class="note">showing 8 of {len(names)} series; the rest are in the table</p>'
    rows = [[n, len(series[n]), _fmt(max(v for _, v in series[n]) / unit_div),
             _fmt(series[n][-1][1] / unit_div)] for n in names]
    return (svg.render()
            + _legend([(n, f"var(--s{i + 1})") for i, n in enumerate(shown)])
            + note
            + _table(["series", "points", f"max ({y_label})", f"final ({y_label})"],
                     rows, "Data table"))


def _latency_chart(spans: List[dict]) -> str:
    """Mean per-hop stacked latency breakdown across delivered packets."""
    hops = [r for r in spans if "hop" in r]
    summaries = {r["trace"]: r for r in spans if r.get("kind") == "summary"}
    delivered = {t for t, s in summaries.items() if s["disposition"] == "delivered"}
    agg: Dict[Tuple[int, str], List[float]] = {}
    counts: Dict[Tuple[int, str], int] = {}
    for r in hops:
        if r["trace"] not in delivered:
            continue
        key = (r["hop"], r["port"])
        cell = agg.setdefault(key, [0.0] * len(_COMPONENTS))
        for i, (field, _, _) in enumerate(_COMPONENTS):
            cell[i] += r[field]
        counts[key] = counts.get(key, 0) + 1
    if not agg:
        return ""
    keys = sorted(agg)
    means = {k: [c / counts[k] / 1000.0 for c in agg[k]] for k in keys}  # µs
    total_max = max(sum(m) for m in means.values())
    bar_h, gap_v = 20, 14
    height = _MT + len(keys) * (bar_h + gap_v) + 26
    svg = _Svg(height)
    xticks = _ticks(total_max)
    xmax = xticks[-1]
    label_w = 150
    for tv in xticks:
        x = label_w + tv / xmax * (_W - label_w - _MR)
        svg.line(x, _MT, x, height - 22, "var(--grid)")
        svg.text(x, height - 8, _fmt(tv), anchor="middle", cls="tick")
    svg.text(_W - _MR, height - 8, "µs", anchor="end", cls="tick")
    for row, key in enumerate(keys):
        hop_i, port = key
        y = _MT + row * (bar_h + gap_v)
        svg.text(label_w - 8, y + bar_h / 2 + 3.5, f"hop {hop_i} · {port}",
                 anchor="end")
        x = float(label_w)
        parts = means[key]
        for i, (_, comp_name, slot) in enumerate(_COMPONENTS):
            w = parts[i] / xmax * (_W - label_w - _MR)
            if w <= 0:
                continue
            last = all(p <= 0 for p in parts[i + 1:])
            tip = (f"{comp_name} · hop {hop_i} {port} · {parts[i]:.2f} µs mean "
                   f"({counts[key]} pkts)")
            # 2px surface gap between segments; rounded cap on the data end
            svg.rect(x, y, max(w - 2, 0.5), bar_h, f"var(--s{slot + 1})",
                     rx=4 if last else 0, tip=tip)
            x += w
        svg.text(x + 6, y + bar_h / 2 + 3.5, f"{sum(parts):.1f}")
    rows = [[f"hop {k[0]}", k[1], counts[k]] + [f"{v:.2f}" for v in means[k]]
            + [f"{sum(means[k]):.2f}"] for k in keys]
    return (svg.render()
            + _legend([(name, f"var(--s{slot + 1})")
                       for _, name, slot in _COMPONENTS])
            + _table(["hop", "port", "packets"]
                     + [f"{name} (µs)" for _, name, _ in _COMPONENTS]
                     + ["total (µs)"], rows, "Data table"))


def _timeline_chart(channel: dict) -> str:
    """Per-flow PrioPlus state timeline: one colored band per state interval."""
    flows = channel.get("flows", {})
    if not flows:
        return ""
    end_ts = max(channel.get("max_ts", 0), 1)
    fids = sorted(flows, key=lambda s: int(s))
    bar_h, gap_v = 18, 12
    height = _MT + len(fids) * (bar_h + gap_v) + 26
    svg = _Svg(height)
    label_w = 120
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = label_w + frac * (_W - label_w - _MR)
        svg.line(x, _MT, x, height - 22, "var(--grid)")
        svg.text(x, height - 8, f"{frac * end_ts / 1e6:.2f}", anchor="middle",
                 cls="tick")
    svg.text(_W - _MR, height - 8, "ms", anchor="end", cls="tick")

    def sx(t):
        return label_w + t / end_ts * (_W - label_w - _MR)

    seen_states: List[str] = []
    for row, fid in enumerate(fids):
        rec = flows[fid]
        y = _MT + row * (bar_h + gap_v)
        svg.text(label_w - 8, y + bar_h / 2 + 3.5,
                 f"flow {fid} vp{rec.get('vpriority', '?')}", anchor="end")
        transitions = rec.get("transitions", [])
        for i, (t, state) in enumerate(transitions):
            if state == "done":
                continue
            t_next = transitions[i + 1][0] if i + 1 < len(transitions) else end_ts
            slot = _STATE_SLOTS.get(state)
            fill = f"var(--s{slot + 1})" if slot is not None else "var(--muted)"
            tip = f"flow {fid} · {state} · {t / 1e6:.3f}–{t_next / 1e6:.3f} ms"
            svg.rect(sx(t), y, max(sx(t_next) - sx(t) - 2, 0.5), bar_h, fill,
                     tip=tip)
            if state not in seen_states:
                seen_states.append(state)
    entries = [(s, f"var(--s{_STATE_SLOTS[s] + 1})") for s in
               sorted(seen_states, key=lambda s: _STATE_SLOTS.get(s, 9))
               if s in _STATE_SLOTS]
    rows = [[fid, flows[fid].get("vpriority"), flows[fid].get("tier"),
             " → ".join(s for _, s in flows[fid].get("transitions", []))]
            for fid in fids]
    return (svg.render() + _legend(entries)
            + _table(["flow", "vpriority", "tier", "transitions"], rows,
                     "Data table"))


def _profile_table(profile: dict) -> str:
    callbacks = profile.get("callbacks", {})
    if not callbacks:
        return ""
    ranked = sorted(callbacks.items(), key=lambda kv: -kv[1]["wall_s"])
    rows = [[name, f"{c['count']:,}", f"{c['wall_s'] * 1e3:.2f}",
             f"{c['mean_us']:.2f}"] for name, c in ranked]
    head = "".join(f"<th>{h}</th>" for h in
                   ("callback", "events", "wall (ms)", "mean (µs)"))
    body = "".join("<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row)
                   + "</tr>" for row in rows)
    return (f'<table class="profile"><thead><tr>{head}</tr></thead>'
            f"<tbody>{body}</tbody></table>")


def _stat_tiles(tiles: List[Tuple[str, str]]) -> str:
    out = "".join(
        f'<div class="tile"><div class="tl">{_esc(label)}</div>'
        f'<div class="tv">{_esc(value)}</div></div>'
        for label, value in tiles
    )
    return f'<div class="tiles">{out}</div>'


_CSS = """
.viz-root { color-scheme: light;
  --surface:#fcfcfb; --page:#f9f9f7; --ink:#0b0b0b; --ink2:#52514e;
  --muted:#898781; --grid:#e1e0d9; --axis:#c3c2b7;
  --s1:#2a78d6; --s2:#eb6834; --s3:#1baf7a; --s4:#eda100;
  --s5:#e87ba4; --s6:#008300; --s7:#4a3aa7; --s8:#e34948;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink); margin: 0; padding: 24px; }
@media (prefers-color-scheme: dark) { .viz-root { color-scheme: dark;
  --surface:#1a1a19; --page:#0d0d0d; --ink:#ffffff; --ink2:#c3c2b7;
  --muted:#898781; --grid:#2c2c2a; --axis:#383835;
  --s1:#3987e5; --s2:#d95926; --s3:#199e70; --s4:#c98500;
  --s5:#d55181; --s6:#008300; --s7:#9085e9; --s8:#e66767; } }
.viz-root h1 { font-size: 20px; font-weight: 600; margin: 0 0 2px; }
.viz-root h2 { font-size: 14px; font-weight: 600; margin: 0 0 8px; }
.viz-root .sub { color: var(--ink2); font-size: 12px; margin: 0 0 20px; }
.card { background: var(--surface); border: 1px solid rgba(128,128,128,.15);
  border-radius: 8px; padding: 16px; margin: 0 0 16px; max-width: 780px; }
svg { display: block; width: 100%; height: auto; }
.lbl { font-size: 11px; fill: var(--ink2); }
.tick { font-size: 10px; fill: var(--muted); font-variant-numeric: tabular-nums; }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px; margin-top: 8px;
  font-size: 12px; color: var(--ink2); }
.key { display: inline-flex; align-items: center; gap: 6px; }
.sw { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
.note { font-size: 11px; color: var(--muted); margin: 6px 0 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 0 0 16px; }
.tile { background: var(--surface); border: 1px solid rgba(128,128,128,.15);
  border-radius: 8px; padding: 12px 18px; }
.tl { font-size: 11px; color: var(--ink2); }
.tv { font-size: 26px; font-weight: 600; }
details { margin-top: 8px; font-size: 12px; }
summary { cursor: pointer; color: var(--ink2); }
table { border-collapse: collapse; margin-top: 8px; font-size: 12px; }
th, td { text-align: left; padding: 3px 12px 3px 0; border-bottom: 1px solid
  var(--grid); font-variant-numeric: tabular-nums; }
th { color: var(--ink2); font-weight: 600; }
.profile { width: 100%; }
#tip { position: fixed; pointer-events: none; background: var(--ink);
  color: var(--surface); font-size: 11px; padding: 4px 8px; border-radius: 4px;
  display: none; z-index: 10; max-width: 320px; }
"""

_JS = """
(function () {
  var tip = document.getElementById('tip');
  document.addEventListener('mousemove', function (e) {
    var t = e.target.closest ? e.target.closest('[data-tip]') : null;
    if (t) {
      tip.textContent = t.getAttribute('data-tip');
      tip.style.display = 'block';
      tip.style.left = Math.min(e.clientX + 12, window.innerWidth - 330) + 'px';
      tip.style.top = (e.clientY + 14) + 'px';
    } else {
      tip.style.display = 'none';
    }
  });
})();
"""


def _load_jsonl(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _load_samples(path: str) -> List[dict]:
    if not path.endswith(".csv"):
        return _load_jsonl(path)
    rows: List[dict] = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        for line in fh:
            row: Dict[str, object] = {}
            for key, cell in zip(header, line.rstrip("\n").split(",")):
                if cell == "":
                    continue
                try:
                    row[key] = int(cell)
                except ValueError:
                    try:
                        row[key] = float(cell)
                    except ValueError:
                        row[key] = cell
            rows.append(row)
    return rows


def build_dashboard(result: Optional[dict] = None,
                    samples: Optional[List[dict]] = None,
                    spans: Optional[List[dict]] = None,
                    channel: Optional[dict] = None,
                    title: str = "repro run report") -> str:
    """Render the dashboard HTML from already-loaded artifacts."""
    sections: List[str] = []
    tiles: List[Tuple[str, str]] = []

    if result:
        profile = result.get("profile") or {}
        if profile.get("events"):
            tiles.append(("engine events", _fmt(profile["events"])))
            tiles.append(("sim wall time", f"{profile['wall_s'] * 1e3:.0f}ms"))
        traces = result.get("packet_traces") or {}
        if traces.get("recorded"):
            tiles.append(("packets traced", _fmt(traces["recorded"])))
    if channel:
        tiles.append(("state transitions", _fmt(channel.get("transition_count", 0))))
        tiles.append(("priority inversions", _fmt(len(channel.get("inversions", [])))))

    if samples:
        flow_series: Dict[str, List[Tuple[int, float]]] = {}
        port_series: Dict[str, List[Tuple[int, float]]] = {}
        for r in samples:
            if r.get("kind") == "flow":
                flow_series.setdefault(f"flow {r['flow']}", []).append(
                    (int(r["t"]), float(r.get("rate_bps", 0))))
            elif r.get("kind") == "port":
                port_series.setdefault(str(r["port"]), []).append(
                    (int(r["t"]), float(r.get("backlog_bytes", 0))))
        body = _series_chart(flow_series, "Gbit/s", 1e9, " Gbit/s")
        if body:
            sections.append(f'<div class="card"><h2>Per-flow goodput</h2>{body}</div>')
        body = _series_chart(port_series, "KB queued", 1e3, " KB")
        if body:
            sections.append(
                f'<div class="card"><h2>Port backlog</h2>{body}</div>')
        regime_rows = [r for r in samples if r.get("kind") == "regime"]
        if regime_rows:
            n_fluid = sum(1 for r in regime_rows if r.get("mode") == "fluid")
            n_withdrawn = sum(int(r.get("withdrawn", 0)) for r in regime_rows)
            tiles.append(("fluid epochs", _fmt(n_fluid)))
            rows = [[r["t"] / 1e6, str(r.get("mode", "")), str(r.get("reason", "")),
                     int(r.get("withdrawn", 0))]
                    for r in regime_rows]
            sections.append(
                '<div class="card"><h2>Hybrid regime switches</h2>'
                + _table(["t (ms)", "entered", "reason", "packets withdrawn"], rows,
                         f"{len(regime_rows)} switches, {n_fluid} fluid epochs, "
                         f"{n_withdrawn} packets withdrawn")
                + "</div>")

    if spans:
        body = _latency_chart(spans)
        if body:
            sections.append(
                '<div class="card"><h2>Per-hop latency breakdown '
                "(mean over delivered traced packets)</h2>" + body + "</div>")

    if channel:
        body = _timeline_chart(channel)
        if body:
            sections.append(
                f'<div class="card"><h2>PrioPlus state timeline</h2>{body}</div>')
        inv = channel.get("inversions", [])
        if inv:
            rows = [[i["window_t_ns"] / 1e6, i["low_flow"], i["low_vpriority"],
                     _fmt(i["low_bytes"]), i["high_flow"], i["high_vpriority"],
                     _fmt(i["high_bytes"]), i["high_state"]] for i in inv]
            sections.append(
                '<div class="card"><h2>Virtual-priority inversions</h2>'
                + _table(["window (ms)", "low flow", "low vp", "low bytes",
                          "high flow", "high vp", "high bytes", "high state"],
                         rows, f"{len(inv)} inversion windows") + "</div>")

    if result and result.get("profile"):
        body = _profile_table(result["profile"])
        if body:
            sections.append(
                f'<div class="card"><h2>Engine profile</h2>{body}</div>')

    empty = "" if sections else \
        '<div class="card"><p class="sub">No artifacts supplied — pass ' \
        "--samples / --spans / --channel / --result.</p></div>"
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f'<body class="viz-root"><h1>{_esc(title)}</h1>'
        '<p class="sub">generated by <code>python -m repro report</code></p>'
        + _stat_tiles(tiles) + "".join(sections) + empty
        + f'<div id="tip"></div><script>{_JS}</script></body></html>'
    )


def report_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Aggregate run artifacts into a static HTML dashboard.",
    )
    parser.add_argument("--result", metavar="PATH",
                        help="runner result JSON (python -m repro ... > out.json)")
    parser.add_argument("--samples", metavar="PATH",
                        help="time-series file from --sample (.csv or JSONL)")
    parser.add_argument("--spans", metavar="PATH",
                        help="per-hop span JSONL from --trace-packets")
    parser.add_argument("--channel", metavar="PATH",
                        help="channel report JSON from --inspect")
    parser.add_argument("--title", default="repro run report")
    parser.add_argument("--out", default="report.html", metavar="PATH")
    args = parser.parse_args(argv)

    if not (args.result or args.samples or args.spans or args.channel):
        parser.error("nothing to report: pass at least one of --result, "
                     "--samples, --spans, --channel")
    result = json.load(open(args.result)) if args.result else None
    samples = _load_samples(args.samples) if args.samples else None
    spans = _load_jsonl(args.spans) if args.spans else None
    channel = json.load(open(args.channel)) if args.channel else None
    page = build_dashboard(result=result, samples=samples, spans=spans,
                           channel=channel, title=args.title)
    with open(args.out, "w") as fh:
        fh.write(page)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(report_main())
