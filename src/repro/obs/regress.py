"""The performance regression gate and its trajectory dashboard.

``perf-gate`` re-measures a small fixed suite of simulation points (the
*gate suite*), appends the fresh records to the run ledger, and compares
them against the committed **trajectory** — a ledger JSONL file checked
into the repository (``benchmarks/results/perf_trajectory.jsonl``).  The
comparison is noise-aware by *construction*, not by statistics:

* **simulated-cycle metrics compare exactly.**  The simulator is
  deterministic, so any drift in ``execution_cycles``, ``phase_cycles``,
  bus lines, or the SLO ladder is a real behavior change — either a
  regression or an unrecorded improvement.  Both fail the gate: the fix
  for an intentional change is to re-record the trajectory, which is
  what keeps it honest.
* **host wall-clock compares against a tolerance band**, and only when
  the baseline was measured on a host with the same ``cpu_count`` and
  neither side carries ``single_core_caveat: true``; otherwise the wall
  comparison is *skipped with a visible finding* rather than silently
  passed or dishonestly failed.

Only the **latest** trajectory record per :func:`~repro.obs.ledger
.point_key` is the baseline — older records remain in the file as
history and feed the dashboard's trajectory view.

:func:`render_dashboard` renders the trajectory as a static,
self-contained HTML page built *only* from ledger records — no
timestamps, no randomness — so the dashboard bytes are identical across
``--jobs`` values and cached replays whenever the records are.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DesignPoint
from repro.obs.ledger import Ledger, host_clock_s, point_key, sweep_records
from repro.obs.metrics import PHASE_PRIORITY
from repro.parallel.cache import RunCache
from repro.parallel.sweep import SweepPoint, run_sweep

#: The gate suite: small enough to re-measure on every run, wide enough
#: to cover the single-channel Figure 8 designs.  ``trace_length`` 1200
#: deliberately matches BENCH_pr3's hot-path point so the migrated PR3
#: record sits on the same trajectory key as every fresh gate record.
GATE_TRACE_LENGTH = 1200
GATE_SEED = 2018
GATE_WORKLOAD = "mcf"
GATE_WINDOW_CYCLES = 50_000
GATE_DESIGNS: Tuple[DesignPoint, ...] = (DesignPoint.FREECURSIVE,
                                         DesignPoint.INDEP_2,
                                         DesignPoint.SPLIT_2)

#: Default multiplicative wall-clock budget: the fresh run may take up
#: to this many times the recorded baseline before it counts as a
#: regression.  Wide on purpose — wall time on shared CI boxes is noisy,
#: and the cycle metrics are the precise signal.
WALL_TOLERANCE = 2.5

#: Measure keys holding host wall-clock (tolerance-banded, never exact).
_WALL_MARKERS = ("wall", "speedup")

#: Measure keys that describe the *host* a record was taken on, not the
#: simulation.  They must never fail an exact comparison: two honest
#: records from different machines legitimately disagree on them.
_HOST_FACT_KEYS = frozenset({"single_core_caveat", "cpu_count"})


def gate_points() -> List[SweepPoint]:
    """The fixed suite of points the gate re-measures."""
    return [SweepPoint(design=design, workload=GATE_WORKLOAD, channels=1,
                       trace_length=GATE_TRACE_LENGTH, seed=GATE_SEED,
                       window_policy="in-order", collect_trace=True,
                       window_cycles=GATE_WINDOW_CYCLES)
            for design in GATE_DESIGNS]


def gate_records(jobs: int = 1,
                 cache: Optional[RunCache] = None
                 ) -> List[Dict[str, object]]:
    """Measure the gate suite and return one ledger record per point."""
    return sweep_records("gate", run_sweep(gate_points(), jobs=jobs,
                                           cache=cache))


# ----------------------------------------------------------------------
# Trajectory comparison
# ----------------------------------------------------------------------

@dataclass
class Finding:
    """One comparison outcome.  ``severity`` is ``fail``/``warn``/``info``."""

    kind: str
    severity: str
    point: str
    metric: str = ""
    baseline: object = None
    current: object = None

    def describe(self) -> str:
        detail = f" {self.metric}" if self.metric else ""
        values = ""
        if self.baseline is not None or self.current is not None:
            values = f" (recorded {self.baseline!r}, now {self.current!r})"
        return f"[{self.severity}] {self.kind}: {self.point}{detail}{values}"


@dataclass
class GateReport:
    """Everything one gate run concluded."""

    findings: List[Finding] = field(default_factory=list)
    compared_points: int = 0
    new_points: int = 0

    @property
    def ok(self) -> bool:
        return not any(item.severity == "fail" for item in self.findings)

    def render(self) -> str:
        lines = [f"perf-gate: {self.compared_points} point(s) compared, "
                 f"{self.new_points} new"]
        for item in self.findings:
            lines.append("  " + item.describe())
        lines.append("perf-gate: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def latest_by_key(records: Sequence[Dict[str, object]]
                  ) -> Dict[str, Dict[str, object]]:
    """Last record in file order per trajectory key (keyless kinds skip)."""
    latest: Dict[str, Dict[str, object]] = {}
    for record in records:
        key = point_key(record)
        if key is not None:
            latest[key] = record
    return latest


def _is_wall_metric(path: str) -> bool:
    last_segment = path.rsplit(".", 1)[-1]
    return any(marker in last_segment for marker in _WALL_MARKERS)


def _compare_measures(baseline: Dict[str, object],
                      current: Dict[str, object], label: str,
                      findings: List[Finding], prefix: str = "measure",
                      wall_comparable: bool = True,
                      wall_tolerance: float = WALL_TOLERANCE) -> None:
    """Walk the shared keys of two measure trees.

    Keys present on only one side are ignored — schema growth (a new
    metric) must not fail historical baselines; cycle-valued shared keys
    must match exactly; wall-valued shared keys get the tolerance band.
    """
    for key in sorted(set(baseline) & set(current)):
        if key in _HOST_FACT_KEYS:
            continue
        base_value, cur_value = baseline[key], current[key]
        path = f"{prefix}.{key}"
        if isinstance(base_value, dict) and isinstance(cur_value, dict):
            _compare_measures(base_value, cur_value, label, findings,
                              prefix=path, wall_comparable=wall_comparable,
                              wall_tolerance=wall_tolerance)
            continue
        if _is_wall_metric(path):
            if not wall_comparable:
                continue    # one skip finding per point, emitted by caller
            try:
                base_f, cur_f = float(base_value), float(cur_value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                continue
            if base_f > 0 and "speedup" not in path \
                    and cur_f > base_f * wall_tolerance:
                findings.append(Finding("wall-regression", "fail", label,
                                        metric=path, baseline=base_value,
                                        current=cur_value))
            continue
        if base_value != cur_value:
            direction = "cycle-regression"
            if isinstance(base_value, (int, float)) \
                    and isinstance(cur_value, (int, float)) \
                    and cur_value < base_value:
                # faster than recorded is still a gate failure: the
                # trajectory is stale and must be re-recorded
                direction = "cycle-improvement"
            findings.append(Finding(direction, "fail", label, metric=path,
                                    baseline=base_value, current=cur_value))


def compare_records(trajectory: Sequence[Dict[str, object]],
                    current: Sequence[Dict[str, object]],
                    wall_tolerance: float = WALL_TOLERANCE) -> GateReport:
    """Compare fresh records against the latest trajectory baselines."""
    report = GateReport()
    baselines = latest_by_key(trajectory)
    for record in current:
        key = point_key(record)
        if key is None:
            continue
        point = record.get("core", {}).get("point", {})
        label = f"{point.get('design')}/{point.get('workload')}"
        baseline = baselines.get(key)
        if baseline is None:
            report.new_points += 1
            report.findings.append(Finding("new-point", "info", label))
            continue
        report.compared_points += 1
        base_host = baseline.get("host", {}) or {}
        cur_host = record.get("host", {}) or {}
        base_caveat = bool((baseline["core"].get("measure") or {})
                           .get("single_core_caveat"))
        cur_caveat = bool((record["core"].get("measure") or {})
                          .get("single_core_caveat"))
        if base_caveat or cur_caveat:
            # a single-core host cannot produce a meaningful wall or
            # speedup figure on either side of the comparison — skip the
            # whole wall band with a visible note instead of comparing
            # one honest number against one meaningless one
            wall_comparable = False
            report.findings.append(Finding(
                "wall-skipped", "info", label,
                metric="measure.single_core_caveat",
                baseline=base_caveat, current=cur_caveat))
        else:
            wall_comparable = (base_host.get("cpu_count") is not None
                               and base_host.get("cpu_count")
                               == cur_host.get("cpu_count"))
            if not wall_comparable:
                report.findings.append(Finding(
                    "wall-skipped", "info", label,
                    metric="host.cpu_count",
                    baseline=base_host.get("cpu_count"),
                    current=cur_host.get("cpu_count")))
        _compare_measures(baseline["core"].get("measure", {}),
                          record["core"].get("measure", {}),
                          label, report.findings,
                          wall_comparable=wall_comparable,
                          wall_tolerance=wall_tolerance)
        if baseline["core"].get("config_digest") is not None \
                and record["core"].get("config_digest") is not None \
                and baseline["core"]["config_digest"] \
                != record["core"]["config_digest"]:
            report.findings.append(Finding(
                "config-drift", "warn", label, metric="config_digest",
                baseline=str(baseline["core"]["config_digest"])[:12],
                current=str(record["core"]["config_digest"])[:12]))
    return report


def run_gate(trajectory_path: str, jobs: int = 1,
             cache: Optional[RunCache] = None,
             ledger: Optional[Ledger] = None,
             wall_tolerance: float = WALL_TOLERANCE
             ) -> Tuple[GateReport, List[Dict[str, object]], float]:
    """Measure the suite, compare, optionally append to a run ledger.

    Returns ``(report, fresh_records, wall_seconds)``.
    """
    started = host_clock_s()
    records = gate_records(jobs=jobs, cache=cache)
    trajectory = Ledger(trajectory_path).read()
    report = compare_records(trajectory, records,
                             wall_tolerance=wall_tolerance)
    if ledger is not None:
        ledger.append_all(records)
    return report, records, host_clock_s() - started


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------

#: Fixed categorical assignment order for phase colors: attribution
#: priority first, then idle, then anything new alphabetically.  Slots
#: are assigned to the *phases present*, in this order, never cycled —
#: beyond the eighth slot a phase folds into "other".
_PHASE_ORDER: Tuple[str, ...] = PHASE_PRIORITY + ("idle",)

#: Validated categorical palette (reference instance): light/dark pairs.
_SERIES = (("#2a78d6", "#3987e5"), ("#eb6834", "#d95926"),
           ("#1baf7a", "#199e70"), ("#eda100", "#c98500"),
           ("#e87ba4", "#d55181"), ("#008300", "#008300"),
           ("#4a3aa7", "#9085e9"), ("#e34948", "#e66767"))

_CSS = """\
:root { color-scheme: light dark; }
body { margin: 0; background: var(--page); color: var(--ink);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
.viz-root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb; --ink: #0b0b0b;
  --ink-2: #52514e; --muted: #898781; --grid: #e1e0d9;
  --baseline: #c3c2b7; --ring: rgba(11,11,11,0.10);
%LIGHT_SERIES%
  max-width: 960px; margin: 0 auto; padding: 24px 16px 48px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19; --ink: #ffffff;
    --ink-2: #c3c2b7; --muted: #898781; --grid: #2c2c2a;
    --baseline: #383835; --ring: rgba(255,255,255,0.10);
%DARK_SERIES%
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page: #0d0d0d; --surface-1: #1a1a19; --ink: #ffffff;
  --ink-2: #c3c2b7; --muted: #898781; --grid: #2c2c2a;
  --baseline: #383835; --ring: rgba(255,255,255,0.10);
%DARK_SERIES%
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 14px; margin: 28px 0 8px; color: var(--ink); }
.sub { color: var(--ink-2); font-size: 12px; margin: 0 0 16px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.tile { background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 10px 14px; min-width: 110px; }
.tile .v { font-size: 22px; }
.tile .k { font-size: 11px; color: var(--muted); margin-top: 2px; }
.card { background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 14px 16px; margin: 8px 0; }
.row { display: grid; grid-template-columns: 160px 1fr 110px;
  align-items: center; gap: 10px; margin: 6px 0; }
.row .lbl { font-size: 12px; color: var(--ink-2);
  overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
.row .val { font-size: 12px; text-align: right;
  font-variant-numeric: tabular-nums; }
.track { position: relative; height: 16px; }
.bar { position: absolute; top: 2px; height: 12px;
  background: var(--s1); border-radius: 0 4px 4px 0; }
.stack { display: flex; height: 14px; border-radius: 4px;
  overflow: hidden; background: var(--surface-1); }
.seg { height: 100%; border-right: 2px solid var(--surface-1); }
.seg:last-child { border-right: none; }
.legend { display: flex; gap: 14px; flex-wrap: wrap; margin: 8px 0 2px;
  font-size: 11px; color: var(--ink-2); }
.chip { display: inline-block; width: 9px; height: 9px;
  border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
table { border-collapse: collapse; width: 100%; font-size: 12px; }
th { text-align: left; color: var(--muted); font-weight: 500;
  border-bottom: 1px solid var(--baseline); padding: 4px 8px; }
td { border-bottom: 1px solid var(--grid); padding: 4px 8px;
  font-variant-numeric: tabular-nums; }
td.num, th.num { text-align: right; }
.badge { font-size: 11px; color: var(--ink-2);
  border: 1px solid var(--ring); border-radius: 10px; padding: 1px 8px; }
.foot { color: var(--muted); font-size: 11px; margin-top: 28px; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:,.3f}"
    return _esc(value)


def _pct(value: float, total: float) -> str:
    if total <= 0:
        return "0.000"
    return f"{value / total * 100.0:.3f}"


def _phase_slots(phases: Sequence[str]) -> Dict[str, int]:
    """Stable phase -> categorical-slot assignment (fixed order)."""
    ordered = [name for name in _PHASE_ORDER if name in phases]
    ordered += sorted(name for name in phases if name not in _PHASE_ORDER)
    return {name: index for index, name in enumerate(ordered)}


def _point_label(record: Dict[str, object]) -> str:
    point = record.get("core", {}).get("point", {})
    return f"{point.get('design')}/{point.get('workload')}"


def render_dashboard(records: Sequence[Dict[str, object]],
                     title: str = "Performance trajectory") -> str:
    """Static self-contained HTML from ledger records (deterministic).

    Built exclusively from the record list — identical records in,
    identical bytes out; nothing host- or time-dependent is consulted.
    """
    latest = latest_by_key(records)
    gate_latest = [record for record in latest.values()
                   if record.get("kind") == "gate"]
    gate_latest.sort(key=lambda record: _point_label(record))
    scaling = [record for record in records
               if record.get("kind") == "sweep-scaling"]
    fingerprints = {record.get("core", {}).get("fingerprint")
                    for record in records}
    fingerprints.discard(None)

    parts: List[str] = []
    parts.append(f"<h1>{_esc(title)}</h1>")
    parts.append('<p class="sub">Replay-stable cores from the run ledger; '
                 "host wall-clock shown as recorded, never compared "
                 "across machines.</p>")

    # -- stat tiles ----------------------------------------------------
    parts.append('<div class="tiles">')
    for value, label in ((len(records), "ledger records"),
                         (len(latest), "tracked points"),
                         (len(gate_latest), "gate points"),
                         (len(fingerprints), "code versions")):
        parts.append(f'<div class="tile"><div class="v">{value}</div>'
                     f'<div class="k">{_esc(label)}</div></div>')
    parts.append("</div>")

    # -- execution cycles per gate point (magnitude -> bars) -----------
    if gate_latest:
        parts.append("<h2>Execution cycles — latest per gate point</h2>")
        parts.append('<div class="card">')
        peak = max(int(record["core"]["measure"].get("execution_cycles", 0))
                   for record in gate_latest)
        for record in gate_latest:
            cycles = int(record["core"]["measure"].get(
                "execution_cycles", 0))
            label = _point_label(record)
            parts.append(
                '<div class="row">'
                f'<div class="lbl">{_esc(label)}</div>'
                f'<div class="track"><div class="bar" '
                f'style="width:{_pct(cycles, peak)}%" '
                f'title="{_esc(label)}: {cycles:,} cycles"></div></div>'
                f'<div class="val">{cycles:,}</div></div>')
        parts.append("</div>")

    # -- phase mix per gate point (identity -> stacked, categorical) ---
    phase_points = [record for record in gate_latest
                    if record["core"]["measure"].get("phase_cycles")]
    if phase_points:
        names: List[str] = []
        for record in phase_points:
            for name in record["core"]["measure"]["phase_cycles"]:
                if name not in names:
                    names.append(name)
        slots = _phase_slots(names)
        shown = [name for name, slot in sorted(slots.items(),
                                               key=lambda item: item[1])
                 if slot < len(_SERIES) - 1 or len(slots) <= len(_SERIES)]
        folded = [name for name in slots if name not in shown]

        parts.append("<h2>Phase mix — share of attributed cycles</h2>")
        parts.append('<div class="card">')
        parts.append('<div class="legend">')
        for name in shown:
            parts.append(f'<span><span class="chip" style="background:'
                         f'var(--s{slots[name] + 1})"></span>'
                         f'{_esc(name.lower())}</span>')
        if folded:
            parts.append('<span><span class="chip" style="background:'
                         'var(--muted)"></span>other</span>')
        parts.append("</div>")
        for record in phase_points:
            phases = {str(name): int(value) for name, value
                      in record["core"]["measure"]["phase_cycles"].items()}
            total = sum(phases.values())
            label = _point_label(record)
            segments = []
            other = 0
            for name in shown:
                value = phases.get(name, 0)
                if value <= 0:
                    continue
                segments.append(
                    f'<div class="seg" style="width:{_pct(value, total)}%;'
                    f'background:var(--s{slots[name] + 1})" '
                    f'title="{_esc(label)} {_esc(name.lower())}: '
                    f'{value:,} cycles ({_pct(value, total)}%)"></div>')
            for name in folded:
                other += phases.get(name, 0)
            if other > 0:
                segments.append(
                    f'<div class="seg" style="width:{_pct(other, total)}%;'
                    f'background:var(--muted)" title="{_esc(label)} other: '
                    f'{other:,} cycles"></div>')
            parts.append(
                '<div class="row">'
                f'<div class="lbl">{_esc(label)}</div>'
                f'<div class="stack">{"".join(segments)}</div>'
                f'<div class="val">{total:,}</div></div>')
        # the table view is the relief channel for low-contrast slots
        parts.append("<table><tr><th>point</th>")
        for name in shown + (["other"] if folded else []):
            parts.append(f'<th class="num">{_esc(name.lower())}</th>')
        parts.append("</tr>")
        for record in phase_points:
            phases = {str(name): int(value) for name, value
                      in record["core"]["measure"]["phase_cycles"].items()}
            parts.append(f"<tr><td>{_esc(_point_label(record))}</td>")
            for name in shown:
                parts.append(f'<td class="num">{phases.get(name, 0):,}</td>')
            if folded:
                other = sum(phases.get(name, 0) for name in folded)
                parts.append(f'<td class="num">{other:,}</td>')
            parts.append("</tr>")
        parts.append("</table></div>")

    # -- trajectory: every record per key, file order ------------------
    keyed: Dict[str, List[Dict[str, object]]] = {}
    for record in records:
        key = point_key(record)
        if key is not None:
            keyed.setdefault(key, []).append(record)
    multi = {key: entries for key, entries in sorted(keyed.items())
             if len(entries) > 1}
    if multi:
        parts.append("<h2>Trajectory — recorded history per point</h2>")
        parts.append('<div class="card"><table>')
        parts.append('<tr><th>point</th><th class="num">entry</th>'
                     '<th class="num">execution cycles</th>'
                     '<th class="num">delta</th><th>fingerprint</th>'
                     '<th class="num">wall ms (as recorded)</th></tr>')
        for key, entries in multi.items():
            previous: Optional[int] = None
            for index, record in enumerate(entries):
                cycles = record["core"]["measure"].get("execution_cycles")
                delta = ""
                cycles_text = ""
                if isinstance(cycles, int):
                    cycles_text = f"{cycles:,}"
                    if previous is not None:
                        delta = f"{cycles - previous:+,}"
                    previous = cycles
                wall = record.get("host", {}).get("wall_ms")
                wall_text = _fmt(wall) if wall is not None else ""
                fingerprint = str(
                    record["core"].get("fingerprint", ""))[:12]
                parts.append(
                    f"<tr><td>{_esc(_point_label(record))}</td>"
                    f'<td class="num">{index + 1}</td>'
                    f'<td class="num">{cycles_text}</td>'
                    f'<td class="num">{delta}</td>'
                    f"<td>{_esc(fingerprint)}</td>"
                    f'<td class="num">{wall_text}</td></tr>')
        parts.append("</table></div>")

    # -- sweep scaling -------------------------------------------------
    if scaling:
        parts.append("<h2>Sweep scaling — wall-clock, machine-qualified"
                     "</h2>")
        parts.append('<div class="card"><table>')
        parts.append('<tr><th>fingerprint</th><th class="num">points</th>'
                     '<th class="num">jobs</th><th class="num">cpus</th>'
                     '<th class="num">serial s</th>'
                     '<th class="num">parallel s</th>'
                     '<th class="num">speedup</th><th>note</th></tr>')
        for record in scaling:
            measure = record["core"]["measure"]
            note = ("&#9888; single-core host"
                    if measure.get("single_core_caveat") else "")
            parts.append(
                f"<tr><td>{_esc(str(record['core'].get('fingerprint'))[:12])}"
                f'</td><td class="num">{_fmt(measure.get("points"))}</td>'
                f'<td class="num">{_fmt(measure.get("jobs"))}</td>'
                f'<td class="num">{_fmt(measure.get("cpu_count"))}</td>'
                f'<td class="num">{_fmt(measure.get("serial_wall_s"))}</td>'
                f'<td class="num">'
                f'{_fmt(measure.get("parallel_wall_s"))}</td>'
                f'<td class="num">{_fmt(measure.get("speedup"))}</td>'
                f'<td><span class="badge">{note}</span></td></tr>')
        parts.append("</table></div>")

    parts.append('<p class="foot">Deterministic render: built from '
                 "ledger record cores only. Wall-clock values are the "
                 "volatile host section, shown as recorded and excluded "
                 "from record digests and byte-identity checks.</p>")

    light = "".join(f"  --s{i + 1}: {pair[0]};\n"
                    for i, pair in enumerate(_SERIES))
    dark = "".join(f"    --s{i + 1}: {pair[1]};\n"
                   for i, pair in enumerate(_SERIES))
    css = (_CSS.replace("%LIGHT_SERIES%", light.rstrip("\n"))
           .replace("%DARK_SERIES%", dark.rstrip("\n")))
    return ("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            "<meta charset=\"utf-8\">\n"
            f"<title>{_esc(title)}</title>\n"
            f"<style>\n{css}</style>\n</head>\n<body>\n"
            '<main class="viz-root">\n' + "\n".join(parts)
            + "\n</main>\n</body>\n</html>\n")


def trajectory_summary(records: Sequence[Dict[str, object]]) -> str:
    """Plain-text digest of a trajectory file (``perf-report``)."""
    latest = latest_by_key(records)
    lines = [f"records: {len(records)}", f"tracked points: {len(latest)}"]
    for key in sorted(latest):
        record = latest[key]
        measure = record["core"].get("measure", {})
        cycles = measure.get("execution_cycles")
        extra = f" execution_cycles={cycles:,}" \
            if isinstance(cycles, int) else ""
        lines.append(f"  {record['kind']} {_point_label(record)}"
                     f" entries={sum(1 for other in records if point_key(other) == key)}"
                     f"{extra}")
    scaling = [record for record in records
               if record.get("kind") == "sweep-scaling"]
    for record in scaling:
        measure = record["core"]["measure"]
        caveat = " [single-core host]" \
            if measure.get("single_core_caveat") else ""
        lines.append(f"  sweep-scaling jobs={measure.get('jobs')}"
                     f" speedup={measure.get('speedup')}{caveat}")
    return "\n".join(lines)
