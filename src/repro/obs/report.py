"""Render a JSONL trace into per-layer summary tables.

``repro report run.trace.jsonl`` prints, from a single trace file:

* per-layer event counts (what actually happened, at a glance),
* the top timers from the merged metrics snapshot the
  :class:`~repro.obs.trace.ObsSession` appended as the final
  ``obs.metrics`` event,
* a fault-event timeline (injected faults, A-HDR misses/false matches,
  RTE guard rejections, chunk retries),
* the fallback protocol's state transitions (demote → re-promote), the
  first thing to look at when goodput collapses under a fault plan.
"""

from __future__ import annotations

import json
import os

__all__ = [
    "load_events",
    "final_metrics",
    "event_counts",
    "timer_rows",
    "fault_timeline",
    "fallback_transitions",
    "format_report",
    "format_status",
]

#: Event names (beyond the ``fault-*`` family) that belong on the fault
#: timeline.
FAULT_EVENT_NAMES = frozenset({
    "ahdr_miss", "ahdr_false_match", "ack_desync",
    "rte_reject", "rte_recover",
})

#: Fallback protocol state transitions.
TRANSITION_EVENT_NAMES = frozenset({"demote", "repromote"})


def load_events(path) -> list:
    """Parse a JSONL trace file into a list of event dicts.

    A *final* line that opens a JSON object but fails to parse is
    tolerated and skipped — that is the ≤1-orphan artifact a hard kill
    mid-append leaves, the same one ``trim_epoch_records`` trims on
    resume. A malformed line anywhere else (or a final line that is not
    even truncated JSON) is corruption and raises ``ValueError``.
    """
    events = []
    held: tuple | None = None  # (line_no, line, exc) awaiting tail check
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if held is not None:
                bad_no, bad_line, exc = held
                raise ValueError(
                    f"{path}:{bad_no}: not valid JSON: {exc}") from exc
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                held = (line_no, line, exc)
    if held is not None and not held[1].startswith("{"):
        bad_no, _bad_line, exc = held
        raise ValueError(f"{path}:{bad_no}: not valid JSON: {exc}") from exc
    return events


def final_metrics(events) -> dict:
    """The merged metrics snapshot from the last ``obs.metrics`` event."""
    for record in reversed(events):
        if record.get("layer") == "obs" and record.get("event") == "metrics":
            return record.get("metrics", {})
    return {}


def event_counts(events) -> dict:
    """``{(layer, event): count}`` over every trace record."""
    counts: dict = {}
    for record in events:
        key = (record.get("layer", "?"), record.get("event", "?"))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _is_fault_event(name: str) -> bool:
    return name.startswith("fault") or name in FAULT_EVENT_NAMES


def timer_rows(metrics: dict, top: int = 15) -> list:
    """Timer table rows ``(name, count, total_s, mean_s, max_s)`` sorted
    by total time descending."""
    rows = []
    for name, data in metrics.get("timers", {}).items():
        count = data["count"]
        mean = data["total"] / count if count else 0.0
        rows.append((name, count, data["total"], mean, data["max"]))
    rows.sort(key=lambda r: r[2], reverse=True)
    return rows[:top]


def fault_timeline(events, limit: int = 60) -> list:
    """Fault-related events, in trace order (capped at ``limit``)."""
    timeline = [r for r in events if _is_fault_event(r.get("event", ""))]
    return timeline[:limit]


def fallback_transitions(events) -> list:
    """Demote / re-promote events from the fallback protocol, in order."""
    return [r for r in events if r.get("event") in TRANSITION_EVENT_NAMES]


def _fmt_event_line(record) -> str:
    head = f"  #{record.get('seq', '?'):>6}"
    ts = record.get("ts")
    if ts is not None:
        head += f"  {ts:>10.6f}s"
    cid = record.get("cid")
    body = f"  {record.get('layer', '?')}.{record.get('event', '?')}"
    extras = {k: v for k, v in record.items()
              if k not in ("seq", "ts", "layer", "event", "cid", "metrics")}
    if cid:
        body += f"  [{cid}]"
    if extras:
        body += "  " + " ".join(f"{k}={v}" for k, v in extras.items())
    return head + body


def format_report(path, *, top: int = 15, timeline_limit: int = 60) -> str:
    """The full human-readable report for one trace file."""
    events = load_events(path)
    lines = [f"Trace report: {path}", f"  {len(events)} events", ""]

    counts = event_counts(events)
    if counts:
        lines.append("Event counts by layer")
        width = max(len(f"{layer}.{event}") for layer, event in counts)
        for (layer, event), n in sorted(
                counts.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {f'{layer}.{event}':<{width}}  {n:>8}")
        lines.append("")

    metrics = final_metrics(events)
    rows = timer_rows(metrics, top=top)
    if rows:
        lines.append(f"Top timers (by total time, top {top})")
        width = max(len(name) for name, *_ in rows)
        lines.append(
            f"  {'timer':<{width}}  {'count':>8}  {'total':>10}  "
            f"{'mean':>10}  {'max':>10}")
        for name, count, total, mean, max_s in rows:
            lines.append(
                f"  {name:<{width}}  {count:>8}  {total:>9.4f}s  "
                f"{mean:>9.6f}s  {max_s:>9.6f}s")
        lines.append("")
    counters = metrics.get("counters", {})
    if counters:
        lines.append("Counters")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]:>10}")
        lines.append("")

    timeline = fault_timeline(events, limit=timeline_limit)
    if timeline:
        lines.append(f"Fault timeline (first {len(timeline)})")
        lines.extend(_fmt_event_line(r) for r in timeline)
        lines.append("")

    transitions = fallback_transitions(events)
    if transitions:
        demotes = sum(1 for r in transitions if r["event"] == "demote")
        lines.append(
            f"Fallback transitions ({demotes} demote, "
            f"{len(transitions) - demotes} repromote)")
        lines.extend(_fmt_event_line(r) for r in transitions)
        lines.append("")

    if len(lines) == 3:
        lines.append("(empty trace)")
    return "\n".join(lines).rstrip() + "\n"


def _fmt_rate(bps: float) -> str:
    return f"{bps / 1e6:.2f}"


def format_status(directory, *, tail: int = 8) -> str:
    """One render of a soak checkpoint's live state: ``health.json``
    verdict and the last ``tail`` telemetry epochs — what
    ``repro status <dir>`` prints.

    Reads only the atomic / append-only artifacts, so it is safe to run
    against a directory a live soak is actively writing.
    """
    from .slo import read_health
    from .telemetry import read_telemetry_records, telemetry_paths

    directory = os.fspath(directory)
    lines = [f"Soak status: {directory}"]

    health = read_health(directory)
    if health is not None:
        lines.append(
            f"  health: {health.get('status', '?')} "
            f"(epoch {health.get('epoch', '?')}, "
            f"{health.get('epochs_completed', '?')} epochs completed)")
        for slo in health.get("slos", ()):
            lines.append(f"  slo: {slo}")
        for breach in health.get("breaches", ()):
            lines.append(
                f"  BREACH {breach.get('slo', '?')}: value "
                f"{breach.get('value', float('nan')):.6g} at epoch "
                f"{breach.get('epoch', '?')} (policy "
                f"{breach.get('policy', '?')})")
    else:
        lines.append("  health: (no health.json — run without SLO watchdogs?)")
    lines.append("")

    if os.path.exists(telemetry_paths(directory)["telemetry"]):
        window: list = []
        for record in read_telemetry_records(directory):
            window.append(record)
            if len(window) > tail:
                window.pop(0)
        if window:
            lines.append(f"Last {len(window)} epoch(s)")
            lines.append(
                f"  {'epoch':>6}  {'goodput':>9}  {'useful':>9}  "
                f"{'tx':>7}  {'coll':>6}  {'dem':>4}  {'rep':>4}  "
                f"{'fault%':>6}  {'wall':>7}  {'fr/s':>8}  {'rss':>7}")
            lines.append(
                f"  {'':>6}  {'Mbit/s':>9}  {'Mbit/s':>9}  "
                f"{'':>7}  {'':>6}  {'':>4}  {'':>4}  "
                f"{'':>6}  {'s':>7}  {'':>8}  {'MiB':>7}")
            for record in window:
                det, wall = record.get("det", {}), record.get("wall", {})
                lines.append(
                    f"  {record.get('epoch', '?'):>6}"
                    f"  {_fmt_rate(det.get('goodput_bps', 0.0)):>9}"
                    f"  {_fmt_rate(det.get('useful_goodput_bps', 0.0)):>9}"
                    f"  {det.get('transmissions', 0):>7}"
                    f"  {det.get('collisions', 0):>6}"
                    f"  {det.get('demotions', 0):>4}"
                    f"  {det.get('repromotions', 0):>4}"
                    f"  {det.get('fault_occupancy', 0.0) * 100:>5.1f}%"
                    f"  {wall.get('wall_seconds', 0.0):>6.2f}s"
                    f"  {wall.get('frames_per_wall_s', 0.0):>8.0f}"
                    f"  {wall.get('rss_mb', 0.0):>7.1f}")
            lines.append("")
    else:
        lines.append("(no telemetry.jsonl — run with --telemetry)")
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
