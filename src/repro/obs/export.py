"""Trace exporters: Chrome ``trace_event`` JSON and a text summary table.

The JSON exporter emits the *JSON Object Format* of the Trace Event spec
(``{"traceEvents": [...]}``) using complete events (``"ph": "X"``) with
microsecond ``ts``/``dur``, plus ``"M"`` metadata events naming the two
processes (wall-clock vs modeled time) and one thread per tracer track —
the file loads directly in ``chrome://tracing`` and in Perfetto.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from repro.obs.table import format_aligned
from repro.obs.tracer import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "summary_table",
]

#: Process ids for the two time domains of a trace.
DOMAIN_PIDS = {"wall": 1, "model": 2}
DOMAIN_LABELS = {"wall": "wall-clock", "model": "modeled time"}


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """All spans as Trace Event dicts, metadata events first."""
    spans = list(tracer.spans)
    events: list[dict] = []
    tids: dict[tuple[int, str], int] = {}

    for domain, pid in DOMAIN_PIDS.items():
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": DOMAIN_LABELS[domain]},
        })

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == pid]) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tids[key],
                "args": {"name": track},
            })
        return tids[key]

    for span in spans:
        pid = DOMAIN_PIDS[span.domain]
        args = {"kind": span.kind, **span.args}
        if span.layer is not None:
            args["layer"] = span.layer
        if span.device is not None:
            args["device"] = span.device
        if span.nbytes is not None:
            args["nbytes"] = span.nbytes
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "ts": span.start_s * 1e6,
            "dur": span.duration_s * 1e6,
            "pid": pid,
            "tid": tid_for(pid, span.track),
            "args": args,
        })
    return events


def to_chrome_trace(tracer: Tracer) -> dict:
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs (Voltage reproduction)"},
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Serialise the trace to ``path``; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(tracer), indent=1))
    return path


def summary_table(tracer: Tracer) -> str:
    """Aggregate spans by (category, name): count, total/mean time, bytes."""
    groups: dict[tuple[str, str, str], list[Span]] = defaultdict(list)
    for span in tracer.spans:
        groups[(span.cat, span.kind, span.name)].append(span)

    rows = [["cat", "kind", "span", "count", "total ms", "mean ms", "MB"]]
    for (cat, kind, name), spans in sorted(groups.items()):
        total = sum(s.duration_s for s in spans)
        nbytes = sum(s.nbytes for s in spans if s.nbytes is not None)
        rows.append([
            cat, kind, name, str(len(spans)),
            f"{total * 1e3:.3f}", f"{total / len(spans) * 1e3:.3f}",
            f"{nbytes / 1e6:.3f}" if nbytes else "-",
        ])
    return format_aligned(rows)
