"""Observability: request-scoped tracing and a process-wide metrics registry.

Usage, end to end::

    from repro import obs

    tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        VoltageSystem(model, cluster).run(ids)      # emits phase + sim spans
    obs.write_chrome_trace(tracer, "out.json")      # load in Perfetto
    print(obs.summary_table(tracer))
    print(obs.get_registry().summary())             # counters / histograms

Everything in :mod:`repro` is instrumented against :func:`current_tracer`
and :func:`get_registry`, both of which are no-ops-by-default, so tracing
adds no measurable cost until a tracer is installed.
"""

from repro.obs.export import (
    chrome_trace_events,
    summary_table,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    use_registry,
)
from repro.obs.table import format_aligned
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "set_tracer",
    "use_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "use_registry",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "summary_table",
    "format_aligned",
]
