"""Observability: pass-level tracing and metrics for the compiler stack.

The paper's claim that "every device is (almost) equal before the
compiler" is only testable when each compilation can say *where* it
spent its time and gates — per pass, per device.  Mature mappers (tket,
MQT QMAP) expose per-pass diagnostics for exactly this reason: routing
cost is dominated by a few hot passes.  This zero-dependency package
gives the stack the same visibility:

* :mod:`repro.obs.tracer` — :class:`Tracer` (nested monotonic spans with
  gate/depth/swap deltas and counters, thread/process-safe),
  :class:`NullTracer` (the free disabled path), and the module-level
  :func:`trace_span` / :func:`add_counter` entry points instrumentation
  calls;
* :mod:`repro.obs.export` — Chrome-trace (``chrome://tracing`` /
  Perfetto event format) and JSON exporters plus the per-pass
  summariser behind ``repro trace summarize``.

Producers: :func:`repro.core.pipeline.compile_circuit` wraps every
pipeline stage in a span; the routers report per-run counters (SABRE
swap candidates scored, A* node expansions, native-kernel vs fallback
layers); the compile service forwards tracing into batch workers and
merges their spans back.  Consumers: ``--trace FILE`` on the ``map``
and ``batch`` CLI commands.  See ``docs/observability.md``.
"""

from .export import (
    format_summary,
    load_trace,
    summarize_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    add_counter,
    current_tracer,
    trace_span,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "add_counter",
    "current_tracer",
    "format_summary",
    "load_trace",
    "summarize_trace",
    "to_chrome_trace",
    "trace_span",
    "use_tracer",
    "write_chrome_trace",
]
