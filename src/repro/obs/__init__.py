"""Observability: span tracing and counters across the fusion pipeline.

See :mod:`repro.obs.recorder` for the recording API and
:mod:`repro.obs.exporters` for the output formats (JSONL, unified
Perfetto trace, console summary, Prometheus text). ``docs/observability.md``
is the user guide.
"""

from . import names
# recorder first: the schedulers imported via memtrace need `current`
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    Span,
    current,
    recording,
    set_recorder,
)
from .exporters import (
    export_jsonl,
    export_perfetto,
    export_prometheus,
    format_summary,
    stage_breakdown,
)
from .memtrace import (
    DependenceViolationError,
    SanitizeReport,
    Violation,
    sanitize_schedule,
)

__all__ = [
    "names",
    "DependenceViolationError",
    "SanitizeReport",
    "Violation",
    "sanitize_schedule",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "Span",
    "current",
    "recording",
    "set_recorder",
    "export_jsonl",
    "export_perfetto",
    "export_prometheus",
    "format_summary",
    "stage_breakdown",
]
