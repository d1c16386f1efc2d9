"""The TM sanitizer suite: dynamic execution checking.

The paper's argument (§3 axioms, §4 reachability validation) rests on
every backend committing *only* serializable histories.  This package
is the independent machinery that checks what the runtimes and CC
engines actually commit:

* :mod:`repro.sanitizer.events` — the per-access event-log format
  (begin/read/write/commit/abort with observed versions and simulated
  times) that every check consumes.
* :mod:`repro.sanitizer.dynamic` — :class:`SanitizerBackend`, an
  instrumentation wrapper for any :class:`repro.runtime.TMBackend`;
  replays the recorded log through the :mod:`repro.semantics` oracles
  and flags serializability violations, opacity violations (zombie
  snapshots), lost updates, doomed-transaction reads and write-back
  races.  Also the differential mode (same workload, two backends).
* :mod:`repro.sanitizer.tracecheck` — the same oracle replay for the
  trace-level CC algorithms of :mod:`repro.cc`.
* :mod:`repro.sanitizer.selfcheck` — known-bad fixtures that every
  check must catch; ``repro sanitize --self-check`` runs them.
* :mod:`repro.sanitizer.pytest_plugin` — the ``tm_sanitizer`` fixture.

The repo-specific AST rules (TM001-TM004: determinism, mutable
defaults, backend lock discipline, frozen trace/view dataclasses) are
analyzer passes in :mod:`repro.analysis.passes.legacy`.

CLI: ``repro sanitize`` and ``repro analyze`` (see :mod:`repro.cli`).
Docs: ``docs/SANITIZER.md``.
"""

from .dynamic import SanitizerBackend, diff_backends, run_sanitized, sanitize_stamp
from .events import EventLog, TxEvent
from .report import SanitizeReport, Violation
from .tracecheck import check_trace_algorithm, record_trace_history

__all__ = [
    "EventLog",
    "SanitizeReport",
    "SanitizerBackend",
    "TxEvent",
    "Violation",
    "check_trace_algorithm",
    "diff_backends",
    "record_trace_history",
    "run_sanitized",
    "sanitize_stamp",
]
