"""Static contract analysis for the repro runtime.

One analyzer, one CLI (``repro analyze``), one report format.  The
package has three layers:

* :mod:`repro.analysis.registry` — the declared contracts: every legal
  event kind with its payload schema, every legal metric name with its
  instrument.  Dependency-free on purpose: the *runtime* imports it
  (``EventBus.emit`` asserts against it under ``__debug__``) and the
  *analyzer* checks call sites against it, so both enforcement layers
  share a single source of truth.
* :mod:`repro.analysis.passes` — the rules.  TM001-TM004 are the
  scoped source rules (validator determinism, mutable defaults, backend
  lock discipline, frozen records); TM101+ are the contract passes
  (determinism, event/metric schema, memory effects).
* :mod:`repro.analysis.framework` — the driver: per-file analysis with
  inline suppressions, baseline filtering, and a result cache keyed on
  the repo source fingerprint.

This ``__init__`` resolves its exports lazily (module ``__getattr__``)
because ``repro.runtime.events`` imports ``repro.analysis.registry``
at interpreter startup: an eager ``from .framework import ...`` here
would drag in ``repro.exec`` -> runner -> runtime while ``events`` is
still half-initialized.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    # findings layer
    "Finding": ("repro.analysis.findings", "Finding"),
    "Baseline": ("repro.analysis.findings", "Baseline"),
    "load_baseline": ("repro.analysis.findings", "load_baseline"),
    "DEFAULT_BASELINE": ("repro.analysis.findings", "DEFAULT_BASELINE"),
    "suppressed_rules": ("repro.analysis.findings", "suppressed_rules"),
    "is_suppressed": ("repro.analysis.findings", "is_suppressed"),
    # framework layer
    "RULE_IDS": ("repro.analysis.framework", "RULE_IDS"),
    "parse_rules": ("repro.analysis.framework", "parse_rules"),
    "analyze_source": ("repro.analysis.framework", "analyze_source"),
    "analyze_paths": ("repro.analysis.framework", "analyze_paths"),
    "analyze_paths_cached": ("repro.analysis.framework", "analyze_paths_cached"),
    "apply_baseline": ("repro.analysis.framework", "apply_baseline"),
    "baseline_from": ("repro.analysis.framework", "baseline_from"),
    "iter_python_files": ("repro.analysis.framework", "iter_python_files"),
    # the registry module itself
    "registry": ("repro.analysis.registry", None),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
