"""Findings, inline suppressions, and the checked-in baseline.

A :class:`Finding` is one rule violation at one source location.  Two
mechanisms silence a finding without fixing it:

* **inline suppression** — a comment on the offending line.
  ``# tm: ignore[TM101]`` suppresses the named rule(s) (comma
  separated); ``# tm: ignore`` suppresses every rule on the line.
  Every suppression is expected to carry a justification in the
  surrounding code (docs/ANALYSIS.md).
* **baseline** — a checked-in JSON file of known findings that are
  tolerated until paid down.  Entries match on ``(path, rule,
  stripped source line)`` rather than line numbers, so unrelated edits
  above a baselined finding don't resurrect it.

The repo's own baseline (``analysis-baseline.json``) is empty: every
true violation the analyzer surfaced was fixed or inline-suppressed
with a rationale.  The machinery exists for downstream growth — a new
rule can land gated, with its existing debt baselined, without
blocking CI.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

BASELINE_VERSION = 1
#: the default checked-in baseline filename, looked up in the CWD.
DEFAULT_BASELINE = "analysis-baseline.json"

_SUPPRESS_ALL_MARK = "# tm: ignore"
_SUPPRESS_RULES_RE = re.compile(r"#\s*tm:\s*ignore\[([A-Za-z0-9,\s-]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


def suppressed_rules(line_text: str) -> Optional[Set[str]]:
    """The rules an inline comment on *line_text* suppresses.

    Returns None (nothing suppressed), a set of rule ids, or the
    sentinel :data:`ALL_RULES` (empty set means *all*: a bare
    ``# tm: ignore`` suppresses every rule).
    """
    match = _SUPPRESS_RULES_RE.search(line_text)
    if match is not None:
        return {rule.strip().upper() for rule in match.group(1).split(",") if rule.strip()}
    if _SUPPRESS_ALL_MARK in line_text:
        return set()  # empty set = suppress all rules on the line
    return None


def is_suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    """True if *finding*'s source line carries a matching suppression."""
    if not 0 < finding.line <= len(lines):
        return False
    rules = suppressed_rules(lines[finding.line - 1])
    if rules is None:
        return False
    return not rules or finding.rule in rules


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def _context_of(finding: Finding, lines: Sequence[str]) -> str:
    if 0 < finding.line <= len(lines):
        return lines[finding.line - 1].strip()
    return ""


class Baseline:
    """A multiset of tolerated findings keyed by content, not line.

    ``filter`` consumes one baseline entry per matching finding, so a
    *second* identical violation on a new line still fails the build.
    """

    def __init__(self, entries: Optional[Sequence[dict]] = None) -> None:
        self._entries: Dict[Tuple[str, str, str], int] = {}
        for entry in entries or ():
            self.add_entry(entry["path"], entry["rule"], entry["context"])

    def __len__(self) -> int:
        return sum(self._entries.values())

    def add_entry(self, path: str, rule: str, context: str) -> None:
        key = (path, rule, context)
        self._entries[key] = self._entries.get(key, 0) + 1

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path) -> "Baseline":
        with open(path) as source:
            payload = json.load(source)
        if payload.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {payload.get('version')!r}"
            )
        return cls(payload.get("entries", ()))

    def dump(self, path) -> None:
        entries = []
        for (file_path, rule, context), count in sorted(self._entries.items()):
            entries.extend(
                {"path": file_path, "rule": rule, "context": context}
                for _ in range(count)
            )
        payload = {"version": BASELINE_VERSION, "entries": entries}
        with open(path, "w") as sink:
            json.dump(payload, sink, indent=1, sort_keys=True)
            sink.write("\n")

    @classmethod
    def from_findings(
        cls, findings: Sequence[Finding], sources: Dict[str, Sequence[str]]
    ) -> "Baseline":
        baseline = cls()
        for finding in findings:
            baseline.add_entry(
                finding.path,
                finding.rule,
                _context_of(finding, sources.get(finding.path, ())),
            )
        return baseline

    # ------------------------------------------------------------------
    def filter(
        self, findings: Sequence[Finding], sources: Dict[str, Sequence[str]]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Split *findings* into (new, baselined)."""
        budget = dict(self._entries)
        new: List[Finding] = []
        baselined: List[Finding] = []
        for finding in findings:
            key = (
                finding.path,
                finding.rule,
                _context_of(finding, sources.get(finding.path, ())),
            )
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                baselined.append(finding)
            else:
                new.append(finding)
        return new, baselined


def load_baseline(path=None) -> Optional[Baseline]:
    """The baseline at *path* (or the default, if present), else None."""
    if path is None:
        candidate = Path(DEFAULT_BASELINE)
        if not candidate.is_file():
            return None
        path = candidate
    return Baseline.load(path)
