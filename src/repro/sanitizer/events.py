"""The sanitizer's event-log format.

One :class:`TxEvent` per backend hook invocation, stamped with the
simulated time at which the operation completed.  ``attempt`` is a
globally unique id per transaction *attempt* (retries of the same
atomic block get fresh ids), matching the attempt ids the recording
layer feeds to :class:`repro.semantics.History` — so an event log and
the history it induced use the same vocabulary.

For READ events, ``version`` names the attempt whose committed write
produced the observed value (``-1`` for the initial, pre-run value),
exactly :data:`repro.semantics.INITIAL_VERSION`'s convention.

The log round-trips through plain dicts (:meth:`TxEvent.to_dict` /
:meth:`EventLog.dump_jsonl`) so recorded executions can be archived
and re-checked offline without re-running the simulation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Iterator, List, Optional

from ..analysis.registry import HISTORY_KINDS


@dataclass(frozen=True)
class TxEvent:
    """One recorded backend operation."""

    kind: str
    attempt: int
    tid: int
    time: float
    addr: Optional[int] = None
    value: Any = None
    #: for reads: attempt id of the writer whose value was observed.
    version: Optional[int] = None
    #: for aborts: the backend's abort cause string.
    cause: Optional[str] = None

    def __post_init__(self):
        if self.kind not in HISTORY_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None or k == "value"}

    @classmethod
    def from_dict(cls, data: dict) -> "TxEvent":
        return cls(
            kind=data["kind"],
            attempt=data["attempt"],
            tid=data["tid"],
            time=data["time"],
            addr=data.get("addr"),
            value=data.get("value"),
            version=data.get("version"),
            cause=data.get("cause"),
        )


class EventLog:
    """An append-only sequence of :class:`TxEvent`."""

    def __init__(self, events: Optional[Iterable[TxEvent]] = None):
        self._events: List[TxEvent] = list(events or ())

    def append(self, event: TxEvent) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TxEvent]:
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def of_attempt(self, attempt: int) -> List[TxEvent]:
        return [e for e in self._events if e.attempt == attempt]

    def reads_of(self, attempt: int) -> List[TxEvent]:
        return [e for e in self._events if e.attempt == attempt and e.kind == "read"]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def dump_jsonl(self) -> str:
        """One JSON object per line; values must be JSON-serializable."""
        return "\n".join(json.dumps(e.to_dict(), sort_keys=True) for e in self._events)

    @classmethod
    def load_jsonl(cls, text: str) -> "EventLog":
        return cls(
            TxEvent.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        )
