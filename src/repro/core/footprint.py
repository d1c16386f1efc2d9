"""What a transaction submits for validation and the verdict it gets
back: the records shared by every footprint-level validator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Iterable, Optional

Address = Hashable


@dataclass(frozen=True)
class Footprint:
    """The memory footprint a transaction submits for validation."""

    read_set: FrozenSet[Address]
    write_set: FrozenSet[Address]
    #: committed transactions with commit index < snapshot observed.
    snapshot: int
    label: Hashable = None

    @staticmethod
    def of(
        reads: Iterable[Address],
        writes: Iterable[Address],
        snapshot: int,
        label: Hashable = None,
    ) -> "Footprint":
        return Footprint(frozenset(reads), frozenset(writes), snapshot, label)

    @property
    def is_read_only(self) -> bool:
        return not self.write_set


@dataclass(frozen=True)
class Decision:
    """Validator verdict for one transaction."""

    committed: bool
    #: why an abort happened: None, "cycle", "window-overflow", or
    #: (a refused certify) "stale".
    reason: Optional[str] = None
    #: index in commit order when committed (read-only txns get -1).
    commit_index: int = -1
    forward: int = 0
    backward: int = 0
