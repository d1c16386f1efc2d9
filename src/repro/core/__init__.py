"""The ROCoCo algorithm (paper section 4) — the primary contribution.

Layers, bottom-up:

* :class:`WindowMatrix` — the reachability matrix with O(1)-depth
  cycle detection (Warshall's fact + its dual, Fig. 4), Python
  big-ints standing in for the FPGA's wide registers.  Bounded to W
  slots it adds shift-out eviction and taint (Fig. 5);
  ``window=None`` is the unbounded closure.
* :class:`RococoValidator` — footprint-level OCC validation over an
  unbounded committed set (used by the Fig. 9 experiments).  The
  bounded W-slot variant the FPGA implements (Fig. 5) is
  :class:`repro.hw.ValidationManager`, over bloom or exact edges.
* :class:`BatchRococoValidator` — the §7 future-work extension: a
  non-greedy validator with a global view over each batch.
"""

from .batch import BatchOutcome, BatchRococoValidator
from .rococo import Decision, Footprint, RococoValidator, tocc_would_abort
from .window import WindowMatrix

__all__ = [
    "BatchOutcome",
    "BatchRococoValidator",
    "Decision",
    "Footprint",
    "RococoValidator",
    "WindowMatrix",
    "tocc_would_abort",
]
