"""A dedicated-CPU-thread validation engine (Fig. 6(c)'s baseline).

Section 5.1 contrasts ROCoCoTM's pipelined FPGA validation with "the
exclusive validation on a dedicated thread in a previous centralized
validation scheme" (Mehrara et al., PLDI 2009): same centralized
ROCoCo decisions, but validations execute *serially in software* —
each request occupies the validator for its full duration, and the
bit-matrix work that costs the FPGA one cycle costs a CPU a pass over
the resident window per address.

This engine is decision-identical to :class:`FpgaValidationEngine`
(it drives the very same :class:`ValidationManager`) and differs only
in the service model, so plugging it into ``RococoTMBackend`` isolates
exactly the contribution of the hardware pipeline — the Fig. 6(d)
argument, regenerated by ``bench_fig06_meta_pipeline.py``.

Note the service-time constants below model the *simulated* software
validator of the comparison scheme; they are untouched by the PR 10
host-side vectorization of the decision path (which accelerates the
Python model itself, not the modelled hardware — DESIGN.md, "Verdict
bit-identity").
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..signatures import SignatureConfig
from .engine import FpgaValidationEngine
from .link import InterconnectLink
from .manager import ValidationManager, ValidationRequest

#: shared-memory queue handoff to/from the validator thread (ns).
QUEUE_HANDOFF_NS = 90.0
#: software conflict check: one signature query per address against
#: every resident bookkeeping entry (no W-way parallelism).
CHECK_PER_ADDRESS_PER_SLOT_NS = 1.6
#: serial matrix probe/update per resident transaction (big-int ops).
MATRIX_PER_SLOT_NS = 2.2
BASE_NS = 60.0


def _software_link() -> InterconnectLink:
    return InterconnectLink(
        to_device_ns=QUEUE_HANDOFF_NS, from_device_ns=QUEUE_HANDOFF_NS, beat_ns=0.0
    )


class SoftwareValidationEngine(FpgaValidationEngine):
    """Serial software validation on a dedicated core."""

    def __init__(
        self,
        window: int = 64,
        config: Optional[SignatureConfig] = None,
        manager: Optional[ValidationManager] = None,
    ):
        super().__init__(
            window=window, config=config, link=_software_link(), manager=manager
        )

    def _service(
        self, request: ValidationRequest, now_ns: float
    ) -> Tuple[float, float, float]:
        """Serial service: the validator is busy for the whole service
        time, which grows with the resident window."""
        resident = max(1, self.manager.detector.resident)
        service_ns = (
            BASE_NS
            + CHECK_PER_ADDRESS_PER_SLOT_NS * request.n_addresses * resident
            + MATRIX_PER_SLOT_NS * resident
        )
        arrived = now_ns + self.link.request_ns(1)
        started = max(arrived, self._pipeline_free_ns)
        self._pipeline_free_ns = started + service_ns
        return arrived, started, self._pipeline_free_ns
