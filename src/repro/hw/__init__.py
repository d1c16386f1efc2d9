"""The FPGA offload engine, functionally simulated (§4.2, §5, §6.5).

Substitution note (see DESIGN.md): the paper's Arria 10 bitstream is
replaced by a transaction-level model that is *decision-identical* to
the RTL description (same signatures, same matrix, same window
semantics) and time-modelled from the paper's own constants (200 MHz,
CCI latencies from §6.2 footnote 8).

* :class:`ClockDomain`, :class:`InterconnectLink`, :class:`LatencyQueue`
  — timing substrate.
* :class:`ConflictDetector` — W-way parallel signature compare.
* :class:`ExactDetector` — the same surface over exact read/write
  sets: the reference edge source.
* :class:`ValidationManager` — overflow/cycle decision + matrix update
  over either detector.
* :class:`FpgaValidationEngine` — the pipelined whole, with queueing.
* :func:`estimate` — the §6.5 resource/Fmax model.
"""

from .clock import DEFAULT_FREQUENCY_HZ, ClockDomain
from .detector import Bookkeeping, ConflictDetector, ExactDetector
from .engine import MANAGER_CYCLES, FpgaValidationEngine, ValidationResponse
from .link import (
    ADDRESSES_PER_CACHELINE,
    CACHELINE_BYTES,
    InterconnectLink,
    harp2_cci_link,
    pcie_link,
)
from .manager import ValidationManager, ValidationRequest
from .queues import LatencyQueue
from .software_engine import SoftwareValidationEngine
from .resources import (
    DEVICE_ALMS,
    DEVICE_BRAM_BITS,
    DEVICE_DSPS,
    DEVICE_REGISTERS,
    ResourceEstimate,
    estimate,
    paper_table,
)

__all__ = [
    "ADDRESSES_PER_CACHELINE",
    "Bookkeeping",
    "CACHELINE_BYTES",
    "ClockDomain",
    "ConflictDetector",
    "DEFAULT_FREQUENCY_HZ",
    "DEVICE_ALMS",
    "DEVICE_BRAM_BITS",
    "DEVICE_DSPS",
    "DEVICE_REGISTERS",
    "ExactDetector",
    "FpgaValidationEngine",
    "InterconnectLink",
    "LatencyQueue",
    "MANAGER_CYCLES",
    "ResourceEstimate",
    "SoftwareValidationEngine",
    "ValidationManager",
    "ValidationRequest",
    "ValidationResponse",
    "estimate",
    "harp2_cci_link",
    "paper_table",
    "pcie_link",
]
