"""Deterministic cross-shard two-phase validation (docs/CLUSTER.md).

One commit of a transaction spanning shards runs entirely inside a
single driver ``commit`` hook — one atomic simulated instant — so the
*state* side of the protocol needs no locks: the scheduler already
serializes commits in ``(clock, tid)`` order, and every shard's window
bookkeeping is updated in ascending shard order within that instant.
Only the *timing* is two-phase:

1. **Prepare** — the coordinator ships each involved shard its slice
   of the read/write sets (plus the slice's incremental bloom
   signatures, which the decide-phase window bookkeeping unions
   instead of re-hashing — see ``ValidationRequest.read_raw``);
   remote shards cost an inter-shard hop each way (the same CCI-class
   constants as the CPU–FPGA link,
   :func:`repro.hw.link.harp2_cci_link`).  Each shard's engine runs
   the *non-mutating* freshness certify
   (:meth:`repro.hw.manager.ValidationManager.certify`): zero forward
   edges means the slice orders after everything resident, so the
   transaction can serialize at the decide instant.
2. **Decide** — all votes in: commit iff every shard certified.  The
   decide instant is the latest vote arrival plus a constant decision
   cost; each writing shard then enters the commit as an external
   window commit and writes back its redo slice (readers block on the
   shard's update set until write-back completes, exactly as on a
   single node).

Because certify mutates nothing, a refused prepare needs no undo on
the shards that voted commit — the whole attempt simply aborts with a
``fpga-xshard-*`` cause and the driver retries it.
"""

from __future__ import annotations

from typing import List

from ..hw.link import InterconnectLink, harp2_cci_link
from ..runtime.api import TransactionAborted
from ..runtime.events import SimEvent

#: coordinator decision cost once all votes are in (ns, CPU-scaled):
#: compare W verdicts and enqueue the decide messages.
DECIDE_NS = 8.0

#: abort causes carry the ``fpga-`` prefix so they land in
#: ``RunStats.fpga_aborts`` with the other validation refusals.
ABORT_CAUSES = {
    "window-overflow": "fpga-xshard-overflow",
    "stale": "fpga-xshard-stale",
}


class Coordinator:
    """Runs prepare/decide over the involved shards of one commit."""

    def __init__(self, cluster, interlink: InterconnectLink = None):
        self.cluster = cluster
        #: inter-shard transport; defaults to the HARP2 CCI constants.
        self.interlink = interlink or harp2_cci_link()

    # ------------------------------------------------------------------
    def commit(self, tid: int, home: int, involved: List[int], now: float) -> float:
        """Two-phase validate/commit *tid* across *involved* (ascending
        shard ids); returns the decide time or raises
        :class:`TransactionAborted`."""
        cluster = self.cluster
        sent = now
        votes = []
        total_reads = 0
        total_writes = 0
        for sid in involved:
            shard = cluster.shards[sid]
            request = shard.prepare_request(tid)
            total_reads += len(request.read_addrs)
            total_writes += len(request.write_addrs)
            remote = sid != home
            at = sent
            if remote:
                lines = self.interlink.lines_for_addresses(
                    max(1, request.n_addresses)
                )
                at += self.interlink.request_ns(lines)
            response = shard.certify(request, at)
            vote_ready = response.ready_ns
            if remote:
                vote_ready += self.interlink.response_ns()
            votes.append((sid, request, response, vote_ready))

        decided = max(vote[3] for vote in votes) + cluster.scaled(DECIDE_NS)
        cluster.stats.validations += len(involved)
        cluster.stats.validation_ns += decided - sent

        refusal = None
        for sid, request, response, _ in votes:
            if not response.verdict.committed and refusal is None:
                refusal = (sid, response.verdict.reason or "stale")

        driver = cluster.driver
        if driver.wants("validate"):
            # Each prepare tiles the owning shard's hw lanes in the trace.
            for sid, request, response, vote_ready in votes:
                cluster.shards[sid].publish_validation(
                    tid, request, response, vote_ready, "xshard"
                )
        if driver.wants("xshard"):
            driver.emit(
                SimEvent(
                    "xshard",
                    tid,
                    decided,
                    start=sent,
                    data={
                        "involved": len(involved),
                        "remote": sum(1 for sid in involved if sid != home),
                        "committed": refusal is None,
                        "reason": None if refusal is None else refusal[1],
                        "n_read": total_reads,
                        "n_write": total_writes,
                        "sent_ns": sent,
                        "decided_ns": decided,
                    },
                )
            )

        if refusal is not None:
            cause = ABORT_CAUSES.get(refusal[1], "fpga-xshard-stale")
            raise TransactionAborted(cause, at_ns=decided)

        for sid, request, response, _ in votes:
            shard = cluster.shards[sid]
            end = decided
            if sid != home:
                end += self.interlink.request_ns(1)  # the decide message
            shard.apply_cross_shard_commit(tid, end)
        return decided
