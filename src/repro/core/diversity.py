"""Path-diversity-based path construction algorithm (Section 4.2, Alg. 1).

A distributed greedy algorithm that maximizes link-disjointness of the
disseminated paths while suppressing redundant retransmissions. Per
[origin AS, neighbor AS] pair and beaconing interval it iteratively selects
up to ``dissemination_limit`` (candidate beacon, egress interface)
combinations by score:

* the **link diversity score** of a candidate path is derived from the
  geometric mean of the Link History Table counters of its links (including
  the egress link);
* the **final score** maps the diversity score through an exponent that
  depends on the beacon's age/lifetime (Eq. 2, never-sent paths) or on the
  remaining lifetime of the previously-sent instance (Eq. 3, re-sends);
* selection stops when no candidate exceeds the score threshold.

Implementation notes beyond the pseudo-code (each called out in DESIGN.md):

* The diversity score stored in the Sent PCBs List is computed *after*
  incrementing the counters for the selected path, i.e. it reflects the
  path's jointness as a member of the sent set. Storing the pre-increment
  score would freeze fully novel paths at score 1.0, and ``1.0 ** g == 1``
  would defeat the retransmission suppression entirely.
* Counters count the number of *valid* sent paths containing a link, so a
  re-send of a still-valid path refreshes its timers without incrementing,
  and counters are decremented when a sent record expires.
* Ties (frequent among fresh beacons whose exponent is near 0) break by
  higher diversity score, then shorter path, then a deterministic key.
* A pair whose full evaluation selected nothing records a *quiet
  certificate*: its scores cannot cross the threshold before a computed
  wake time unless the pair's beacons, counters or egress links change,
  so later intervals skip it without building candidates.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..topology.model import Link
from .beacon_store import BeaconStore
from .link_history import LinkHistory, LinkHistoryTable
from .pcb import PCB
from .policy import PathConstructionAlgorithm, Transmission
from .scoring import (
    DiversityParams,
    diversity_score,
    exponent_f,
    exponent_g,
    final_score,
)
from .sent_registry import SentRecord, SentRegistry

__all__ = ["DiversityAlgorithm"]


#: A fresh (Eq. 2) candidate certifies a pair as quiet only if its score
#: is at least this far below the threshold.
_QUIET_SCORE_MARGIN = 1e-9
#: Wake times stop this far (plus a relative 1e-9) short of the computed
#: earliest threshold crossing, absorbing float rounding.
_QUIET_WAKE_MARGIN_S = 1.0


class _QuietCertificate(NamedTuple):
    """Proof that a (origin, group) pair selects nothing before ``wake``
    while the state it was evaluated on is unchanged."""

    store: BeaconStore
    #: ``store.generation(origin)`` at evaluation.
    generation: int
    #: The pair's Link History Table ``total_version`` at evaluation.
    version: int
    #: The group's egress link ids.
    link_ids: Tuple[int, ...]
    wake: float


class _Candidate:
    """One (stored beacon, egress link) combination under evaluation."""

    __slots__ = (
        "pcb", "link", "counted_links", "path_key",
        "cached_version", "cached_ds",
    )

    def __init__(
        self,
        pcb: PCB,
        link: Link,
        counted_links: Tuple[int, ...],
        path_key: Tuple[int, Tuple[int, ...]],
    ) -> None:
        self.pcb = pcb
        self.link = link
        #: Path links of the beacon plus the egress link — the links whose
        #: counters this candidate touches.
        self.counted_links = counted_links
        self.path_key = path_key
        #: Cached (history version, diversity score) for fresh candidates.
        self.cached_version = -1
        self.cached_ds = 0.0


def _priority(
    score: float, ds: float, counter_sum: int, candidate: _Candidate
) -> Tuple:
    """Min-heap priority tuple of a candidate above the score threshold.

    Priority (best first): higher score, higher diversity score, lower
    total link-counter coverage (a second disjointness signal: the
    geometric mean is 0 for *any* path containing one unused link, while
    the counter sum still separates fully disjoint paths from partially
    overlapping ones), shorter path, deterministic key. Every component
    degrades monotonically as counters grow within a selection round,
    which the lazy-heap revalidation in ``_select_pair`` relies on.
    """
    return (
        -score,
        -ds,
        counter_sum,
        candidate.pcb.path_length,
        candidate.path_key,
        candidate,
    )


class DiversityAlgorithm(PathConstructionAlgorithm):
    """Algorithm 1 of the paper, with per-neighbor dissemination limits."""

    name = "diversity"

    #: Class-level default so algorithm objects restored from pre-kernel
    #: warm snapshots score through the reference backend.
    kernel = None

    def __init__(
        self,
        asn: int,
        topology,
        *,
        dissemination_limit: int = 5,
        params: Optional[DiversityParams] = None,
        per_interface_limit: bool = False,
        kernel=None,
    ) -> None:
        """``per_interface_limit`` is an ablation knob: apply the
        dissemination limit per egress interface (like the baseline)
        instead of per neighbor AS, quantifying the redundancy the paper's
        per-neighbor grouping avoids on parallel links (DESIGN.md #3).

        ``kernel`` selects the candidate-scoring backend (a
        :class:`~repro.kernels.KernelBackend`, a registry name, or None
        for the reference backend); every backend scores bit-identically
        by contract."""
        super().__init__(asn, topology, dissemination_limit=dissemination_limit)
        self.params = params or DiversityParams()
        self.params.validate()
        self.per_interface_limit = per_interface_limit
        # Imported lazily: repro.kernels reaches the dataplane package,
        # whose import chain leads back into this module.
        from ..kernels import resolve_backend

        self.kernel = resolve_backend(kernel)
        self.history = LinkHistory()
        self.sent = SentRegistry()
        #: Quiet certificates per (origin, group); see :meth:`select`.
        self._quiet: Dict[Tuple[int, int], _QuietCertificate] = {}

    def _kernel(self):
        """The scoring backend, tolerating pre-kernel pickled instances."""
        kernel = self.kernel
        if kernel is None:
            from ..kernels import resolve_backend

            kernel = self.kernel = resolve_backend(None)
        return kernel

    # ------------------------------------------------------------ lifecycle

    def _expire_sent(self, now: float) -> None:
        """Purge expired sent records and release their counters."""
        for record in self.sent.purge_expired(now):
            self.history.table(record.origin, record.neighbor).decrement(
                record.counted_links
            )

    def on_link_revoked(self, link_id: int) -> None:
        """Drop sent records for paths crossing the revoked link.

        Counters track *valid* sent paths; a revoked path is invalid, so
        its counters are released immediately instead of at instance
        expiry, and the path becomes eligible for fresh (Eq. 2) selection
        once the link recovers.
        """
        for record in self.sent.purge_crossing(link_id):
            self.history.table(record.origin, record.neighbor).decrement(
                record.counted_links
            )

    # -------------------------------------------------------------- select

    def select(
        self,
        store: BeaconStore,
        egress_links: Sequence[Link],
        now: float,
    ) -> List[Transmission]:
        """Algorithm 1 over every (origin, group) pair.

        A pair whose last full evaluation selected nothing holds a quiet
        certificate and is skipped while all of these still hold: the same
        store at the same generation for the origin (no insert, eviction or
        revocation touched the bucket; lazily expired beacons only shrink
        the candidate set), the same Link History Table ``total_version``
        (no commit, expiry or revocation decrement), the same egress link
        ids (no link or AS failure or recovery), and ``now`` before the
        wake time (see :meth:`_select_pair`). Sent records of a pair only
        change through its own commits or through counter decrements, so
        under these conditions a full evaluation would again select
        nothing.
        """
        self._expire_sent(now)
        by_neighbor: Dict[int, List[Link]] = {}
        for link in egress_links:
            group = (
                link.link_id
                if self.per_interface_limit
                else self._neighbor_of(link)
            )
            by_neighbor.setdefault(group, []).append(link)
        # The Link History Table stays keyed by the actual neighbor AS in
        # both limit modes (a group is a single interface in the
        # per-interface ablation).
        groups = [
            (
                group,
                self._neighbor_of(by_neighbor[group][0]),
                by_neighbor[group],
                tuple(link.link_id for link in by_neighbor[group]),
            )
            for group in sorted(by_neighbor)
        ]

        quiet = self._quiet
        tables = self.history
        transmissions: List[Transmission] = []
        for origin in sorted(store.origins()):
            generation = store.generation(origin)
            beacons = None
            for group, neighbor, links, link_ids in groups:
                certificate = quiet.get((origin, group))
                if (
                    certificate is not None
                    and now < certificate.wake
                    and certificate.generation == generation
                    and certificate.store is store
                    and certificate.link_ids == link_ids
                    and certificate.version
                    == tables.table(origin, neighbor).total_version
                ):
                    continue
                if beacons is None:
                    beacons = store.beacons(origin, now)
                if not beacons:
                    break
                selected, wake = self._select_pair(
                    origin, beacons, neighbor, links, now
                )
                if wake is None:
                    quiet.pop((origin, group), None)
                else:
                    quiet[(origin, group)] = _QuietCertificate(
                        store,
                        generation,
                        tables.table(origin, neighbor).total_version,
                        link_ids,
                        wake,
                    )
                transmissions.extend(selected)
        return transmissions

    def _select_pair(
        self,
        origin: int,
        beacons: Sequence[PCB],
        neighbor: int,
        links: Sequence[Link],
        now: float,
    ) -> Tuple[List[Transmission], Optional[float]]:
        """The per-[origin AS, neighbor AS] greedy loop of Algorithm 1.

        Implemented as a lazy max-heap instead of the pseudo-code's full
        rescan per iteration: within one selection round counters only
        *increase* (decrements happen at expiry, before selection), so
        candidate scores only decrease — a popped entry whose recomputed
        score dropped is pushed back and the maximum remains exact.

        Returns the transmissions and, when nothing cleared the threshold,
        the pair's wake time: no candidate's score can exceed the
        threshold before it while counters, beacons and egress links stay
        unchanged (None if no such time is proven). Fresh (Eq. 2) scores
        ``ds ** (alpha * age / lifetime)`` never rise with age; re-sent
        (Eq. 3) scores rise as the sent instance nears expiry, see
        :meth:`_resend_wake`.
        """
        table = self.history.table(origin, neighbor)
        sent = self.sent
        candidates: List[_Candidate] = []
        records: List[Optional[SentRecord]] = []
        fresh_rows: List[Tuple[int, ...]] = []
        for pcb in beacons:
            if pcb.contains_as(neighbor):
                continue
            path_links = pcb.link_ids()
            for link in links:
                counted = path_links + (link.link_id,)
                candidate = _Candidate(pcb, link, counted, (origin, counted))
                record = sent.record(link.link_id, candidate.path_key)
                if record is not None and not record.is_valid(now):
                    record = None
                if record is None:
                    fresh_rows.append(counted)
                candidates.append(candidate)
                records.append(record)
        # Batch-prime the initial heap build: candidates without a valid
        # sent record score via Eq. 2, whose table reads (version sum,
        # counter sum, geometric mean) the kernel computes in one
        # struct-of-arrays pass over the candidate rows. Re-ranks after
        # commits stay scalar — the lazy heap touches few of them.
        batch = iter(
            self._kernel().batch_diversity(table, fresh_rows)
            if fresh_rows
            else ()
        )
        params = self.params
        threshold = params.score_threshold
        heap: List[Tuple] = []
        wake: Optional[float] = math.inf
        for candidate, record in zip(candidates, records):
            pcb = candidate.pcb
            if record is None:
                version, counter_sum, gm = next(batch)
                ds = candidate.cached_ds = diversity_score(gm, params)
                candidate.cached_version = version
                score = final_score(
                    ds, exponent_f(pcb.age(now), pcb.lifetime, params)
                )
                if score <= threshold:
                    if (
                        wake is not None
                        and score > threshold - _QUIET_SCORE_MARGIN
                    ):
                        wake = None
                    continue
            else:
                # Previously sent: reuse the score stored at send time.
                ds = record.diversity_score
                score = final_score(
                    ds,
                    exponent_g(
                        record.remaining_lifetime(now),
                        pcb.remaining_lifetime(now),
                        params,
                    ),
                )
                if score <= threshold:
                    if wake is not None:
                        wake = self._resend_wake(
                            wake, ds, record.expires_at, pcb.expires_at
                        )
                    continue
                counter_sum = sum(
                    table.counter(link_id)
                    for link_id in candidate.counted_links
                )
            wake = None
            heap.append(_priority(score, ds, counter_sum, candidate))
        if not heap:
            return [], wake
        heapq.heapify(heap)

        selected: List[Transmission] = []
        while heap and len(selected) < self.dissemination_limit:
            entry = heapq.heappop(heap)
            candidate = entry[-1]
            rank = self._rank(candidate, table, now)
            if rank is None:
                continue
            if rank[:-1] > entry[:-1]:  # any priority component degraded
                heapq.heappush(heap, rank)
                continue
            self._commit(candidate, table, origin, neighbor, now)
            selected.append(
                Transmission(
                    pcb=candidate.pcb.extend(candidate.link.link_id, neighbor),
                    link=candidate.link,
                    sender=self.asn,
                    receiver=neighbor,
                )
            )
        return selected, None

    def _resend_wake(
        self,
        wake: float,
        ds: float,
        record_expiry: float,
        pcb_expiry: float,
    ) -> Optional[float]:
        """``wake`` lowered to the earliest time a below-threshold re-sent
        candidate can exceed the threshold, or None if none is proven.

        With ``a`` the sent record's expiry and ``b`` the stored beacon's,
        Eq. 3 gives ``g = (beta * (a - t) / (b - t)) ** gamma``. For
        ``a <= b`` the ratio falls over time, so ``ds ** g`` rises and
        first exceeds the threshold once the ratio drops below
        ``R* = (ln thr / ln ds) ** (1 / gamma) / beta``, at
        ``t* = (a - R* * b) / (1 - R*)``. A zero diversity score stays at
        zero until the record expires — which itself bumps the table's
        version.
        """
        params = self.params
        threshold = params.score_threshold
        if ds <= 0.0:
            crossing = record_expiry
        else:
            if ds >= 1.0 or threshold <= 0.0 or record_expiry > pcb_expiry:
                return None
            ratio = (
                (math.log(threshold) / math.log(ds)) ** (1.0 / params.gamma)
                / params.beta
            )
            if ratio >= 1.0:
                return None
            crossing = (record_expiry - ratio * pcb_expiry) / (1.0 - ratio)
        return min(
            wake,
            crossing - _QUIET_WAKE_MARGIN_S - 1e-9 * abs(crossing),
        )

    def _rank(
        self,
        candidate: _Candidate,
        table: LinkHistoryTable,
        now: float,
    ) -> Optional[Tuple]:
        """The candidate's current :func:`_priority`, or None below the
        score threshold."""
        score, ds = self._score(candidate, table, now)
        if score <= self.params.score_threshold:
            return None
        counter_sum = sum(
            table.counter(link_id) for link_id in candidate.counted_links
        )
        return _priority(score, ds, counter_sum, candidate)

    def _score(
        self,
        candidate: _Candidate,
        table: LinkHistoryTable,
        now: float,
    ) -> Tuple[float, float]:
        """Eq. (1) score and the diversity score used for tie-breaking."""
        record = self.sent.record(candidate.link.link_id, candidate.path_key)
        if record is not None and record.is_valid(now):
            # Previously sent: reuse the score stored at send time (Eq. 3).
            exponent = exponent_g(
                record.remaining_lifetime(now),
                candidate.pcb.remaining_lifetime(now),
                self.params,
            )
            return final_score(record.diversity_score, exponent), record.diversity_score
        version = table.version(candidate.counted_links)
        if version != candidate.cached_version:
            gm = table.geometric_mean(candidate.counted_links)
            candidate.cached_ds = diversity_score(gm, self.params)
            candidate.cached_version = version
        exponent = exponent_f(
            candidate.pcb.age(now), candidate.pcb.lifetime, self.params
        )
        return final_score(candidate.cached_ds, exponent), candidate.cached_ds

    def _commit(
        self,
        candidate: _Candidate,
        table: LinkHistoryTable,
        origin: int,
        neighbor: int,
        now: float,
    ) -> None:
        """Update Link History Table and Sent PCBs List for a selection."""
        record = self.sent.record(candidate.link.link_id, candidate.path_key)
        if record is not None and record.is_valid(now):
            record.refresh(candidate.pcb, now)
            return
        table.increment(candidate.counted_links)
        self.sent.add(
            candidate.link.link_id,
            SentRecord(
                path_key=candidate.path_key,
                counted_links=candidate.counted_links,
                diversity_score=diversity_score(
                    table.geometric_mean(candidate.counted_links), self.params
                ),
                issued_at=candidate.pcb.issued_at,
                lifetime=candidate.pcb.lifetime,
                sent_at=now,
                origin=origin,
                neighbor=neighbor,
            ),
        )
