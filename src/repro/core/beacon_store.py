"""Per-AS beacon storage with the paper's *PCB storage limit*.

"The PCB storage limit, which is the maximum number of PCBs per origin AS to
store at each beacon server, varies in different experiments" (Section 5.1).
The store keeps, per origin AS, the most useful valid beacons:

* a newer instance over the same path replaces the older one in place;
* expired beacons are evicted lazily;
* when the per-origin limit is exceeded, the *worst* beacon is dropped —
  longest AS path first, then oldest issue time — matching the shortest-
  path preference of the production beacon server's storage policy.

Insert cost does not grow with the bucket: once a bucket first overflows,
the ``shortest`` policy keeps its eviction order as a bisect-maintained
list (the worst beacon is its last entry), and the expired-beacon scan
runs only when ``now`` leaves the bucket's validity window (latest issue
time, earliest expiry).
Every mutation stamps the origin with a fresh *generation*, which lets the
selection algorithms prove a bucket unchanged between intervals.
"""

from __future__ import annotations

from bisect import insort
import math
from typing import Dict, Iterator, List, Optional, Tuple

from .pcb import PCB

__all__ = ["BeaconStore"]


#: Eviction policies for a full per-origin bucket:
#: * ``shortest`` — drop the longest (then oldest) beacon, the shortest-
#:   path preference of the production beacon server;
#: * ``diverse`` — drop the beacon whose links are most redundant with the
#:   rest of the bucket (greedy link-coverage), preserving the disjointness
#:   the path-diversity-based algorithm selects for.
EVICTION_POLICIES = ("shortest", "diverse")


#: The validity window of an empty bucket: (latest issue, earliest expiry).
_EMPTY_WINDOW = (-math.inf, math.inf)


class BeaconStore:
    """Stores valid PCBs grouped by origin AS, bounded per origin."""

    def __init__(
        self,
        storage_limit: Optional[int] = None,
        *,
        eviction_policy: str = "shortest",
    ) -> None:
        if storage_limit is not None and storage_limit < 1:
            raise ValueError("storage_limit must be positive or None")
        if eviction_policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction_policy!r}; "
                f"choose from {EVICTION_POLICIES}"
            )
        self.storage_limit = storage_limit
        self.eviction_policy = eviction_policy
        self._by_origin: Dict[int, Dict[Tuple[int, Tuple[int, ...]], PCB]] = {}
        #: Per-origin sorted snapshots, invalidated on mutation; the
        #: selection algorithms call :meth:`beacons` once per origin and
        #: interval, so re-sorting unchanged buckets dominates otherwise.
        self._sorted_cache: Dict[int, List[PCB]] = {}
        #: Per-origin generation: the value of a store-wide mutation
        #: counter at the origin's last change. Values are never reused,
        #: not even across :meth:`clear`.
        self._generation: Dict[int, int] = {}
        self._mutations = 0
        #: ``shortest`` eviction order of each origin whose bucket has
        #: overflowed, ascending ``(path_length, -issued_at, path_key)``:
        #: the worst beacon is last. Buckets that never reach the limit
        #: never need one.
        self._order: Optional[Dict[int, List[Tuple]]] = (
            {}
            if storage_limit is not None and eviction_policy == "shortest"
            else None
        )
        #: Per-origin (latest issue time, earliest expiry) over the bucket;
        #: removals leave it conservatively wide until the next scan.
        self._window: Dict[int, Tuple[float, float]] = {}

    # ------------------------------------------------------------ mutation

    def insert(self, pcb: PCB, now: float) -> bool:
        """Insert a received beacon. Returns True if the store changed.

        Invalid (expired or not-yet-valid) beacons are rejected. A beacon
        over an already-stored path is kept only if it is a newer instance.
        """
        if not pcb.is_valid(now):
            return False
        origin = pcb.origin
        bucket = self._by_origin.setdefault(origin, {})
        key = pcb.path_key()
        existing = bucket.get(key)
        if existing is not None and pcb.issued_at <= existing.issued_at:
            return False
        bucket[key] = pcb
        # Inlined _touch: replacements are the most frequent insert.
        self._sorted_cache.pop(origin, None)
        self._mutations += 1
        self._generation[origin] = self._mutations
        latest, earliest = self._window.get(origin, _EMPTY_WINDOW)
        if pcb.issued_at > latest or pcb.expires_at < earliest:
            self._window[origin] = (
                max(latest, pcb.issued_at),
                min(earliest, pcb.expires_at),
            )
        if existing is not None:
            # The path's eviction-order entry now ranks the older instance,
            # i.e. no better than the beacon's true rank; ``_evict``
            # repairs such stale entries when they reach the end.
            return True
        if self._order is not None and origin in self._order:
            insort(
                self._order[origin], (pcb.path_length, -pcb.issued_at, key)
            )
        self._evict(origin, now)
        return key in bucket

    def _touch(self, origin: int) -> None:
        """Record a mutation of ``origin``'s bucket."""
        self._sorted_cache.pop(origin, None)
        self._mutations += 1
        self._generation[origin] = self._mutations

    def _evict(self, origin: int, now: float) -> None:
        """Drop expired beacons, then enforce the storage limit, after a
        new path entered ``origin``'s bucket (the insert has already
        recorded the mutation)."""
        bucket = self._by_origin[origin]
        latest, earliest = self._window[origin]
        if not latest <= now < earliest:
            expired = [
                key for key, pcb in bucket.items() if not pcb.is_valid(now)
            ]
            for key in expired:
                del bucket[key]
            if expired:
                self._reindex(origin)
            beacons = bucket.values()
            self._window[origin] = (
                max((pcb.issued_at for pcb in beacons), default=-math.inf),
                min((pcb.expires_at for pcb in beacons), default=math.inf),
            )
        limit = self.storage_limit
        if limit is None or len(bucket) <= limit:
            return
        if self._order is not None:
            # One entry per stored path, ranked at or below its beacon's
            # true rank: the last entry is the worst beacon unless stale.
            entries = self._order.get(origin)
            if entries is None:
                entries = self._order[origin] = sorted(
                    (pcb.path_length, -pcb.issued_at, key)
                    for key, pcb in bucket.items()
                )
            while len(bucket) > limit:
                entry = entries.pop()
                pcb = bucket[entry[-1]]
                if -entry[1] != pcb.issued_at:
                    insort(entries, (entry[0], -pcb.issued_at, entry[-1]))
                    continue
                del bucket[entry[-1]]
        else:
            while len(bucket) > limit:
                del bucket[self._most_redundant(bucket).path_key()]

    def _reindex(self, origin: int) -> None:
        """Resynchronize ``origin``'s indexes after bulk removals."""
        self._touch(origin)
        bucket = self._by_origin[origin]
        entries = self._order.get(origin) if self._order is not None else None
        if entries is not None:
            self._order[origin] = [
                entry for entry in entries if entry[-1] in bucket
            ]

    @staticmethod
    def _most_redundant(bucket: Dict) -> PCB:
        """The beacon whose links are most covered by the other beacons."""
        coverage: Dict[int, int] = {}
        for pcb in bucket.values():
            for link_id in pcb.link_ids():
                coverage[link_id] = coverage.get(link_id, 0) + 1
        def redundancy(pcb: PCB) -> Tuple:
            links = pcb.link_ids()
            # Each link's coverage by *other* beacons; a beacon carrying a
            # unique link (min coverage 1) is maximally worth keeping.
            overlap = min(coverage[l] - 1 for l in links) if links else 0
            return (overlap, pcb.path_length, -pcb.issued_at, pcb.path_key())
        return max(bucket.values(), key=redundancy)

    def remove(self, key: Tuple[int, Tuple[int, ...]]) -> Optional[PCB]:
        """Remove one beacon by path key (e.g. after a link revocation)."""
        origin = key[0]
        bucket = self._by_origin.get(origin)
        if bucket is None:
            return None
        removed = bucket.pop(key, None)
        if removed is not None:
            self._reindex(origin)
        return removed

    def remove_crossing(self, link_id: int) -> int:
        """Remove every stored beacon whose path crosses ``link_id``."""
        removed = 0
        for origin in list(self._by_origin):
            bucket = self._by_origin[origin]
            stale = [
                key for key, pcb in bucket.items()
                if pcb.contains_link(link_id)
            ]
            for key in stale:
                del bucket[key]
                removed += 1
            if stale:
                self._reindex(origin)
        return removed

    def remove_traversing_as(self, asn: int) -> int:
        """Remove every stored beacon whose path visits ``asn``.

        The beaconing-level reaction to an AS outage: every path through
        the failed AS is unusable, whichever of its links it entered by.
        """
        removed = 0
        for origin in list(self._by_origin):
            bucket = self._by_origin[origin]
            stale = [
                key for key, pcb in bucket.items() if pcb.contains_as(asn)
            ]
            for key in stale:
                del bucket[key]
                removed += 1
            if stale:
                self._reindex(origin)
        return removed

    def clear(self) -> int:
        """Drop everything (a beacon-server restart); returns the count."""
        removed = self.count()
        self._by_origin.clear()
        self._sorted_cache.clear()
        self._generation.clear()
        self._window.clear()
        if self._order is not None:
            self._order.clear()
        return removed

    def purge_expired(self, now: float) -> int:
        """Drop all expired beacons; returns how many were removed."""
        removed = 0
        for origin in list(self._by_origin):
            bucket = self._by_origin[origin]
            stale = [k for k, p in bucket.items() if not p.is_valid(now)]
            for key in stale:
                del bucket[key]
                removed += 1
            if stale:
                self._reindex(origin)
            if not bucket:
                del self._by_origin[origin]
                self._window.pop(origin, None)
                if self._order is not None:
                    self._order.pop(origin, None)
        return removed

    # ------------------------------------------------------------- queries

    def origins(self) -> List[int]:
        return [origin for origin, bucket in self._by_origin.items() if bucket]

    def generation(self, origin: int) -> int:
        """Changes whenever ``origin``'s bucket changes (0 = never stored).

        Lazily expired beacons do not count as a change: :meth:`beacons`
        with ``now`` filters them without touching the bucket."""
        return self._generation.get(origin, 0)

    def beacons(self, origin: int, now: Optional[float] = None) -> List[PCB]:
        """Stored beacons for ``origin``; filtered to valid ones if ``now``
        is given. Deterministic order: shortest path, oldest first."""
        bucket = self._by_origin.get(origin, {})
        ordered = self._sorted_cache.get(origin)
        if ordered is None:
            ordered = sorted(
                bucket.values(),
                key=lambda pcb: (
                    pcb.path_length, pcb.issued_at, pcb.path_key()
                ),
            )
            self._sorted_cache[origin] = ordered
        if now is None:
            return list(ordered)
        return [pcb for pcb in ordered if pcb.is_valid(now)]

    def all_beacons(self, now: Optional[float] = None) -> Iterator[PCB]:
        for origin in self._by_origin:
            yield from self.beacons(origin, now)

    def count(self, origin: Optional[int] = None) -> int:
        if origin is not None:
            return len(self._by_origin.get(origin, {}))
        return sum(len(bucket) for bucket in self._by_origin.values())

    def get(self, key: Tuple[int, Tuple[int, ...]]) -> Optional[PCB]:
        origin = key[0]
        return self._by_origin.get(origin, {}).get(key)

    def __contains__(self, pcb: PCB) -> bool:
        return self.get(pcb.path_key()) is not None
