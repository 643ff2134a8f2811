"""Path-segment Construction Beacons (PCBs).

A PCB (Section 2.2) is initiated by a core AS and iteratively extended: each
AS appends its AS number and the interface pair of the link it used, signs
the beacon, and forwards it. We model a PCB as an immutable sequence of
:class:`Hop` entries; each non-origin hop records the inter-domain link that
was traversed to reach it, from which the interface identifiers on either
side can be recovered via the topology.

Two notions of identity matter for the algorithms:

* the **path key** ``(origin, link ids...)`` identifies *the path*; the paper
  treats a newer beacon over the same path as "a newer instance of a PCB
  with the same path";
* the **instance** additionally carries ``issued_at`` (the origination
  timestamp) and ``lifetime``; the PCB is valid in
  ``[issued_at, issued_at + lifetime]``.

Wire sizes follow the PCB layout with one ECDSA-384 signature per AS entry
(the signature scheme the paper assumes for both SCION and BGPsec).

:meth:`PCB.extend` costs O(1) Python work per hop: the child reuses its
parent's validated hops, link-id and AS tuples and shares interned hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "Hop",
    "PCB",
    "PCB_HEADER_BYTES",
    "PCB_HOP_FIXED_BYTES",
    "SIGNATURE_BYTES",
]

#: Segment-info header: origination timestamp, segment id, origin ISD-AS.
PCB_HEADER_BYTES = 32
#: Per-AS entry without the signature: ISD-AS (8), ingress/egress interface
#: ids (2+2), hop-field MAC (6), expiry/meta (6), certificate pointer (8).
PCB_HOP_FIXED_BYTES = 32
#: ECDSA-384 signature, one per AS entry.
SIGNATURE_BYTES = 96


@dataclass(frozen=True)
class Hop:
    """One AS entry of a PCB.

    ``ingress_link_id`` is the id of the inter-domain link over which the
    beacon entered this AS — ``None`` for the origin hop.
    """

    asn: int
    ingress_link_id: Optional[int] = None

    def __reduce__(self):
        # Unpickled hops are interned like freshly built ones.
        return (_hop, (self.asn, self.ingress_link_id))


#: Interned hops, one per (AS, ingress link) the process has seen: bounded by
#: the link endpoints of the topologies it beacons over. Hops are immutable
#: and compare by value, so sharing them cannot change any result.
_HOPS: Dict[Tuple[int, Optional[int]], Hop] = {}

# Sets attributes past the frozen dataclass's ``__setattr__``. Nothing reads a
# PCB's ``__dict__``, so CPython 3.11+ keeps its attributes inline and never
# allocates a per-instance dict.
_set = object.__setattr__


def _hop(asn: int, ingress_link_id: Optional[int] = None) -> Hop:
    """The shared :class:`Hop` for ``(asn, ingress_link_id)``."""
    key = (asn, ingress_link_id)
    hop = _HOPS.get(key)
    if hop is None:
        hop = _HOPS[key] = Hop(asn, ingress_link_id)
    return hop


@dataclass(frozen=True)
class PCB:
    """An immutable beacon instance."""

    origin: int
    issued_at: float
    lifetime: float
    hops: Tuple[Hop, ...]

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("a PCB needs at least the origin hop")
        if self.hops[0].asn != self.origin:
            raise ValueError("first hop must be the origin AS")
        if self.hops[0].ingress_link_id is not None:
            raise ValueError("origin hop has no ingress link")
        if self.lifetime <= 0:
            raise ValueError("lifetime must be positive")
        if any(h.ingress_link_id is None for h in self.hops[1:]):
            raise ValueError("non-origin hops must record their ingress link")

    def __reduce__(self):
        # Pickles carry the fields only: loading revalidates, and the
        # link-id and AS caches are rebuilt on first use.
        return (PCB, (self.origin, self.issued_at, self.lifetime, self.hops))

    # ------------------------------------------------------------- factory

    @classmethod
    def originate(cls, origin: int, issued_at: float, lifetime: float) -> "PCB":
        """A fresh origin beacon containing only the origin hop."""
        return cls(
            origin=origin,
            issued_at=issued_at,
            lifetime=lifetime,
            hops=(_hop(origin),),
        )

    def extend(self, link_id: int, next_asn: int) -> "PCB":
        """The beacon as propagated over ``link_id`` to ``next_asn``.

        The origination timestamp and lifetime are set by the *initiator*
        (Section 2.2) and are therefore preserved.
        """
        asns = self.path_asns()
        if next_asn in asns:
            raise ValueError(
                f"AS {next_asn} is already on the path; beaconing never loops"
            )
        if link_id is None:
            raise ValueError("non-origin hops must record their ingress link")
        # The rest of __post_init__ holds by inheritance from the validated
        # parent (hops non-empty, first hop the origin with no link, positive
        # lifetime), so the child skips its O(path) rescan and is built from
        # the parent's tuples, one concatenation each.
        child = object.__new__(PCB)
        _set(child, "origin", self.origin)
        _set(child, "issued_at", self.issued_at)
        _set(child, "lifetime", self.lifetime)
        _set(child, "hops", self.hops + (_hop(next_asn, link_id),))
        _set(child, "_link_ids", self.link_ids() + (link_id,))
        _set(child, "_asns", asns + (next_asn,))
        return child

    # ----------------------------------------------------------- validity

    @property
    def expires_at(self) -> float:
        return self.issued_at + self.lifetime

    def age(self, now: float) -> float:
        return now - self.issued_at

    def remaining_lifetime(self, now: float) -> float:
        return self.expires_at - now

    def is_valid(self, now: float) -> bool:
        return self.issued_at <= now < self.expires_at

    # --------------------------------------------------------------- path

    @property
    def last_asn(self) -> int:
        """The AS currently holding (i.e. last having extended) the beacon."""
        return self.hops[-1].asn

    @property
    def num_hops(self) -> int:
        return len(self.hops)

    @property
    def path_length(self) -> int:
        """Number of inter-domain links on the path."""
        return len(self.hops) - 1

    def path_asns(self) -> Tuple[int, ...]:
        """AS numbers on the path, origin first; cached like :meth:`link_ids`."""
        try:
            return self._asns
        except AttributeError:
            asns = tuple(hop.asn for hop in self.hops)
            _set(self, "_asns", asns)
            return asns

    def link_ids(self) -> Tuple[int, ...]:
        """Link ids of the traversed inter-domain links, in path order.

        Computed once per instance (hop tuples are immutable); the cache
        keeps the per-candidate scoring loops of the selection algorithms
        allocation-free.
        """
        try:
            return self._link_ids
        except AttributeError:
            link_ids = tuple(
                hop.ingress_link_id  # type: ignore[misc]
                for hop in self.hops[1:]
            )
            _set(self, "_link_ids", link_ids)
            return link_ids

    def contains_as(self, asn: int) -> bool:
        # A scan of the short AS tuple; a per-instance frozenset would cost
        # more to build and several times the memory (DESIGN.md §5).
        return asn in self.path_asns()

    def contains_link(self, link_id: int) -> bool:
        return link_id in self.link_ids()

    def path_key(self) -> Tuple[int, Tuple[int, ...]]:
        """Identity of *the path*, shared by all instances over it."""
        return (self.origin, self.link_ids())

    def is_newer_instance_of(self, other: "PCB") -> bool:
        return self.path_key() == other.path_key() and self.issued_at > other.issued_at

    # ---------------------------------------------------------------- size

    def wire_size(self) -> int:
        """Serialized size in bytes, one ECDSA-384 signature per AS entry."""
        return PCB_HEADER_BYTES + self.num_hops * (
            PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES
        )
