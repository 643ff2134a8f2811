"""Property-based BeaconStore tests: randomized operation interleavings
(fixed seeds, plain ``random.Random`` — no extra dependencies) against the
store's count/limit/consistency invariants."""

from random import Random

import pytest

from repro.core import BeaconStore, PCB


def random_pcb(rng: Random, now: float) -> PCB:
    """A random loop-free beacon over a small AS/link id space."""
    origin = rng.randint(1, 4)
    pcb = PCB.originate(origin, now - rng.randint(0, 5), 100.0)
    visited = {origin}
    for _ in range(rng.randint(0, 4)):
        candidates = [asn for asn in range(1, 10) if asn not in visited]
        nxt = rng.choice(candidates)
        visited.add(nxt)
        pcb = pcb.extend(rng.randint(1, 12), nxt)
    return pcb


def check_invariants(store: BeaconStore) -> None:
    # Total count is the sum of the per-origin counts.
    assert store.count() == sum(
        store.count(origin) for origin in store.origins()
    )
    for origin in store.origins():
        bucket = store.beacons(origin)
        # The per-origin limit is never exceeded.
        if store.storage_limit is not None:
            assert store.count(origin) <= store.storage_limit
        # count agrees with the materialized list, keys are unique, and
        # every beacon is stored under its own origin.
        assert len(bucket) == store.count(origin)
        keys = [pcb.path_key() for pcb in bucket]
        assert len(set(keys)) == len(keys)
        assert all(pcb.origin == origin for pcb in bucket)
        # The deterministic order: shortest path first, then oldest.
        ordering = [
            (pcb.path_length, pcb.issued_at, pcb.path_key()) for pcb in bucket
        ]
        assert ordering == sorted(ordering)
        # Membership queries agree with enumeration.
        for pcb in bucket:
            assert pcb in store
            assert store.get(pcb.path_key()) is pcb


@pytest.mark.parametrize("eviction_policy", ["shortest", "diverse"])
@pytest.mark.parametrize("seed", range(8))
def test_random_interleavings_preserve_invariants(seed, eviction_policy):
    rng = Random(seed)
    store = BeaconStore(storage_limit=5, eviction_policy=eviction_policy)
    now = 10.0
    for _ in range(300):
        now += rng.random()
        op = rng.randrange(100)
        before = store.count()
        if op < 60:
            pcb = random_pcb(rng, now)
            had = store.get(pcb.path_key())
            changed = store.insert(pcb, now)
            if changed and had is None:
                # A fresh insert grows the store unless eviction kicked in
                # (possibly evicting the newcomer's own bucket back down).
                assert store.count() in (before, before + 1)
            if not changed:
                assert store.count() == before
        elif op < 70:
            link_id = rng.randint(1, 12)
            removed = store.remove_crossing(link_id)
            assert store.count() == before - removed
            assert not any(
                link_id in pcb.link_ids() for pcb in store.all_beacons()
            )
        elif op < 80:
            asn = rng.randint(2, 9)
            removed = store.remove_traversing_as(asn)
            assert store.count() == before - removed
            assert not any(
                pcb.contains_as(asn) for pcb in store.all_beacons()
            )
        elif op < 90:
            removed = store.purge_expired(now)
            assert store.count() == before - removed
            assert all(
                pcb.is_valid(now) for pcb in store.all_beacons(now=now)
            )
        elif op < 95:
            beacons = list(store.all_beacons())
            if beacons:
                victim = rng.choice(beacons)
                assert store.remove(victim.path_key()) is victim
                assert store.count() == before - 1
                assert store.remove(victim.path_key()) is None
        else:
            assert store.clear() == before
            assert store.count() == 0
        check_invariants(store)


@pytest.mark.parametrize("seed", range(4))
def test_unlimited_store_never_evicts(seed):
    rng = Random(100 + seed)
    store = BeaconStore(storage_limit=None)
    inserted = set()
    now = 1.0
    for _ in range(200):
        pcb = random_pcb(rng, now)
        if store.insert(pcb, now):
            inserted.add(pcb.path_key())
        check_invariants(store)
    assert store.count() == len(inserted)


def test_limit_reached_keeps_count_stable():
    """Once an origin bucket is at the limit, inserts of distinct paths
    never push the count beyond it, whatever the interleaving."""
    rng = Random(7)
    store = BeaconStore(storage_limit=3)
    now = 5.0
    for _ in range(100):
        store.insert(random_pcb(rng, now), now)
        for origin in store.origins():
            assert store.count(origin) <= 3


class ReferenceStore:
    """The store's semantics spelled out the slow way: every insert scans
    its bucket for expired beacons, and ``shortest`` eviction takes the
    ``max()`` of ``(path_length, -issued_at, path_key)`` over the bucket.
    The oracle for the ordered store's indexes."""

    def __init__(self, storage_limit, eviction_policy):
        self.storage_limit = storage_limit
        self.eviction_policy = eviction_policy
        self.buckets = {}

    def insert(self, pcb, now):
        if not pcb.is_valid(now):
            return False
        bucket = self.buckets.setdefault(pcb.origin, {})
        key = pcb.path_key()
        existing = bucket.get(key)
        if existing is not None:
            if pcb.issued_at <= existing.issued_at:
                return False
            bucket[key] = pcb
            return True
        bucket[key] = pcb
        for stale in [k for k, p in bucket.items() if not p.is_valid(now)]:
            del bucket[stale]
        while (
            self.storage_limit is not None
            and len(bucket) > self.storage_limit
        ):
            del bucket[max(bucket.values(), key=self._badness).path_key()]
        return key in bucket

    def _badness(self, pcb):
        rank = (pcb.path_length, -pcb.issued_at, pcb.path_key())
        if self.eviction_policy == "shortest":
            return rank
        bucket = self.buckets[pcb.origin]
        links = pcb.link_ids()
        # Coverage of each link by the *other* beacons' link entries.
        overlap = min(
            sum(other.link_ids().count(link) for other in bucket.values())
            - 1
            for link in links
        ) if links else 0
        return (overlap,) + rank

    def remove_where(self, doomed):
        removed = 0
        for bucket in self.buckets.values():
            for key in [k for k, p in bucket.items() if doomed(p)]:
                del bucket[key]
                removed += 1
        return removed

    def contents(self):
        return {
            origin: {key: pcb.issued_at for key, pcb in bucket.items()}
            for origin, bucket in self.buckets.items()
            if bucket
        }


def store_contents(store: BeaconStore):
    return {
        origin: {pcb.path_key(): pcb.issued_at for pcb in store.beacons(origin)}
        for origin in store.origins()
    }


@pytest.mark.parametrize("storage_limit", [3, 5, None])
@pytest.mark.parametrize("eviction_policy", ["shortest", "diverse"])
@pytest.mark.parametrize("seed", range(6))
def test_ordered_store_matches_reference(seed, eviction_policy, storage_limit):
    """After every random operation the store holds exactly what the
    reference scan-based store holds, and an origin whose contents
    changed carries a new generation."""
    rng = Random(1000 + seed)
    store = BeaconStore(storage_limit, eviction_policy=eviction_policy)
    reference = ReferenceStore(storage_limit, eviction_policy)
    now = 10.0
    seen = {}
    for _ in range(400):
        now += rng.random() * 3
        op = rng.randrange(100)
        # Occasionally act at an earlier time: the store's validity
        # window must not assume a monotonic clock.
        at = now - rng.random() * 4 if op % 10 == 0 else now
        if op < 50:
            pcb = random_pcb(rng, at)
            assert store.insert(pcb, at) == reference.insert(pcb, at)
        elif op < 70:
            # A newer (or stale) instance of a stored path: the eviction
            # order must rank the path by its current instance.
            beacons = list(store.all_beacons())
            if beacons:
                old = rng.choice(beacons)
                pcb = PCB(
                    origin=old.origin,
                    issued_at=old.issued_at + rng.uniform(-1.0, 6.0),
                    lifetime=old.lifetime,
                    hops=old.hops,
                )
                assert store.insert(pcb, at) == reference.insert(pcb, at)
        elif op < 78:
            link_id = rng.randint(1, 12)
            assert store.remove_crossing(link_id) == reference.remove_where(
                lambda pcb: pcb.contains_link(link_id)
            )
        elif op < 86:
            asn = rng.randint(2, 9)
            assert store.remove_traversing_as(asn) == reference.remove_where(
                lambda pcb: pcb.contains_as(asn)
            )
        elif op < 94:
            assert store.purge_expired(now) == reference.remove_where(
                lambda pcb: not pcb.is_valid(now)
            )
        elif op < 98:
            beacons = list(store.all_beacons())
            if beacons:
                victim = rng.choice(beacons)
                assert store.remove(victim.path_key()) is victim
                reference.remove_where(lambda pcb: pcb is victim)
        else:
            assert store.clear() == reference.remove_where(lambda pcb: True)
        contents = store_contents(store)
        assert contents == reference.contents()
        for origin, bucket in contents.items():
            generation = store.generation(origin)
            if origin in seen and seen[origin][1] != bucket:
                assert generation != seen[origin][0]
            seen[origin] = (generation, bucket)
