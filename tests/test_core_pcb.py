"""Unit tests for the PCB model."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    PCB,
    Hop,
    PCB_HEADER_BYTES,
    PCB_HOP_FIXED_BYTES,
    SIGNATURE_BYTES,
)


@pytest.fixture()
def chain_pcb() -> PCB:
    """Origin 1 -> link 10 -> AS 2 -> link 20 -> AS 3."""
    pcb = PCB.originate(1, issued_at=0.0, lifetime=3600.0)
    return pcb.extend(10, 2).extend(20, 3)


class TestConstruction:
    def test_originate(self):
        pcb = PCB.originate(7, issued_at=100.0, lifetime=60.0)
        assert pcb.origin == 7
        assert pcb.hops == (Hop(7),)
        assert pcb.path_length == 0
        assert pcb.last_asn == 7

    def test_extend_appends_hop(self, chain_pcb):
        assert chain_pcb.path_asns() == (1, 2, 3)
        assert chain_pcb.link_ids() == (10, 20)
        assert chain_pcb.last_asn == 3
        assert chain_pcb.path_length == 2

    def test_extend_preserves_initiator_timestamps(self, chain_pcb):
        assert chain_pcb.issued_at == 0.0
        assert chain_pcb.lifetime == 3600.0

    def test_extend_rejects_loops(self, chain_pcb):
        with pytest.raises(ValueError):
            chain_pcb.extend(30, 1)
        with pytest.raises(ValueError):
            chain_pcb.extend(30, 2)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            PCB(origin=1, issued_at=0.0, lifetime=60.0, hops=())
        with pytest.raises(ValueError):
            PCB(origin=1, issued_at=0.0, lifetime=60.0, hops=(Hop(2),))
        with pytest.raises(ValueError):
            PCB(origin=1, issued_at=0.0, lifetime=0.0, hops=(Hop(1),))
        with pytest.raises(ValueError):
            PCB(origin=1, issued_at=0.0, lifetime=60.0, hops=(Hop(1, 5),))
        with pytest.raises(ValueError):
            PCB(
                origin=1,
                issued_at=0.0,
                lifetime=60.0,
                hops=(Hop(1), Hop(2, None)),
            )


class TestValidity:
    def test_validity_window(self):
        pcb = PCB.originate(1, issued_at=100.0, lifetime=50.0)
        assert not pcb.is_valid(99.9)
        assert pcb.is_valid(100.0)
        assert pcb.is_valid(149.9)
        assert not pcb.is_valid(150.0)

    def test_age_and_remaining(self):
        pcb = PCB.originate(1, issued_at=100.0, lifetime=50.0)
        assert pcb.age(120.0) == 20.0
        assert pcb.remaining_lifetime(120.0) == 30.0
        assert pcb.expires_at == 150.0


class TestIdentity:
    def test_path_key_ignores_instance_timestamps(self, chain_pcb):
        newer = PCB(
            origin=1,
            issued_at=500.0,
            lifetime=3600.0,
            hops=chain_pcb.hops,
        )
        assert newer.path_key() == chain_pcb.path_key()
        assert newer.is_newer_instance_of(chain_pcb)
        assert not chain_pcb.is_newer_instance_of(newer)

    def test_different_links_are_different_paths(self, chain_pcb):
        other = PCB.originate(1, 0.0, 3600.0).extend(11, 2).extend(20, 3)
        assert other.path_key() != chain_pcb.path_key()
        assert not other.is_newer_instance_of(chain_pcb)

    def test_contains_queries(self, chain_pcb):
        assert chain_pcb.contains_as(2)
        assert not chain_pcb.contains_as(9)
        assert chain_pcb.contains_link(10)
        assert not chain_pcb.contains_link(99)


class TestWireSize:
    def test_origin_size(self):
        pcb = PCB.originate(1, 0.0, 60.0)
        assert pcb.wire_size() == PCB_HEADER_BYTES + (
            PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES
        )

    def test_size_grows_per_hop(self, chain_pcb):
        expected = PCB_HEADER_BYTES + 3 * (PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES)
        assert chain_pcb.wire_size() == expected

    @given(hops=st.integers(min_value=0, max_value=20))
    def test_size_linear_in_hops(self, hops):
        pcb = PCB.originate(0, 0.0, 60.0)
        for i in range(hops):
            pcb = pcb.extend(100 + i, i + 1)
        assert pcb.wire_size() == PCB_HEADER_BYTES + (hops + 1) * (
            PCB_HOP_FIXED_BYTES + SIGNATURE_BYTES
        )


@given(
    issued=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    lifetime=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    probe=st.floats(min_value=-1e6, max_value=2e6, allow_nan=False),
)
def test_validity_is_exactly_the_half_open_window(issued, lifetime, probe):
    pcb = PCB.originate(1, issued, lifetime)
    assert pcb.is_valid(probe) == (issued <= probe < issued + lifetime)


#: AS numbers and link ids the property tests draw from (and probe).
IDS = range(12)


@given(
    origin=st.sampled_from(IDS),
    asns=st.lists(st.sampled_from(IDS), unique=True, max_size=10),
    links=st.lists(st.sampled_from(IDS), min_size=10, max_size=10),
    issued=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    lifetime=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
)
def test_extend_matches_validating_constructor(
    origin, asns, links, issued, lifetime
):
    """``extend`` skips ``__post_init__`` and builds its caches from the
    parent's; every observable must still equal a PCB built directly from
    freshly made hops."""
    asns = [asn for asn in asns if asn != origin]
    built = PCB.originate(origin, issued, lifetime)
    hops = [Hop(origin)]
    for step in range(len(asns) + 1):
        direct = PCB(origin, issued, lifetime, tuple(hops))
        loaded = pickle.loads(pickle.dumps(built))
        for pcb in (direct, loaded):
            assert pcb == built
            assert hash(pcb) == hash(built)
            assert pcb.path_key() == built.path_key()
            assert pcb.link_ids() == built.link_ids()
            assert pcb.path_asns() == built.path_asns()
            assert pcb.num_hops == built.num_hops
            assert pcb.wire_size() == built.wire_size()
            for probe in IDS:
                assert pcb.contains_as(probe) == built.contains_as(probe)
                assert pcb.contains_link(probe) == built.contains_link(probe)
        assert all(a is b for a, b in zip(loaded.hops, built.hops))
        for asn in built.path_asns():
            with pytest.raises(ValueError):
                built.extend(links[0], asn)
        if step == len(asns):
            break
        asn, link = asns[step], links[step]
        with pytest.raises(ValueError):
            built.extend(None, asn)
        # A child of a directly built PCB (lazy caches) equals extend's.
        assert direct.extend(link, asn) == built.extend(link, asn)
        built = built.extend(link, asn)
        hops.append(Hop(asn, link))


def test_equal_hops_are_shared():
    first = PCB.originate(1, 0.0, 60.0).extend(10, 2).extend(20, 3)
    second = PCB.originate(5, 9.0, 30.0).extend(30, 2).extend(20, 3)
    assert first.hops[2] is second.hops[2]
    assert first.hops[1] is not second.hops[1]
    loaded = pickle.loads(pickle.dumps(second))
    assert all(a is b for a, b in zip(loaded.hops, second.hops))
