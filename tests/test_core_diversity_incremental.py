"""Differential tests for the diversity algorithm's quiet certificates.

A pair (origin AS, neighbor group) whose full evaluation selected nothing
is skipped in later intervals while its certificate holds. These tests
step two simulations side by side, interval by interval: one as shipped,
and one whose certificates are cleared before every interval, so every
pair takes the full-rescan path. Transmissions, stored beacons, Link
History Table counters and Sent PCBs Lists must agree exactly — under
short PCB lifetimes (Eq. 3 refreshes, record expiry and wake times fire
within the run), link and AS failures and recoveries, and message loss.
"""

from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PCB, BeaconStore, DiversityAlgorithm, DiversityParams
from repro.simulation import BeaconingConfig, BeaconingSimulation
from repro.topology import Relationship, Topology, generate_core_mesh

INTERVAL = 600.0
#: About eight intervals: refreshes and expiries happen within a run.
LIFETIME = 8 * INTERVAL

PARAMS = (
    None,
    DiversityParams(alpha=1.0, beta=4.0, gamma=2.0, score_threshold=0.2),
    DiversityParams(beta=16.0, gamma=8.0, score_threshold=0.05),
    DiversityParams(score_threshold=0.0),
)


@dataclass(frozen=True)
class Factory:
    params: Optional[DiversityParams]
    per_interface_limit: bool
    dissemination_limit: int

    def __call__(self, asn, topology):
        return DiversityAlgorithm(
            asn,
            topology,
            dissemination_limit=self.dissemination_limit,
            params=self.params,
            per_interface_limit=self.per_interface_limit,
        )


def lossy(transmission, interval) -> bool:
    """Drop about one delivery in seven, deterministically."""
    pcb = transmission.pcb
    return (sum(pcb.link_ids()) + 3 * interval + pcb.origin) % 7 == 0


def build(n, seed, factory, storage_limit, eviction_policy, loss):
    config = BeaconingConfig(
        interval=INTERVAL,
        duration=40 * INTERVAL,
        pcb_lifetime=LIFETIME,
        storage_limit=storage_limit,
        eviction_policy=eviction_policy,
    )
    sim = BeaconingSimulation(generate_core_mesh(n, seed=seed), factory, config)
    if loss:
        sim.loss_model = lossy
    return sim


def outage_schedule(outages):
    """``{interval: [(action, target index), ...]}`` from (kind, target
    index, start, duration) outages: each target fails at ``start`` and
    recovers ``duration`` intervals later."""
    schedule = {}
    for kind, index, start, duration in outages:
        schedule.setdefault(start, []).append(("fail_" + kind, index))
        schedule.setdefault(start + duration, []).append(
            ("recover_" + kind, index)
        )
    return schedule


def apply_fault(sim, action, index) -> None:
    if action.endswith("link"):
        links = sorted(link.link_id for link in sim.topology.links())
        getattr(sim, action)(links[index % len(links)])
    else:
        ases = sorted(sim.servers)
        getattr(sim, action)(ases[index % len(ases)])


def transmissions(sim):
    return [
        (
            t.sender,
            t.receiver,
            t.link.link_id,
            t.pcb.path_key(),
            t.pcb.issued_at,
            t.pcb.lifetime,
        )
        for t in sim._in_flight
    ]


def state(sim):
    """Every piece of selection-visible state, in comparable form."""
    out = {}
    for asn, server in sorted(sim.servers.items()):
        store = server.store
        algorithm = server.algorithm
        out[asn] = (
            {
                origin: [
                    (pcb.path_key(), pcb.issued_at)
                    for pcb in store.beacons(origin)
                ]
                for origin in sorted(store.origins())
            },
            {
                key: dict(table._counters)
                for key, table in algorithm.history.tables().items()
            },
            sorted(
                (
                    link_id,
                    record.path_key,
                    record.issued_at,
                    record.sent_at,
                    record.diversity_score,
                )
                for link_id, bucket in algorithm.sent._by_link.items()
                for record in bucket.values()
            ),
        )
    return out


def clear_certificates(sim) -> None:
    for server in sim.servers.values():
        server.algorithm._quiet.clear()


outage_lists = st.lists(
    st.tuples(
        st.sampled_from(["link", "link", "as"]),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=6),
    ),
    max_size=4,
)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=7),
    seed=st.integers(min_value=0, max_value=300),
    params=st.sampled_from(PARAMS),
    per_interface_limit=st.booleans(),
    dissemination_limit=st.integers(min_value=1, max_value=5),
    storage_limit=st.sampled_from([4, 10, None]),
    eviction_policy=st.sampled_from(["shortest", "diverse"]),
    loss=st.booleans(),
    faults=outage_lists,
)
def test_certified_selection_matches_full_rescan(
    n,
    seed,
    params,
    per_interface_limit,
    dissemination_limit,
    storage_limit,
    eviction_policy,
    loss,
    faults,
):
    factory = Factory(params, per_interface_limit, dissemination_limit)
    shipped = build(n, seed, factory, storage_limit, eviction_policy, loss)
    oracle = build(n, seed, factory, storage_limit, eviction_policy, loss)
    schedule = outage_schedule(faults)
    for interval in range(28):
        for action, index in schedule.get(interval, ()):
            apply_fault(shipped, action, index)
            apply_fault(oracle, action, index)
        clear_certificates(oracle)
        shipped.step()
        oracle.step()
        assert transmissions(shipped) == transmissions(oracle), interval
        assert state(shipped) == state(oracle), interval
    assert shipped.metrics.total_pcbs == oracle.metrics.total_pcbs
    assert shipped.pcbs_lost == oracle.pcbs_lost


def count_evaluations(algorithm, counts, name) -> None:
    inner = algorithm._select_pair

    def wrapped(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)

    algorithm._select_pair = wrapped


def test_certificates_skip_pairs():
    """The certificate path is exercised, not just present: a large share
    of pair evaluations is skipped, with identical results."""
    factory = Factory(None, False, 5)
    shipped = build(8, 3, factory, 10, "shortest", False)
    oracle = build(8, 3, factory, 10, "shortest", False)
    evaluations = {"shipped": 0, "oracle": 0}
    for name, sim in (("shipped", shipped), ("oracle", oracle)):
        for server in sim.servers.values():
            count_evaluations(server.algorithm, evaluations, name)
    for _ in range(30):
        clear_certificates(oracle)
        shipped.step()
        oracle.step()
        assert transmissions(shipped) == transmissions(oracle)
    assert state(shipped) == state(oracle)
    assert evaluations["shipped"] < 0.75 * evaluations["oracle"]


def test_wake_time_re_evaluates_before_an_eq3_refresh_is_due():
    """A quiet pair holding a re-sent candidate sleeps until just before
    its Eq. 3 score crosses the threshold, then sends the refresh at the
    same instant as a full rescan every 10 s would."""
    topology = Topology("pair")
    topology.add_as(1, is_core=True)
    topology.add_as(3, is_core=True)
    topology.add_link(1, 3, Relationship.CORE)
    egress = list(topology.as_node(1).links())
    lifetime = 6 * 3600.0
    shipped = DiversityAlgorithm(1, topology)
    oracle = DiversityAlgorithm(1, topology)
    evaluations = {"shipped": 0}
    count_evaluations(shipped, evaluations, "shipped")
    store = BeaconStore(None)
    store.insert(PCB.originate(9, 0.0, lifetime).extend(100, 1), 0.0)

    def select(now):
        oracle._quiet.clear()
        out = shipped.select(store, egress, now)
        reference = oracle.select(store, egress, now)
        assert [(t.pcb.path_key(), t.pcb.issued_at) for t in out] == [
            (t.pcb.path_key(), t.pcb.issued_at) for t in reference
        ]
        return out

    assert len(select(600.0)) == 1  # a fresh path goes out at once
    # A newer instance arrives long before the sent one nears expiry.
    store.insert(PCB.originate(9, 600.0, lifetime).extend(100, 1), 1200.0)
    evaluations["shipped"] = 0
    refreshes = [now for now in range(1200, 21600, 10) if select(float(now))]
    assert len(refreshes) == 1
    assert 20000 < refreshes[0] < 21600
    # Evaluated on the instance arrival, within the wake margin before
    # the crossing, and at the refresh itself.
    assert evaluations["shipped"] <= 3
