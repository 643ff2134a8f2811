"""The benchmark's workloads: set-up, measured units and output checks.

Each workload is a function ``(seed, seconds, trace, probe) -> Run``.
The seed makes the inputs; ``seconds`` sets how many measured units run.
With ``trace`` set, one unit runs under the :class:`~layers.Tracer` and
its untraced twin (same inputs) gives ``trace_overhead``. Set-ups and
units are timed as :class:`~speed.SpeedProbe` windows, in calibrated
seconds.

Seeds and shapes: the size and structure of every workload's inputs are
fixed (its *shape*, stamped on each result). For the topology workloads
the seed draws a relabelling of that structure -- AS numbers and link
ids permuted -- which changes every ordering and tie-break the program
sees while keeping the amount of work comparable across seeds; the seed
``DEFAULT_SEED`` keeps the original labels, so its outputs can be held
to recorded references. The service workload's seed is its load seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from layers import Tracer, layer_metrics
from speed import SpeedProbe, Window

from repro.control.network import ScionNetwork
from repro.experiments.common import (
    CoreTopologies,
    build_core_topologies,
    build_full_stack_topology,
)
from repro.experiments.config import TEST_SCALE
from repro.experiments.figure5 import run_figure5
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.runtime import ExperimentRuntime
from repro.service.clients import LoadConfig
from repro.service.session import SessionConfig, run_session
from repro.simulation.beaconing import (
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from repro.topology.generator import generate_core_mesh
from repro.topology.model import Topology

__all__ = [
    "DEFAULT_SEED",
    "WORKLOADS",
    "Run",
    "beacon_digest",
    "label_maps",
    "relabel",
    "write_reference",
]

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().with_name("reference.json")
FIGURE5_FIXTURE = ROOT / "tests" / "fixtures" / "figure5_test.json"

#: The seed whose labelling is the identity (and TEST_SCALE's own seed).
DEFAULT_SEED = TEST_SCALE.seed


@dataclass
class Run:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    shape: Dict
    #: Timed set-ups; ``setup_s`` is their median.
    setups: List[Window] = field(default_factory=list)
    #: Measured units: (operations, timed window).
    units: List[Tuple[int, Window]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    #: The workload's own named results: name -> (value, unit).
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics of the traced pass (trace runs only).
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Digest of the first measured unit's outputs.
    digest: str = ""

    def check(self, name: str, ok: bool, operations: int = 0) -> bool:
        """Record a correctness check; a failure fails ``operations``."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.failed += operations
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())

    def setup_s(self, raw: bool = False) -> float:
        return median(w.raw_s if raw else w.seconds for w in self.setups)

    def ops_per_s(self, raw: bool = False) -> float:
        return median(
            ops / (w.raw_s if raw else w.seconds) for ops, w in self.units
        )

    def unit_s(self) -> float:
        """Median calibrated seconds of one untraced measured unit."""
        return median(w.seconds for _, w in self.units)


def load_reference() -> Dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def check_reference(run: Run, operations: int) -> None:
    """At the default seed, the run's digest must equal the one recorded
    for this workload and shape; a missing reference fails the check."""
    if run.seed != DEFAULT_SEED:
        return
    entry = load_reference().get(run.workload, {})
    ok = entry.get("shape") == run.shape and entry.get("digest") == run.digest
    run.check("matches_reference", ok, operations)


def write_reference(run: Run) -> None:
    """Record ``run``'s digest as its workload's default-seed reference."""
    reference = load_reference()
    reference[run.workload] = {"shape": run.shape, "digest": run.digest}
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------- relabelling


def label_maps(
    topology: Topology, seed: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """AS-number and link-id permutations drawn from ``seed``."""
    asns = sorted(topology.asns())
    link_ids = sorted(link.link_id for link in topology.links())
    new_asns, new_links = list(asns), list(link_ids)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        rng.shuffle(new_asns)
        rng.shuffle(new_links)
    return dict(zip(asns, new_asns)), dict(zip(link_ids, new_links))


def relabel(
    topology: Topology, asn_map: Dict[int, int], link_map: Dict[int, int]
) -> Topology:
    """An isomorphic copy of ``topology`` under the given labels.

    ASes and links are inserted in ascending new-label order, as the
    generators insert them; interface ids are kept.
    """
    out = Topology(name=topology.name)
    for asn in sorted(topology.asns(), key=asn_map.__getitem__):
        node = topology.as_node(asn)
        out.add_as(
            asn_map[asn], isd=node.isd, is_core=node.is_core, name=node.name
        )
    for link in sorted(topology.links(), key=lambda l: link_map[l.link_id]):
        out.add_link(
            asn_map[link.a.asn],
            asn_map[link.b.asn],
            link.relationship,
            location=link.location,
            a_ifid=link.a.ifid,
            b_ifid=link.b.ifid,
            link_id=link_map[link.link_id],
        )
    return out


# -------------------------------------------------------------- core mesh

CORE_MESH_SHAPE = {
    "core_ases": 64,
    "mesh_seed": 1,
    "storage_limit": 60,
    "interval_s": 600.0,
    "pcb_lifetime_s": 6 * 3600.0,
    "warmup_intervals": 10,
    "window_intervals": 5,
}
#: Set-up + measured window repeats per run (at least); ``setup_s`` is
#: their median.
CORE_MESH_ROUNDS = 2
#: Nominal host seconds of one measured window, which turns ``--seconds``
#: into a round count (the inputs never depend on it).
NOMINAL_WINDOW_S = 9.0
ALGORITHMS = {"diversity": diversity_factory, "baseline": baseline_factory}


def beacon_digest(sim: BeaconingSimulation) -> str:
    """Digest of every stored beacon and the window's PCB/byte totals."""
    h = hashlib.blake2b(digest_size=16)
    for asn in sorted(sim.servers):
        for pcb in sorted(
            sim.servers[asn].store.all_beacons(), key=lambda p: p.path_key()
        ):
            h.update(repr((asn, pcb.path_key(), pcb.issued_at)).encode())
    h.update(repr((sim.metrics.total_pcbs, sim.metrics.total_bytes)).encode())
    return h.hexdigest()


def storage_limit_holds(sim: BeaconingSimulation, limit: int) -> bool:
    return all(
        server.store.count(origin) <= limit
        for server in sim.servers.values()
        for origin in server.store.origins()
    )


def core_mesh_round(
    seed: int, probe: SpeedProbe, tracer: Optional[Tracer] = None
) -> Dict:
    """Set up (mesh, then both algorithms warmed up) and measure a window
    of intervals, stepping diversity and baseline in turn."""
    shape = CORE_MESH_SHAPE
    with probe.window() as setup:
        with probe.window() as build:
            mesh = generate_core_mesh(
                shape["core_ases"], seed=shape["mesh_seed"]
            )
            topology = relabel(mesh, *label_maps(mesh, seed))
        config = BeaconingConfig(
            interval=shape["interval_s"],
            pcb_lifetime=shape["pcb_lifetime_s"],
            storage_limit=shape["storage_limit"],
        )
        sims = {
            name: BeaconingSimulation(topology, factory(), config)
            for name, factory in ALGORITHMS.items()
        }
        for sim in sims.values():
            sim.run_intervals(shape["warmup_intervals"])
            sim.reset_metrics()
    gc.collect()
    steps: Dict[str, List[Window]] = {name: [] for name in sims}
    with tracer if tracer is not None else nullcontext():
        for _ in range(shape["window_intervals"]):
            for name, sim in sims.items():
                with probe.window() as step:
                    sim.step()
                steps[name].append(step)
    every_step = [step for timed in steps.values() for step in timed]
    return {
        "setup": setup,
        "build_s": build.seconds,
        "seconds": {
            name: sum(step.seconds for step in timed)
            for name, timed in steps.items()
        },
        "window": Window(
            raw_s=sum(step.raw_s for step in every_step),
            seconds=sum(step.seconds for step in every_step),
            samples=sum(step.samples for step in every_step),
        ),
        "digest": hashlib.blake2b(
            "".join(beacon_digest(sim) for sim in sims.values()).encode(),
            digest_size=16,
        ).hexdigest(),
        "limit_ok": all(
            storage_limit_holds(sim, shape["storage_limit"])
            for sim in sims.values()
        ),
    }


def run_core_mesh(
    seed: int, seconds: float, trace: bool, probe: SpeedProbe
) -> Run:
    """One operation is one interval of each algorithm."""
    run = Run("core-mesh", seed, dict(CORE_MESH_SHAPE))
    window = CORE_MESH_SHAPE["window_intervals"]
    rounds = max(CORE_MESH_ROUNDS, round(seconds / NOMINAL_WINDOW_S))
    tracer = Tracer(probe.clock) if trace else None
    results = []
    for index in range(rounds):
        traced = trace and index == rounds - 1
        result = core_mesh_round(seed, probe, tracer if traced else None)
        results.append(result)
        run.setups.append(result["setup"])
        run.attempted += window
        run.check("storage_limit", result["limit_ok"], window)
        run.check(
            "digest_repeats", result["digest"] == results[0]["digest"], window
        )
        if not traced:
            run.units.append((window, result["window"]))
        gc.collect()
    run.digest = results[0]["digest"]
    check_reference(run, run.attempted)
    untraced = results[:-1] if trace else results
    for name in ALGORITHMS:
        rate = median(window / r["seconds"][name] for r in untraced)
        run.report[f"{name}_intervals_per_s"] = (rate, "1/s")
    if tracer is not None:
        run.per_layer = layer_metrics(
            tracer,
            {
                "topology.build_s": median(r["build_s"] for r in results),
                "trace_overhead": results[-1]["window"].seconds
                / run.unit_s(),
            },
        )
    return run


# ---------------------------------------------------------------- figure 5

FIGURE5_SHAPE = {
    "scale": TEST_SCALE.name,
    "scale_seed": TEST_SCALE.seed,
    "internet_ases": TEST_SCALE.internet_ases,
    "core_ases": TEST_SCALE.core_ases,
    "storage_limit": 60,
    "jobs": 1,
}
NOMINAL_FIGURE_S = 13.0
#: The topology build takes milliseconds: repeat it for a steady median.
FIGURE5_SETUPS = 9


def relabel_core_topologies(topos: CoreTopologies, seed: int) -> CoreTopologies:
    maps = label_maps(topos.internet, seed)
    return CoreTopologies(
        internet=relabel(topos.internet, *maps),
        bgp_core=relabel(topos.bgp_core, *maps),
        scion_core=relabel(topos.scion_core, *maps),
    )


def figure5_digest(monthly: Dict[str, Dict[int, float]]) -> str:
    canonical = {
        series: sorted(values.items()) for series, values in monthly.items()
    }
    return hashlib.blake2b(
        repr(sorted(canonical.items())).encode(), digest_size=16
    ).hexdigest()


def matches_fixture(monthly: Dict[str, Dict[int, float]]) -> bool:
    """The golden-regression comparison: same series and monitors, every
    value within a relative 1e-9."""
    if not FIGURE5_FIXTURE.exists():
        return False
    fixture = json.loads(FIGURE5_FIXTURE.read_text())["monthly_bytes"]
    if sorted(monthly) != sorted(fixture):
        return False
    for series, expected in fixture.items():
        actual = {str(asn): value for asn, value in monthly[series].items()}
        if sorted(actual) != sorted(expected):
            return False
        for asn, value in expected.items():
            if not math.isclose(actual[asn], value, rel_tol=1e-9):
                return False
    return True


def figure5_sane(monthly: Dict[str, Dict[int, float]], monitors: int) -> bool:
    return len(monthly) == 5 and all(
        len(values) == monitors
        and all(math.isfinite(v) and v > 0 for v in values.values())
        for values in monthly.values()
    )


def run_figure5_workload(
    seed: int, seconds: float, trace: bool, probe: SpeedProbe
) -> Run:
    run = Run("figure5", seed, dict(FIGURE5_SHAPE))
    topos = None
    for _ in range(FIGURE5_SETUPS):
        with probe.window() as setup:
            topos = relabel_core_topologies(
                build_core_topologies(TEST_SCALE), seed
            )
        run.setups.append(setup)
    gc.collect()

    units = 2 if trace else max(1, round(seconds / NOMINAL_FIGURE_S))
    digests = []
    tracer = Tracer(probe.clock) if trace else None
    traced = None
    for index in range(units):
        runtime = ExperimentRuntime(jobs=1, cache=None)
        tracing = trace and index == 1
        with tracer if tracing else nullcontext(), probe.window() as figure:
            result = run_figure5(TEST_SCALE, topologies=topos, runtime=runtime)
        if tracing:
            traced = figure
        else:
            run.units.append((1, figure))
        monthly = result.comparison.monthly_bytes
        digests.append(figure5_digest(monthly))
        run.digest = digests[0]
        run.attempted += 1
        run.check(
            "figure_complete",
            figure5_sane(monthly, TEST_SCALE.num_monitors),
            1,
        )
        run.check("digest_repeats", digests[-1] == digests[0], 1)
        if seed == DEFAULT_SEED:
            run.check("matches_fixture", matches_fixture(monthly), 1)
        gc.collect()
    run.report["figure_s"] = (run.unit_s(), "s")
    if tracer is not None:
        run.per_layer = layer_metrics(
            tracer,
            {
                "topology.build_s": run.setup_s(),
                "trace_overhead": traced.seconds / run.unit_s(),
            },
        )
    return run


# ----------------------------------------------------------------- service

SERVICE_SHAPE = {
    "scale": TEST_SCALE.name,
    "leaves_per_core": 3,
    "storage_limit": 5,
    "eviction_policy": "diverse",
    "clients": 30,
    "requests_per_client": 300,
    "mix": {"lookup": 0.30, "traffic": 0.60, "fault": 0.02, "results": 0.08},
    "slow_cost_s": 0.5,
}
NOMINAL_SESSION_S = 5.0
#: Network builds per run, at least (one per session when there are more).
SERVICE_SETUPS = 3


def build_service_network(probe: SpeedProbe) -> Tuple[ScionNetwork, Window]:
    """The full-stack network the session serves (diversity beaconing as
    in the traffic experiment), and its topology build's window."""
    shape = SERVICE_SHAPE
    with probe.window() as build:
        topology = build_full_stack_topology(
            TEST_SCALE, leaves_per_core=shape["leaves_per_core"]
        )
    policy = shape["eviction_policy"]
    network = ScionNetwork(
        topology,
        algorithm="diversity",
        core_config=replace(
            TEST_SCALE.core_beaconing_config(shape["storage_limit"]),
            eviction_policy=policy,
        ),
        intra_config=replace(
            TEST_SCALE.intra_isd_config(shape["storage_limit"]),
            eviction_policy=policy,
        ),
    ).run()
    return network, build


def session_config(seed: int) -> SessionConfig:
    shape = SERVICE_SHAPE
    mix = shape["mix"]
    load = LoadConfig(
        num_clients=shape["clients"],
        requests_per_client=shape["requests_per_client"],
        seed=seed,
        lookup_weight=mix["lookup"],
        traffic_weight=mix["traffic"],
        fault_weight=mix["fault"],
        results_weight=mix["results"],
        slow_cost=shape["slow_cost_s"],
    )
    return SessionConfig(
        scale=shape["scale"], load=load, leaves_per_core=shape["leaves_per_core"]
    )


def session_digest(report) -> str:
    return hashlib.blake2b(report.to_json().encode(), digest_size=16).hexdigest()


def run_service_workload(
    seed: int, seconds: float, trace: bool, probe: SpeedProbe
) -> Run:
    run = Run("service", seed, dict(SERVICE_SHAPE))
    config = session_config(seed)
    # Untraced sessions on fresh networks; a trace run adds one session
    # under the tracer and one with telemetry collecting, same inputs.
    plan = ["plain"] * max(2, round(seconds / NOMINAL_SESSION_S))
    if trace:
        plan = ["plain", "traced", "telemetry"]
    tracer = Tracer(probe.clock)
    digests: List[str] = []
    walls: Dict[str, float] = {}
    build_times = []
    latency: Dict[str, float] = {}
    stats: Dict[str, int] = {}
    cache: Dict[str, int] = {}
    for index in range(max(SERVICE_SETUPS, len(plan))):
        with probe.window() as setup:
            network, build = build_service_network(probe)
        run.setups.append(setup)
        build_times.append(build.seconds)
        if index >= len(plan):
            continue
        kind = plan[index]
        gc.collect()
        obs = Telemetry.collecting() if kind == "telemetry" else NULL_TELEMETRY
        before = network.cache_counters()
        try:
            with probe.window() as session:
                if kind == "traced":
                    with tracer:
                        report = tracer.span(
                            "service", run_session, config, obs=obs,
                            network=network,
                        )
                else:
                    report = run_session(config, obs=obs, network=network)
        except AssertionError:
            # A violated service invariant fails the whole session.
            planned = SERVICE_SHAPE["clients"] * SERVICE_SHAPE["requests_per_client"]
            run.attempted += planned
            run.check("invariants", False, planned)
            continue
        walls.setdefault(kind, session.seconds)
        requests = report.planned_requests
        stats = report.aggregate["stats"]
        run.attempted += requests
        run.failed += requests - stats.get("completed_ok", 0)
        run.check(
            "invariants",
            report.invariants.get("completed") == requests
            and report.invariants.get("responses") == requests,
            requests,
        )
        if kind == "telemetry":
            continue
        digests.append(session_digest(report))
        run.digest = digests[0]
        run.check("digest_repeats", digests[-1] == digests[0], requests)
        if kind == "plain":
            run.units.append((requests, session))
        latency = report.aggregate["latency"]
        after = network.cache_counters()
        cache = {key: after[key] - before.get(key, 0) for key in after}
        network = None
        gc.collect()

    run.report["requests_per_s"] = (run.ops_per_s(), "1/s")
    run.report["service_latency_p50_ms"] = (latency.get("p50", 0) * 1e3, "ms")
    run.report["service_latency_p99_ms"] = (latency.get("p99", 0) * 1e3, "ms")
    if trace and "traced" in walls and "telemetry" in walls:
        hits, misses = cache.get("hit", 0), cache.get("miss", 0)
        run.per_layer = layer_metrics(
            tracer,
            {
                "topology.build_s": median(build_times),
                "control.path_server.cache_hits": hits,
                "control.path_server.cache_misses": misses,
                "control.path_server.cache_hit_ratio": (
                    hits / (hits + misses) if hits + misses else 0.0
                ),
                "service.submitted": stats.get("submitted", 0),
                "service.accepted": stats.get("accepted", 0),
                "service.rejected": sum(
                    v for k, v in stats.items() if k.startswith("rejected_")
                ),
                "service.retries": stats.get("retries", 0),
                "service.timeouts": stats.get("completed_timeout", 0),
                "service.peak_queue_depth": stats.get("peak_queue_depth", 0),
                "service.latency_p50_ms": latency.get("p50", 0) * 1e3,
                "service.latency_p99_ms": latency.get("p99", 0) * 1e3,
                "trace_overhead": walls["traced"] / walls["plain"],
                "obs.telemetry_overhead": walls["telemetry"] / walls["plain"],
            },
        )
    return run


WORKLOADS: Dict[str, Callable[..., Run]] = {
    "core-mesh": run_core_mesh,
    "figure5": run_figure5_workload,
    "service": run_service_workload,
}
