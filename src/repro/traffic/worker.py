"""Process-pool task bodies for traffic runs.

Mirrors :mod:`repro.faults.runner`: a run travels as plain picklable data
(:class:`TrafficSpec` / :class:`TrafficTask`), the task body is a
module-level function, and results come back as :class:`TrafficOutcome`.
The cached artifact is the :class:`~repro.traffic.metrics.TrafficRunResult`
(pure primitives), so a cache hit is byte-identical to the run that
produced it, and ``--jobs 1`` versus ``--jobs N`` compare equal by pickle.

Unlike beaconing workers there is deliberately **no** per-process network
memo: a :class:`~repro.control.network.ScionNetwork` carries warm lookup
caches, so sharing one between tasks would make a task's cache-hit counts
depend on which tasks ran in its process before it — breaking the jobs
determinism contract. Every task builds its network fresh.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..control.network import ScionNetwork
from ..core.scoring import DiversityParams
from ..obs import Telemetry
from ..obs.context import NULL_CAUSAL_SPAN
from ..obs.trace import NULL_SPAN
from ..runtime.cache import ExperimentCache, stable_key, topology_fingerprint
from ..runtime.worker import _load_topology
from ..simulation.beaconing import BeaconingConfig
from ..topology.model import Topology
from .engine import TrafficConfig, TrafficEngine, TrafficFaultPlan
from .flows import FlowConfig, FlowGenerator
from .metrics import TrafficRunResult

__all__ = [
    "TrafficSpec",
    "TrafficTask",
    "TrafficOutcome",
    "select_legacy_asns",
    "execute_traffic_run",
]


def select_legacy_asns(
    endpoints: List[int], fraction: float
) -> Tuple[int, ...]:
    """An evenly spaced, deterministic subset of ``endpoints`` designated
    legacy-IP (SIG-fronted) ASes — §3.4's incremental-deployment mix."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("legacy fraction must be within [0, 1]")
    ordered = sorted(endpoints)
    count = int(len(ordered) * fraction)
    if count == 0:
        return ()
    return tuple(ordered[i * len(ordered) // count] for i in range(count))


@dataclass(frozen=True)
class TrafficSpec:
    """One traffic run: a control-plane setup plus a flow workload."""

    name: str
    #: ``"baseline"`` or ``"diversity"`` — which beaconing algorithm built
    #: the paths the workload rides on.
    algorithm: str
    flow_config: FlowConfig
    traffic_config: TrafficConfig
    core_config: BeaconingConfig
    intra_config: BeaconingConfig
    registration_limit: int = 5
    params: Optional[DiversityParams] = None
    #: Fraction of endpoint ASes fronted by a SCION-IP gateway.
    legacy_fraction: float = 0.0
    fault_plan: Optional[TrafficFaultPlan] = None
    seed: int = 0
    #: Explicit endpoint ASes. ``None`` (the default) uses every non-core
    #: AS of the topology; scenario compiles pin the set so auxiliary
    #: non-core ASes (e.g. exposed-IXP sites) never source traffic.
    endpoints: Optional[Tuple[int, ...]] = None
    #: Explicit SIG-fronted endpoints. ``None`` derives the set from
    #: ``legacy_fraction``; scenario compiles pin the rump ∪ SIG set.
    legacy_asns: Optional[Tuple[int, ...]] = None

    def result_key(self, topology_fp: str) -> str:
        """Cache key of this run's result (spec is pure primitives)."""
        return stable_key("traffic-run", topology_fp, self)


@dataclass(frozen=True)
class TrafficTask:
    """A :class:`TrafficSpec` plus how the worker obtains its topology.

    Field names match :class:`~repro.runtime.worker.SeriesTask` so the
    worker-side topology loader (inline value, or cache dir + key with a
    per-process memo) is shared between task kinds.
    """

    spec: TrafficSpec
    topology: Optional[Topology] = None
    cache_dir: Optional[str] = None
    topology_key: Optional[str] = None
    #: Collect metrics + trace events into the outcome. Lives on the task,
    #: not the spec: specs feed cache keys, and observing a run must not
    #: change where its result is cached.
    telemetry: bool = False
    #: Also run the sampling profiler (wall-clock; non-deterministic).
    profile: bool = False
    #: Kernel backend (``repro.kernels``) serving the run. Lives on the
    #: task, not the spec: backends are byte-identical by contract, so
    #: the choice must not change where a result is cached — both
    #: backends share cache entries.
    backend: str = "python"
    #: Causal-trace identity (see :class:`~repro.runtime.worker.
    #: SeriesTask`); ``-1`` disables causal tracing for the task.
    trace_index: int = -1
    trace_seed: int = 0


@dataclass
class TrafficOutcome:
    """One traffic run's report; ``timings`` is wall-clock noise and is
    kept out of the deterministic ``result``."""

    name: str
    result: TrafficRunResult
    cached: bool = False
    timings: Dict[str, float] = field(default_factory=dict)
    #: Worker-side telemetry, shipped back for the parent to merge. A
    #: cached outcome re-ran nothing, so it carries none.
    metrics: Optional[Dict] = None
    trace: Optional[List] = None
    causal: Optional[List] = None


def execute_traffic_run(task: TrafficTask) -> TrafficOutcome:
    """Run one traffic workload; the process-pool task body."""
    spec = task.spec
    timings: Dict[str, float] = {}

    start = time.perf_counter()
    topology = _load_topology(task)
    cache = ExperimentCache(task.cache_dir) if task.cache_dir else None
    result_key = (
        spec.result_key(topology_fingerprint(topology)) if cache else None
    )
    timings["setup"] = time.perf_counter() - start

    if cache is not None and result_key is not None:
        hit, cached_result = cache.load(result_key)
        if hit:
            timings["control"] = 0.0
            timings["run"] = 0.0
            return TrafficOutcome(
                name=spec.name,
                result=cached_result,
                cached=True,
                timings=timings,
            )

    tel: Optional[Telemetry] = None
    if task.telemetry:
        tel = Telemetry.collecting(
            profile=task.profile,
            labels={
                "series": spec.name,
                "algorithm": spec.algorithm,
                "policy": spec.traffic_config.policy,
            },
        )

    # Causal root of this run's trace (see runtime.worker.execute_series
    # for the determinism contract).
    root = NULL_CAUSAL_SPAN
    if tel is not None and task.trace_index >= 0:
        tel.causal.configure(
            seed=task.trace_seed, worker=f"pid{os.getpid()}"
        )
        root = tel.causal.root(
            task.trace_index,
            "traffic",
            f"traffic:{spec.name}",
            algorithm=spec.algorithm,
            policy=spec.traffic_config.policy,
        )
        tel.causal.current = root.ctx

    start = time.perf_counter()
    causal_control = (
        tel.causal.begin(root.ctx, "traffic", "control")
        if tel is not None
        else NULL_CAUSAL_SPAN
    )
    control_span = (
        tel.trace.span("traffic", "control", run=spec.name)
        if tel is not None
        else NULL_SPAN
    )
    with control_span:
        network = ScionNetwork(
            topology,
            algorithm=spec.algorithm,
            params=spec.params,
            core_config=spec.core_config,
            intra_config=spec.intra_config,
            registration_limit=spec.registration_limit,
            obs=tel,
            backend=task.backend,
        ).run()
    timings["control"] = time.perf_counter() - start
    causal_control.end()

    run_span = (
        tel.causal.begin(root.ctx, "traffic", "run")
        if tel is not None
        else NULL_CAUSAL_SPAN
    )
    start = time.perf_counter()
    endpoints = (
        sorted(spec.endpoints)
        if spec.endpoints is not None
        else sorted(topology.non_core_asns())
    )
    legacy = (
        tuple(sorted(spec.legacy_asns))
        if spec.legacy_asns is not None
        else select_legacy_asns(endpoints, spec.legacy_fraction)
    )
    generator = FlowGenerator(endpoints, spec.flow_config)
    engine = TrafficEngine(
        network,
        generator,
        spec.traffic_config,
        legacy_asns=legacy,
        name=spec.name,
        obs=tel,
        backend=task.backend,
    )
    result = engine.run(spec.fault_plan)
    timings["run"] = time.perf_counter() - start
    run_span.end(
        flows=result.flows_started, packets=result.packets_forwarded
    )
    root.end(flows=result.flows_started)

    if cache is not None and result_key is not None:
        cache.store(result_key, result)
    outcome = TrafficOutcome(name=spec.name, result=result, timings=timings)
    if tel is not None:
        tel.export_profile()
        outcome.metrics = tel.metrics.snapshot()
        outcome.trace = list(tel.trace.events)
        if tel.causal.enabled and task.trace_index >= 0:
            outcome.causal = tel.causal.export()
    return outcome
