"""Process-pool task bodies for multipath churn runs.

Mirrors :mod:`repro.traffic.worker`: a run travels as plain picklable
data (:class:`MultipathSpec` / :class:`MultipathTask`), the task body is
a module-level function, and results come back as
:class:`MultipathOutcome`. The cached artifact is the
:class:`~repro.multipath.churn.ChurnResult` (pure primitives), so a
cache hit is byte-identical to the run that produced it, and ``--jobs
1`` versus ``--jobs N`` compare equal by pickle.

Every task builds its network fresh for the same reason traffic workers
do: a warm :class:`~repro.control.network.ScionNetwork` lookup cache
shared between tasks would make results depend on process scheduling.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..control.network import ScionNetwork
from ..core.scoring import DiversityParams
from ..obs import Telemetry
from ..obs.context import NULL_CAUSAL_SPAN
from ..obs.trace import NULL_SPAN
from ..runtime.cache import ExperimentCache, stable_key, topology_fingerprint
from ..runtime.worker import _load_topology
from ..simulation.beaconing import BeaconingConfig
from ..topology.model import Topology
from .churn import ChurnConfig, ChurnDriver, ChurnResult

__all__ = [
    "MultipathSpec",
    "MultipathTask",
    "MultipathOutcome",
    "execute_multipath_run",
]


@dataclass(frozen=True)
class MultipathSpec:
    """One churn horizon: a control-plane setup plus a churn config."""

    name: str
    churn: ChurnConfig
    core_config: BeaconingConfig
    intra_config: BeaconingConfig
    #: Which beaconing algorithm built the candidate paths.
    algorithm: str = "diversity"
    registration_limit: int = 5
    params: Optional[DiversityParams] = None
    seed: int = 0

    def result_key(self, topology_fp: str) -> str:
        """Cache key of this run's result (spec is pure primitives)."""
        return stable_key("multipath-run", topology_fp, self)


@dataclass(frozen=True)
class MultipathTask:
    """A :class:`MultipathSpec` plus how the worker obtains its topology.

    Field names match :class:`~repro.traffic.worker.TrafficTask` so the
    shared topology loader and the runtime pool's shipping logic apply
    unchanged. Backend and telemetry live on the task, never the spec:
    backends are byte-identical by contract and observation must not
    move a result's cache slot.
    """

    spec: MultipathSpec
    topology: Optional[Topology] = None
    cache_dir: Optional[str] = None
    topology_key: Optional[str] = None
    telemetry: bool = False
    profile: bool = False
    backend: str = "python"
    trace_index: int = -1
    trace_seed: int = 0


@dataclass
class MultipathOutcome:
    """One churn run's report; ``timings`` is wall-clock noise and is
    kept out of the deterministic ``result``."""

    name: str
    result: ChurnResult
    cached: bool = False
    timings: Dict[str, float] = field(default_factory=dict)
    metrics: Optional[Dict] = None
    trace: Optional[List] = None
    causal: Optional[List] = None


def execute_multipath_run(task: MultipathTask) -> MultipathOutcome:
    """Run one churn horizon; the process-pool task body."""
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
            return MultipathOutcome(
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
                "strategy": spec.churn.strategy,
            },
        )

    root = NULL_CAUSAL_SPAN
    if tel is not None and task.trace_index >= 0:
        tel.causal.configure(
            seed=task.trace_seed, worker=f"pid{os.getpid()}"
        )
        root = tel.causal.root(
            task.trace_index,
            "multipath",
            f"multipath:{spec.name}",
            algorithm=spec.algorithm,
            strategy=spec.churn.strategy,
        )
        tel.causal.current = root.ctx

    start = time.perf_counter()
    causal_control = (
        tel.causal.begin(root.ctx, "multipath", "control")
        if tel is not None
        else NULL_CAUSAL_SPAN
    )
    control_span = (
        tel.trace.span("multipath", "control", run=spec.name)
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
        tel.causal.begin(root.ctx, "multipath", "run")
        if tel is not None
        else NULL_CAUSAL_SPAN
    )
    start = time.perf_counter()
    driver = ChurnDriver(
        network,
        spec.churn,
        name=spec.name,
        obs=tel,
        backend=task.backend,
    )
    result: ChurnResult = driver.run()
    timings["run"] = time.perf_counter() - start
    run_span.end(
        intervals=result.num_intervals, packets=result.packets_delivered
    )
    root.end(intervals=result.num_intervals)

    if cache is not None and result_key is not None:
        cache.store(result_key, result)
    outcome = MultipathOutcome(
        name=spec.name, result=result, timings=timings
    )
    if tel is not None:
        tel.export_profile()
        outcome.metrics = tel.metrics.snapshot()
        outcome.trace = list(tel.trace.events)
        if tel.causal.enabled and task.trace_index >= 0:
            outcome.causal = tel.causal.export()
    return outcome
