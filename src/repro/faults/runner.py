"""Process-pool task bodies for fault-injection runs.

Mirrors :mod:`repro.runtime.worker`: everything a fault run needs travels
as plain picklable data (:class:`FaultSpec` / :class:`FaultTask`), the task
body is a module-level function, and results come back as
:class:`FaultOutcome`. The cached artifact is the final
:class:`~repro.faults.injector.FaultRunResult` — a tree of primitives — so
a cache hit is byte-identical to the run that produced it, and ``--jobs 1``
versus ``--jobs N`` compare equal by pickle.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..control.revocation import RevocationService
from ..core.scoring import DiversityParams
from ..obs import Telemetry
from ..obs.context import NULL_CAUSAL_SPAN
from ..runtime.cache import ExperimentCache, stable_key, topology_fingerprint
from ..runtime.worker import _load_topology
from ..simulation.beaconing import (
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from ..topology.model import Topology
from .injector import FaultInjector, FaultRunResult
from .schedule import FaultSchedule

__all__ = [
    "FaultSpec",
    "FaultTask",
    "FaultOutcome",
    "execute_fault_run",
]


@dataclass(frozen=True)
class FaultSpec:
    """One fault-injection run: a beaconing setup plus a fault schedule."""

    name: str
    #: ``"baseline"`` or ``"diversity"`` — resolved to a factory in the
    #: worker (factory closures don't pickle; names + params do).
    algorithm: str
    config: BeaconingConfig
    schedule: FaultSchedule
    dissemination_limit: int = 5
    params: Optional[DiversityParams] = None
    seed: int = 0
    #: Seed of the deterministic beacon-loss model (loss bursts only).
    loss_seed: int = 0
    #: (origin, receiver) pairs whose recovery the injector tracks.
    pairs: Tuple[Tuple[int, int], ...] = ()
    #: Account §4.1 revocation messages through a RevocationService.
    account_revocations: bool = True

    def algorithm_factory(self, kernel: str = "python"):
        if self.algorithm == "baseline":
            return baseline_factory(self.dissemination_limit)
        if self.algorithm == "diversity":
            return diversity_factory(
                self.dissemination_limit, self.params, kernel
            )
        raise ValueError(f"unknown algorithm {self.algorithm!r}")

    def result_key(self, topology_fp: str) -> str:
        """Cache key of this run's result (spec is pure primitives)."""
        return stable_key("fault-run", topology_fp, self)


@dataclass(frozen=True)
class FaultTask:
    """A :class:`FaultSpec` plus how the worker obtains its topology.

    Field names match :class:`~repro.runtime.worker.SeriesTask` so the
    worker-side topology loader (inline value, or cache dir + key with a
    per-process memo) is shared between the two task kinds.
    """

    spec: FaultSpec
    topology: Optional[Topology] = None
    cache_dir: Optional[str] = None
    topology_key: Optional[str] = None
    #: Collect metrics + trace events into the outcome. Lives on the task,
    #: not the spec: specs feed cache keys, and observing a run must not
    #: change where its result is cached.
    telemetry: bool = False
    #: Also run the sampling profiler (wall-clock; non-deterministic).
    profile: bool = False
    #: Run the beaconing through the sharded kernel (``repro.shard``)
    #: when > 1. Lives on the task, not the spec: sharded runs are
    #: byte-identical to single-process by contract, so the shard count
    #: must not change where a result is cached.
    shards: int = 1
    #: Give each shard its own worker process (coordinator policy: only
    #: when the runtime isn't already fanned out across ``--jobs``).
    shard_processes: bool = False
    #: Kernel backend (``repro.kernels``) the run computes through. Lives
    #: on the task, not the spec, for the same reason as ``shards``:
    #: backends are byte-identical by contract, so the choice must not
    #: change cache keys or results.
    backend: str = "python"
    #: Causal-trace identity (see :class:`~repro.runtime.worker.
    #: SeriesTask`); ``-1`` disables causal tracing for the task.
    trace_index: int = -1
    trace_seed: int = 0


@dataclass
class FaultOutcome:
    """One fault run's report. ``result`` is deliberately separate from
    ``timings``: the former is deterministic and compared across jobs
    counts, the latter is wall-clock noise."""

    name: str
    result: FaultRunResult
    cached: bool = False
    timings: Dict[str, float] = field(default_factory=dict)
    #: Worker-side telemetry, shipped back for the parent to merge. A
    #: cached outcome re-ran nothing, so it carries none.
    metrics: Optional[Dict] = None
    trace: Optional[list] = None
    causal: Optional[list] = None


def execute_fault_run(task: FaultTask) -> FaultOutcome:
    """Run one fault-injection schedule; the process-pool task body."""
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
            timings["run"] = 0.0
            return FaultOutcome(
                name=spec.name,
                result=cached_result,
                cached=True,
                timings=timings,
            )

    tel: Optional[Telemetry] = None
    if task.telemetry:
        tel = Telemetry.collecting(
            profile=task.profile,
            labels={"series": spec.name, "algorithm": spec.algorithm},
        )

    # Causal root of this run's trace (see runtime.worker.execute_series
    # for the determinism contract). ``causal.current`` is set before the
    # simulation builds so shard workers parent their spans to this root.
    root = NULL_CAUSAL_SPAN
    if tel is not None and task.trace_index >= 0:
        tel.causal.configure(
            seed=task.trace_seed, worker=f"pid{os.getpid()}"
        )
        root = tel.causal.root(
            task.trace_index,
            "faults",
            f"fault:{spec.name}",
            algorithm=spec.algorithm,
        )
        tel.causal.current = root.ctx

    start = time.perf_counter()
    if task.shards > 1:
        # Imported lazily: single-process runs must not depend on the
        # sharded kernel.
        from ..shard import ShardedBeaconing

        sim = ShardedBeaconing(
            topology,
            spec.algorithm_factory(task.backend),
            spec.config,
            shards=task.shards,
            processes=task.shard_processes,
            obs=tel,
        )
    else:
        sim = BeaconingSimulation(
            topology, spec.algorithm_factory(task.backend), spec.config, obs=tel
        )
    revocations = (
        RevocationService(topology) if spec.account_revocations else None
    )
    injector = FaultInjector(
        sim,
        spec.schedule,
        pairs=spec.pairs,
        revocations=revocations,
        loss_seed=spec.loss_seed,
        name=spec.name,
        obs=tel,
    )
    run_span = (
        tel.causal.begin(root.ctx, "faults", "run")
        if tel is not None
        else NULL_CAUSAL_SPAN
    )
    result = injector.run()
    run_span.end(
        events=result.events_applied,
        revocations=result.revocations_issued,
    )
    if task.shards > 1:
        # Stops shard workers and (in process mode) merges their metric
        # registries — and shard causal spans — into ``tel`` before the
        # snapshot below.
        sim.close()
    # The root closes after sim.close() so shard spans (stamped with the
    # coordinator's collect time) still nest inside it.
    root.end(events=result.events_applied)
    timings["run"] = time.perf_counter() - start

    if cache is not None and result_key is not None:
        cache.store(result_key, result)
    outcome = FaultOutcome(name=spec.name, result=result, timings=timings)
    if tel is not None:
        tel.export_profile()
        outcome.metrics = tel.metrics.snapshot()
        outcome.trace = list(tel.trace.events)
        if tel.causal.enabled and task.trace_index >= 0:
            outcome.causal = tel.causal.export()
    return outcome
