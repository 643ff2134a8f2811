"""Process-pool task bodies for beaconing experiment series.

A *series* is one beaconing run — one (algorithm, storage limit, eviction
policy, mode) combination of Figures 5-9 — plus the per-series collection
the figure needs (bytes received per monitor, path-set resilience per AS
pair, per-interface bandwidth). Everything a task needs travels as plain
picklable data (:class:`SeriesSpec` / :class:`SeriesTask`), the task body
is a module-level function, and results come back as :class:`SeriesOutcome`
— the three requirements of ``ProcessPoolExecutor`` dispatch.

Warm-state caching lives here so it works identically in-process
(``--jobs 1``) and in workers: a series with ``warmup_intervals > 0``
snapshots the simulation after the warm-up (metrics reset), keyed by the
content hash of topology + algorithm + beaconing config; a series without
warm-up snapshots the completed run. Either way a rerun skips straight to
the uncached part. Snapshots are byte-faithful pickles of the simulation,
so a resumed run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.resilience import path_set_resilience
from ..core.scoring import DiversityParams
from ..obs import Telemetry
from ..obs.context import NULL_CAUSAL_SPAN
from ..simulation.beaconing import (
    BeaconingConfig,
    BeaconingSimulation,
    baseline_factory,
    diversity_factory,
)
from ..topology.model import Topology
from .cache import ExperimentCache, stable_key, topology_fingerprint

__all__ = [
    "SeriesSpec",
    "SeriesTask",
    "SeriesOutcome",
    "execute_series",
]

#: Per-process memo of topologies loaded from the cache, so a worker
#: executing several series over one topology unpickles it once.
_TOPOLOGY_MEMO: Dict[str, Topology] = {}


@dataclass(frozen=True)
class SeriesSpec:
    """One beaconing series and what to collect from it."""

    name: str
    #: ``"baseline"`` or ``"diversity"`` — resolved to a factory in the
    #: worker (factory closures don't pickle; names + params do).
    algorithm: str
    config: BeaconingConfig
    warmup_intervals: int = 0
    dissemination_limit: int = 5
    params: Optional[DiversityParams] = None
    #: Deterministic per-worker seeding (the beaconing engine itself is
    #: seed-free; this pins any library RNG use to a reproducible state).
    seed: int = 0
    #: ASNs whose received bytes/PCBs the figure reads (Figure 5 monitors).
    collect_received: Tuple[int, ...] = ()
    #: (origin, receiver) pairs to evaluate path-set resilience for
    #: (Figures 6-8); the max-flow analysis runs inside the worker.
    collect_pairs: Tuple[Tuple[int, int], ...] = ()
    #: Collect the per-interface bandwidth CDF input (Figure 9), reported
    #: over the topology's *full* directed-interface set.
    collect_bandwidth: bool = False

    def algorithm_factory(self, kernel: str = "python"):
        if self.algorithm == "baseline":
            return baseline_factory(self.dissemination_limit)
        if self.algorithm == "diversity":
            return diversity_factory(
                self.dissemination_limit, self.params, kernel
            )
        raise ValueError(f"unknown algorithm {self.algorithm!r}")

    def snapshot_key(self, topology_fp: str) -> str:
        """Cache key of this series' simulation snapshot.

        A warm-up snapshot is independent of the measurement duration, so
        sibling series that share warm-up but measure different windows hit
        the same entry; a full-run snapshot includes the duration.
        """
        config = self.config
        shared = [
            topology_fp,
            self.algorithm,
            self.dissemination_limit,
            self.params,
            config.interval,
            config.pcb_lifetime,
            config.storage_limit,
            config.eviction_policy,
            config.mode,
            self.seed,
        ]
        if self.warmup_intervals:
            return stable_key("warm-sim", shared, self.warmup_intervals)
        return stable_key("run-sim", shared, config.duration)


@dataclass(frozen=True)
class SeriesTask:
    """A :class:`SeriesSpec` plus how the worker obtains its inputs."""

    spec: SeriesSpec
    #: Inline topology (cache-less mode) ...
    topology: Optional[Topology] = None
    #: ... or a cache directory + key to load it from (cached mode, which
    #: avoids re-pickling the topology into every task submission).
    cache_dir: Optional[str] = None
    topology_key: Optional[str] = None
    #: Collect metrics + trace events into the outcome. Lives on the task,
    #: not the spec: specs feed cache keys, and observing a run must not
    #: change what it computes or where it is cached.
    telemetry: bool = False
    #: Also run the sampling profiler (wall-clock; non-deterministic).
    profile: bool = False
    #: Run the beaconing through the sharded kernel (``repro.shard``)
    #: when > 1. Lives on the task, not the spec, for the same reason as
    #: ``telemetry``: sharding is byte-identical to single-process by
    #: contract, so it must not change cache keys or results.
    shards: int = 1
    #: Give each shard its own worker process (coordinator policy: only
    #: when the runtime isn't already fanned out across ``--jobs``).
    shard_processes: bool = False
    #: Kernel backend (``repro.kernels``) the run computes through. Lives
    #: on the task, not the spec, for the same reason as ``shards``:
    #: backends are byte-identical by contract, so the choice must not
    #: change cache keys or results.
    backend: str = "python"
    #: Causal-trace identity of this task: the runtime assigns sequential
    #: indices so every task's spans land in their own trace, with ids
    #: derived from (trace_seed, trace_index) — no randomness, no clock.
    #: ``-1`` disables causal tracing for the task.
    trace_index: int = -1
    trace_seed: int = 0


@dataclass
class SeriesOutcome:
    """Everything a figure reads from one series, picklable and small."""

    name: str
    #: Measured window in seconds (``num_intervals * interval``).
    duration: float
    intervals_run: int = 0
    total_pcbs: int = 0
    total_bytes: int = 0
    received_bytes: Dict[int, int] = field(default_factory=dict)
    received_pcbs: Dict[int, int] = field(default_factory=dict)
    #: Aligned with ``spec.collect_pairs``.
    resilience: List[int] = field(default_factory=list)
    interface_bandwidths: List[float] = field(default_factory=list)
    #: Wall time per worker-side phase (setup/warmup/measure/analyze).
    timings: Dict[str, float] = field(default_factory=dict)
    warmup_cached: bool = False
    #: Per-pair stored path sets, keyed by pair — only populated when the
    #: caller needs the raw paths rather than the resilience values.
    path_counts: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Worker-side telemetry, shipped back for the parent to merge:
    #: a MetricsRegistry snapshot, the recorded trace events, and the
    #: causal spans of this task's trace.
    metrics: Optional[Dict] = None
    trace: Optional[List] = None
    causal: Optional[List] = None


def _load_topology(task: SeriesTask) -> Topology:
    if task.topology is not None:
        return task.topology
    assert task.cache_dir is not None and task.topology_key is not None
    memo_key = f"{task.cache_dir}:{task.topology_key}"
    topology = _TOPOLOGY_MEMO.get(memo_key)
    if topology is None:
        cache = ExperimentCache(task.cache_dir)
        hit, topology = cache.load(task.topology_key)
        if not hit:
            raise RuntimeError(
                f"topology {task.topology_key!r} missing from cache "
                f"{task.cache_dir!r} (evicted mid-run?)"
            )
        _TOPOLOGY_MEMO[memo_key] = topology
    return topology


def execute_series(task: SeriesTask) -> SeriesOutcome:
    """Run one beaconing series; the process-pool task body.

    Identical code path for serial and parallel execution, which is what
    makes ``--jobs 1`` and ``--jobs N`` byte-identical.
    """
    spec = task.spec
    timings: Dict[str, float] = {}
    tel: Optional[Telemetry] = None
    if task.telemetry:
        tel = Telemetry.collecting(
            profile=task.profile,
            labels={
                "series": spec.name,
                "algorithm": spec.algorithm,
                "mode": spec.config.mode.value,
            },
        )

    # Causal root span of this task's trace. Ids derive from
    # (trace_seed, trace_index) and times from the tracer's logical tick
    # counter, so the spans are byte-identical whether the task ran
    # in-process or in a pool worker (the worker label is the only
    # process-dependent field, and comparisons scrub it).
    root = NULL_CAUSAL_SPAN
    if tel is not None and task.trace_index >= 0:
        tel.causal.configure(
            seed=task.trace_seed, worker=f"pid{os.getpid()}"
        )
        root = tel.causal.root(
            task.trace_index,
            "runtime",
            f"series:{spec.name}",
            algorithm=spec.algorithm,
            mode=spec.config.mode.value,
        )
        tel.causal.current = root.ctx

    def phase_span(name: str, **attrs):
        if tel is None:
            return NULL_CAUSAL_SPAN
        return tel.causal.begin(root.ctx, "runtime", name, **attrs)

    span = phase_span("setup")
    start = time.perf_counter()
    topology = _load_topology(task)
    cache = ExperimentCache(task.cache_dir) if task.cache_dir else None
    snapshot_key = (
        spec.snapshot_key(topology_fingerprint(topology)) if cache else None
    )
    timings["setup"] = time.perf_counter() - start
    span.end()

    outcome = SeriesOutcome(
        name=spec.name,
        duration=spec.config.num_intervals * spec.config.interval,
    )

    # --- warm-up (or full run), snapshot-cached ---------------------------
    start = time.perf_counter()
    sharded = task.shards > 1
    plan = None
    shard_keys: Optional[List[str]] = None
    if sharded:
        # Imported lazily: repro.shard imports the simulation package, and
        # single-process runs must not pay for (or depend on) the kernel.
        from ..shard import ShardedBeaconing, partition_topology

        plan = partition_topology(topology, task.shards)
        if snapshot_key is not None:
            # Warm state is cached per shard: each shard's simulation
            # pickles under its own key derived from the single-process
            # snapshot key, so different shard counts never mix states.
            shard_keys = [
                stable_key("shard-sim", snapshot_key, plan.num_shards, index)
                for index in range(plan.num_shards)
            ]

    def build_sim(states=None):
        if sharded:
            return ShardedBeaconing(
                topology,
                spec.algorithm_factory(task.backend),
                spec.config,
                plan=plan,
                processes=task.shard_processes,
                initial_states=states,
            )
        return BeaconingSimulation(
            topology, spec.algorithm_factory(task.backend), spec.config
        )

    def store_sim(sim) -> None:
        if cache is None or snapshot_key is None:
            return
        if sharded:
            for key, state in zip(shard_keys, sim.snapshot_states()):
                cache.store(key, state)
        else:
            cache.store(snapshot_key, sim)

    sim: Optional[BeaconingSimulation] = None
    if cache is not None and snapshot_key is not None:
        if sharded:
            states: Optional[list] = []
            for key in shard_keys:
                hit, state = cache.load(key)
                if not hit:
                    # All-or-nothing: a partial set of shard snapshots
                    # rebuilds from scratch rather than mixing epochs.
                    states = None
                    break
                states.append(state)
            if states is not None:
                sim = build_sim(states)
                outcome.warmup_cached = True
        else:
            hit, cached_sim = cache.load(snapshot_key)
            if hit:
                sim = cached_sim
                outcome.warmup_cached = True
    if spec.warmup_intervals:
        span = phase_span("warmup", cached=outcome.warmup_cached)
        if sim is None:
            sim = build_sim()
            sim.run_intervals(spec.warmup_intervals)
            sim.reset_metrics()
            store_sim(sim)
        timings["warmup"] = time.perf_counter() - start
        span.end()
        # Telemetry attaches after the warm-up (cached or not), so only
        # the measured window is observed — identically on both paths.
        if tel is not None:
            sim.attach_telemetry(tel)
        span = phase_span("measure", intervals=spec.config.num_intervals)
        start = time.perf_counter()
        sim.run_intervals(spec.config.num_intervals)
        timings["measure"] = time.perf_counter() - start
        span.end()
    else:
        span = phase_span("measure", cached=outcome.warmup_cached)
        if sim is None:
            sim = build_sim()
            if tel is not None:
                sim.attach_telemetry(tel)
            sim.run()
            store_sim(sim)
        timings["measure"] = time.perf_counter() - start
        span.end()

    outcome.intervals_run = sim.intervals_run
    outcome.total_pcbs = sim.metrics.total_pcbs
    outcome.total_bytes = sim.metrics.total_bytes

    # --- figure-specific collection --------------------------------------
    span = phase_span("analyze")
    start = time.perf_counter()
    for asn in spec.collect_received:
        outcome.received_bytes[asn] = sim.metrics.bytes_received_by(asn)
        outcome.received_pcbs[asn] = sim.metrics.pcbs_received_by(asn)
    for origin, receiver in spec.collect_pairs:
        paths = [pcb.link_ids() for pcb in sim.paths_at(receiver, origin)]
        outcome.path_counts[(origin, receiver)] = len(paths)
        outcome.resilience.append(
            path_set_resilience(topology, origin, receiver, paths)
        )
    if spec.collect_bandwidth:
        outcome.interface_bandwidths = sim.metrics.per_interface_bandwidth(
            outcome.duration, interfaces=sim.directed_interfaces()
        )
    timings["analyze"] = time.perf_counter() - start
    span.end()

    if sharded:
        # Stops shard workers and (in process mode) merges their metric
        # registries — and shard causal spans — into ``tel`` before the
        # snapshot below, so sharded telemetry is byte-identical to
        # single-process telemetry.
        sim.close()
    # The root closes after sim.close() so shard spans (stamped with the
    # coordinator's collect time) still nest inside it.
    root.end(
        intervals=outcome.intervals_run,
        pcbs=outcome.total_pcbs,
        cached=outcome.warmup_cached,
    )
    if tel is not None:
        tel.export_profile()
        outcome.metrics = tel.metrics.snapshot()
        outcome.trace = list(tel.trace.events)
        if tel.causal.enabled and task.trace_index >= 0:
            outcome.causal = tel.causal.export()
    outcome.timings = timings
    return outcome
