"""Per-layer timing for the benchmark's traced pass.

A :class:`Tracer` swaps class-level wrappers in for the public calls
into each layer of ``repro`` and puts the original functions back when
the pass ends, so untraced runs execute the program untouched. Every
wrapped call is a span: its layer accumulates the call count, the busy
seconds, the seconds covered by the spans opened inside it (for self
time), optional per-call durations (for percentiles) and work counters
filled by small ``before``/``after`` hooks.

The wrapped calls, one row per layer, are :data:`TRACED_CALLS`; the
metrics derived from them are :data:`PER_LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Layer",
    "PER_LAYER_METRICS",
    "TRACED_CALLS",
    "Tracer",
    "layer_metrics",
    "percentile",
]


@dataclass
class Layer:
    """What the traced pass saw of one layer."""

    name: str
    calls: int = 0
    seconds: float = 0.0
    #: Seconds spent in spans opened while this layer's span was open.
    child_seconds: float = 0.0
    #: Per-call seconds, kept only for layers reported as percentiles.
    durations: Optional[List[float]] = None
    counts: Dict[str, float] = field(default_factory=dict)
    #: Open spans of this layer; nested re-entries are not timed twice.
    depth: int = 0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount


class Tracer:
    """Installs span wrappers, collects per-layer totals, restores."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        #: The span clock: host seconds, or host seconds net of a
        #: :class:`~speed.SpeedProbe`'s samples (``probe.clock``).
        self.clock = clock
        self.layers: Dict[str, Layer] = {}
        # Open spans: [layer, start, seconds covered by child spans].
        self._stack: List[list] = []
        self._originals: List[Tuple[type, str, Any]] = []

    def layer(self, name: str) -> Layer:
        found = self.layers.get(name)
        if found is None:
            found = self.layers[name] = Layer(name)
        return found

    # ---------------------------------------------------------------- spans

    def _open(self, layer: Layer) -> Optional[list]:
        layer.depth += 1
        if layer.depth > 1:
            return None
        frame = [layer, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: Optional[list], layer: Layer) -> None:
        layer.depth -= 1
        if frame is None:
            return
        elapsed = self.clock() - frame[1]
        self._stack.pop()
        layer.calls += 1
        layer.seconds += elapsed
        layer.child_seconds += frame[2]
        if layer.durations is not None:
            layer.durations.append(elapsed)
        if self._stack:
            self._stack[-1][2] += elapsed

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of layer ``name`` (a root span the
        benchmark opens around a call it makes itself)."""
        layer = self.layer(name)
        frame = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, layer)

    # ------------------------------------------------------------- wrapping

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        *,
        durations: bool = False,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span wrapper for layer ``name``.

        ``before(*args)`` runs ahead of the span and its return value is
        handed to ``after(layer, token, result, *args)``, which runs once
        the span is closed and only when the call returned normally.
        """
        original = owner.__dict__[attr]
        layer = self.layer(name)
        if durations and layer.durations is None:
            layer.durations = []
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(*args) if before is not None else None
            frame = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame, layer)
            if after is not None:
                after(layer, token, result, *args)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for module, cls, attr, name, options in TRACED_CALLS:
            owner = getattr(importlib.import_module(module), cls)
            self.wrap(owner, attr, name, **options)
        return self

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


# ------------------------------------------------------------------ hooks


def _count_selected(layer, token, result, *args) -> None:
    layer.add("pcbs", len(result))


def _count_accepted(layer, token, result, *args) -> None:
    layer.add("accepted", 1 if result else 0)


def _step_before(sim) -> Tuple[int, int]:
    return sim.metrics.total_pcbs, sim.metrics.total_bytes


def _step_after(layer, token, result, sim) -> None:
    layer.add("intervals", 1)
    layer.add("pcbs_sent", sim.metrics.total_pcbs - token[0])
    layer.add("bytes_sent", sim.metrics.total_bytes - token[1])


def _bgp_before(sim, *args) -> int:
    return sim.total_updates()


def _bgp_after(layer, token, result, sim, *args) -> None:
    layer.add("updates", sim.total_updates() - token)


def _count_paths(layer, token, result, *args) -> None:
    layer.add("paths", len(result))


def _count_completed(layer, token, outcome, *args) -> None:
    layer.add("completed", 1 if outcome.completed else 0)


def _count_hops(layer, token, result, *args) -> None:
    layer.add("hops", len(result[1]))


#: (module, class, method, layer, wrap options) for every traced call.
TRACED_CALLS: Tuple[Tuple[str, str, str, str, Dict], ...] = (
    ("repro.core.diversity", "DiversityAlgorithm", "select",
     "core.diversity", {"after": _count_selected}),
    ("repro.core.baseline", "BaselineAlgorithm", "select",
     "core.baseline", {"after": _count_selected}),
    ("repro.core.beacon_store", "BeaconStore", "insert",
     "core.beacon_store", {"after": _count_accepted}),
    ("repro.simulation.beaconing", "BeaconingSimulation", "step",
     "simulation.beaconing", {"before": _step_before, "after": _step_after}),
    ("repro.bgp.simulator", "BGPSimulation", "run",
     "bgp.simulator", {"before": _bgp_before, "after": _bgp_after}),
    ("repro.runtime.pool", "ExperimentRuntime", "run_series",
     "runtime", {}),
    ("repro.control.network", "ScionNetwork", "lookup_paths",
     "control.network.lookup", {"durations": True, "after": _count_paths}),
    ("repro.control.network", "ScionNetwork", "fail_link",
     "control.network.fault", {}),
    ("repro.control.network", "ScionNetwork", "recover_link",
     "control.network.fault", {}),
    ("repro.traffic.engine", "TrafficEngine", "serve_one",
     "traffic.engine", {"durations": True, "after": _count_completed}),
    ("repro.dataplane.router", "RouterTable", "deliver_packet",
     "dataplane.router", {"after": _count_hops}),
)


#: Every per-layer metric: (name, unit, better). The traced pass reports
#: all of them on every workload; a layer the workload never calls reads 0.
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("core.diversity.select_s", "s", "lower"),
    ("core.diversity.select_calls", "count", "lower"),
    ("core.diversity.pcbs_selected", "count", "lower"),
    ("core.diversity.us_per_pcb", "us", "lower"),
    ("core.baseline.select_s", "s", "lower"),
    ("core.baseline.select_calls", "count", "lower"),
    ("core.baseline.pcbs_selected", "count", "lower"),
    ("core.baseline.us_per_pcb", "us", "lower"),
    ("core.beacon_store.insert_s", "s", "lower"),
    ("core.beacon_store.inserts", "count", "lower"),
    ("core.beacon_store.accepted", "count", "higher"),
    ("core.beacon_store.accept_ratio", "ratio", "higher"),
    ("core.beacon_store.ns_per_insert", "ns", "lower"),
    ("simulation.beaconing.step_s", "s", "lower"),
    ("simulation.beaconing.intervals", "count", "higher"),
    ("simulation.beaconing.self_s", "s", "lower"),
    ("simulation.beaconing.pcbs_sent", "count", "lower"),
    ("simulation.beaconing.bytes_sent", "bytes", "lower"),
    ("bgp.simulator.run_s", "s", "lower"),
    ("bgp.simulator.updates", "count", "lower"),
    ("bgp.simulator.updates_per_s", "1/s", "higher"),
    ("runtime.run_series_s", "s", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("topology.build_s", "s", "lower"),
    ("control.network.lookups", "count", "higher"),
    ("control.network.lookup_s", "s", "lower"),
    ("control.network.lookup_us_p50", "us", "lower"),
    ("control.network.lookup_us_p99", "us", "lower"),
    ("control.network.paths_returned", "count", "higher"),
    ("control.network.faults", "count", "higher"),
    ("control.network.fault_s", "s", "lower"),
    ("control.path_server.cache_hits", "count", "higher"),
    ("control.path_server.cache_misses", "count", "lower"),
    ("control.path_server.cache_hit_ratio", "ratio", "higher"),
    ("traffic.engine.flows", "count", "higher"),
    ("traffic.engine.serve_s", "s", "lower"),
    ("traffic.engine.self_s", "s", "lower"),
    ("traffic.engine.serve_us_p50", "us", "lower"),
    ("traffic.engine.serve_us_p99", "us", "lower"),
    ("traffic.engine.completed_ratio", "ratio", "higher"),
    ("dataplane.router.packets", "count", "higher"),
    ("dataplane.router.deliver_s", "s", "lower"),
    ("dataplane.router.ns_per_packet", "ns", "lower"),
    ("dataplane.router.hops", "count", "higher"),
    ("service.self_s", "s", "lower"),
    ("service.submitted", "count", "higher"),
    ("service.accepted", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("service.timeouts", "count", "lower"),
    ("service.peak_queue_depth", "count", "lower"),
    ("service.latency_p50_ms", "ms", "lower"),
    ("service.latency_p99_ms", "ms", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("obs.telemetry_overhead", "ratio", "lower"),
)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """The :data:`PER_LAYER_METRICS` values from a finished traced pass.

    ``extra`` carries what the workload measured outside the wrappers
    (topology build time, cache counters, service statistics, the two
    overhead ratios); it overrides the zero default of those names.
    """
    get = tracer.layers.get
    empty = Layer("")
    values: Dict[str, float] = {}
    for prefix in ("core.diversity", "core.baseline"):
        layer = get(prefix) or empty
        pcbs = layer.counts.get("pcbs", 0)
        values[f"{prefix}.select_s"] = layer.seconds
        values[f"{prefix}.select_calls"] = layer.calls
        values[f"{prefix}.pcbs_selected"] = pcbs
        values[f"{prefix}.us_per_pcb"] = _ratio(layer.seconds * 1e6, pcbs)

    store = get("core.beacon_store") or empty
    accepted = store.counts.get("accepted", 0)
    values["core.beacon_store.insert_s"] = store.seconds
    values["core.beacon_store.inserts"] = store.calls
    values["core.beacon_store.accepted"] = accepted
    values["core.beacon_store.accept_ratio"] = _ratio(accepted, store.calls)
    values["core.beacon_store.ns_per_insert"] = _ratio(
        store.seconds * 1e9, store.calls
    )

    step = get("simulation.beaconing") or empty
    values["simulation.beaconing.step_s"] = step.seconds
    values["simulation.beaconing.intervals"] = step.counts.get("intervals", 0)
    values["simulation.beaconing.self_s"] = step.self_seconds
    values["simulation.beaconing.pcbs_sent"] = step.counts.get("pcbs_sent", 0)
    values["simulation.beaconing.bytes_sent"] = step.counts.get(
        "bytes_sent", 0
    )

    bgp = get("bgp.simulator") or empty
    updates = bgp.counts.get("updates", 0)
    values["bgp.simulator.run_s"] = bgp.seconds
    values["bgp.simulator.updates"] = updates
    values["bgp.simulator.updates_per_s"] = _ratio(updates, bgp.seconds)

    runtime = get("runtime") or empty
    values["runtime.run_series_s"] = runtime.seconds
    values["runtime.self_s"] = runtime.self_seconds

    values["topology.build_s"] = 0.0

    lookup = get("control.network.lookup") or empty
    fault = get("control.network.fault") or empty
    lookup_us = [d * 1e6 for d in lookup.durations or ()]
    values["control.network.lookups"] = lookup.calls
    values["control.network.lookup_s"] = lookup.seconds
    values["control.network.lookup_us_p50"] = percentile(lookup_us, 0.50)
    values["control.network.lookup_us_p99"] = percentile(lookup_us, 0.99)
    values["control.network.paths_returned"] = lookup.counts.get("paths", 0)
    values["control.network.faults"] = fault.calls
    values["control.network.fault_s"] = fault.seconds

    for name in ("cache_hits", "cache_misses", "cache_hit_ratio"):
        values[f"control.path_server.{name}"] = 0.0

    engine = get("traffic.engine") or empty
    serve_us = [d * 1e6 for d in engine.durations or ()]
    values["traffic.engine.flows"] = engine.calls
    values["traffic.engine.serve_s"] = engine.seconds
    values["traffic.engine.self_s"] = engine.self_seconds
    values["traffic.engine.serve_us_p50"] = percentile(serve_us, 0.50)
    values["traffic.engine.serve_us_p99"] = percentile(serve_us, 0.99)
    values["traffic.engine.completed_ratio"] = _ratio(
        engine.counts.get("completed", 0), engine.calls
    )

    router = get("dataplane.router") or empty
    values["dataplane.router.packets"] = router.calls
    values["dataplane.router.deliver_s"] = router.seconds
    values["dataplane.router.ns_per_packet"] = _ratio(
        router.seconds * 1e9, router.calls
    )
    values["dataplane.router.hops"] = router.counts.get("hops", 0)

    service = get("service") or empty
    values["service.self_s"] = service.self_seconds
    for name in (
        "submitted", "accepted", "rejected", "retries", "timeouts",
        "peak_queue_depth", "latency_p50_ms", "latency_p99_ms",
    ):
        values[f"service.{name}"] = 0.0
    values["trace_overhead"] = 0.0
    values["obs.telemetry_overhead"] = 0.0

    unknown = set(extra) - set(values)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    values.update(extra)
    return {name: values[name] for name, _, _ in PER_LAYER_METRICS}
