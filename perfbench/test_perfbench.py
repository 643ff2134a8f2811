"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``).

They use small shapes so they finish in seconds; the real shapes are
exercised by running the benchmark.
"""

from __future__ import annotations

import importlib
import json
import re
import signal
import time
from statistics import fmean
from pathlib import Path

import pytest

import run as bench_run
import workloads
from layers import PER_LAYER_METRICS, TRACED_CALLS, Tracer
from speed import REFERENCE_SAMPLE_S, SpeedProbe
from workloads import DEFAULT_SEED, Run

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMALL_MESH = dict(
    workloads.CORE_MESH_SHAPE, core_ases=10, warmup_intervals=3,
    window_intervals=2,
)


def _originals():
    found = []
    for module, cls, attr, _, _ in TRACED_CALLS:
        owner = getattr(importlib.import_module(module), cls)
        found.append((owner, attr, owner.__dict__[attr]))
    return found


def test_wrappers_restore_originals():
    before = _originals()
    with Tracer():
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_wrappers_restore_originals_after_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_speed_probe_restores_alarm_and_nets_out_its_samples():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        first = len(probe.samples)
        with probe.window() as window:
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    taken = probe.samples[first:]
    assert window.samples == len(taken) >= 4  # two boundary, two timer
    assert 0.3 < window.raw_s < 0.35
    assert window.seconds == pytest.approx(
        window.raw_s * REFERENCE_SAMPLE_S / fmean(taken)
    )


def test_self_time_subtracts_nested_spans():
    class Inner:
        def work(self):
            return [1, 2]

    class Outer:
        def work(self, inner):
            return inner.work() + inner.work()

    tracer = Tracer()
    tracer.wrap(Inner, "work", "inner")
    tracer.wrap(Outer, "work", "outer")
    try:
        assert tracer.span("root", Outer().work, Inner()) == [1, 2, 1, 2]
    finally:
        tracer.restore()
    inner, outer, root = (tracer.layers[n] for n in ("inner", "outer", "root"))
    assert (inner.calls, outer.calls, root.calls) == (2, 1, 1)
    assert outer.child_seconds == pytest.approx(inner.seconds)
    assert root.child_seconds == pytest.approx(outer.seconds)
    assert 0 <= outer.self_seconds <= outer.seconds
    assert Inner.__dict__["work"].__name__ == "work"


def test_metric_names_and_caps():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == list(bench_run.END_TO_END_METRICS)
    assert per_layer == [(name, unit) for name, unit, _ in PER_LAYER_METRICS]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [name for name, _ in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for name, unit in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ("setup_s", "s") in end_to_end


def test_corrupted_digest_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CORE_MESH_SHAPE", SMALL_MESH)
    monkeypatch.setattr(workloads, "REFERENCE", tmp_path / "reference.json")
    run_small = workloads.run_core_mesh

    first = run_small(DEFAULT_SEED, 0, False, SpeedProbe())
    assert not first.correct  # no recorded reference: fails loudly
    workloads.write_reference(first)
    good = run_small(DEFAULT_SEED, 0, False, SpeedProbe())
    assert good.correct and good.failed == 0

    reference = json.loads(workloads.REFERENCE.read_text())
    reference["core-mesh"]["digest"] = "0" * 32
    workloads.REFERENCE.write_text(json.dumps(reference))
    bad = run_small(DEFAULT_SEED, 0, False, SpeedProbe())
    assert not bad.correct
    assert bad.failed == bad.attempted > 0


def test_failed_check_fails_its_operations():
    run = Run("x", DEFAULT_SEED, {})
    run.attempted = 10
    assert run.check("fine", True, 4)
    assert not run.check("digest_repeats", False, 4)
    assert run.check("digest_repeats", True, 4)  # a later pass cannot clear it
    assert not run.correct and run.failed == 4


def test_new_seed_changes_inputs_and_repeats_its_digest(monkeypatch):
    monkeypatch.setattr(workloads, "CORE_MESH_SHAPE", SMALL_MESH)
    mesh = workloads.generate_core_mesh(10, seed=1)
    assert workloads.label_maps(mesh, 11) != workloads.label_maps(mesh, 12)
    identity = workloads.label_maps(mesh, DEFAULT_SEED)
    assert all(k == v for m in identity for k, v in m.items())

    a = workloads.core_mesh_round(11, SpeedProbe())
    again = workloads.core_mesh_round(11, SpeedProbe())
    b = workloads.core_mesh_round(12, SpeedProbe())
    assert a["digest"] == again["digest"]
    assert a["digest"] != b["digest"]
    assert a["limit_ok"] and b["limit_ok"]


def test_service_seed_changes_load_and_repeats_its_digest(monkeypatch):
    small = dict(workloads.SERVICE_SHAPE, clients=4, requests_per_client=20)
    monkeypatch.setattr(workloads, "SERVICE_SHAPE", small)
    a = workloads.run_service_workload(11, 0, False, SpeedProbe())
    b = workloads.run_service_workload(12, 0, False, SpeedProbe())
    assert a.correct and b.correct and a.failed == b.failed == 0
    assert len(a.units) == 2 and a.checks["digest_repeats"]
    assert a.digest != b.digest


def test_relabel_is_an_isomorphism():
    mesh = workloads.generate_core_mesh(16, seed=3)
    asn_map, link_map = workloads.label_maps(mesh, 5)
    copy = workloads.relabel(mesh, asn_map, link_map)
    copy.validate()
    assert copy.num_links == mesh.num_links
    for link in mesh.links():
        moved = copy.link(link_map[link.link_id])
        assert moved.endpoints() == (
            asn_map[link.a.asn], asn_map[link.b.asn]
        )
        assert moved.relationship is link.relationship
    assert sorted(copy.degree(a) for a in copy.asns()) == sorted(
        mesh.degree(a) for a in mesh.asns()
    )


def test_fixture_comparison_detects_drift():
    fixture = json.loads(workloads.FIGURE5_FIXTURE.read_text())
    monthly = {
        series: {int(asn): value for asn, value in values.items()}
        for series, values in fixture["monthly_bytes"].items()
    }
    assert workloads.matches_fixture(monthly)
    series = sorted(monthly)[0]
    asn = sorted(monthly[series])[0]
    monthly[series][asn] *= 1 + 1e-6
    assert not workloads.matches_fixture(monthly)


def test_empty_directory_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "SRC", tmp_path / "src")
    assert bench_run.main(["--workload", "service"]) != 0
