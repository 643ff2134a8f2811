"""Experiment runs never draw from the global ``random`` generator.

Each task kind (beaconing series, fault runs, traffic, multipath) runs
in-process (``jobs=1``) under the ``no_global_random`` fixture, which
makes any module-level ``random`` draw raise.
"""

import random

import pytest

from repro.experiments.faults import run_faults
from repro.experiments.multipath import run_multipath
from repro.experiments.traffic import run_traffic
from repro.runtime import ExperimentRuntime, SeriesSpec
from repro.service.session import MINI_SCALE
from repro.simulation.beaconing import BeaconingConfig, BeaconingMode
from repro.topology import generate_core_mesh

from .conftest import GlobalRandomDraw

pytestmark = pytest.mark.usefixtures("no_global_random")


def test_guard_catches_global_draws():
    """The guard is live, so the runs below cannot pass vacuously."""
    for draw in (
        lambda: random.random(),
        lambda: random.randint(0, 9),
        lambda: random.choice([1, 2]),
        lambda: random.shuffle([1, 2]),
        lambda: random.sample(range(5), 2),
        lambda: random.uniform(0.0, 1.0),
        lambda: random.getrandbits(8),
    ):
        with pytest.raises(GlobalRandomDraw):
            draw()
    # Seeded instances stay usable.
    assert random.Random(1).random() == random.Random(1).random()


def test_series():
    config = BeaconingConfig(
        interval=10.0, duration=40.0, pcb_lifetime=100.0,
        storage_limit=10, mode=BeaconingMode.CORE,
    )
    topology = generate_core_mesh(8, seed=1)
    outcomes = ExperimentRuntime(jobs=1).run_series(
        [
            (topology, SeriesSpec(name=name, algorithm=name, config=config, seed=1))
            for name in ("baseline", "diversity")
        ]
    )
    assert [o.name for o in outcomes] == ["baseline", "diversity"]
    assert all(o.total_pcbs > 0 for o in outcomes)


def test_faults():
    result = run_faults(
        MINI_SCALE, num_schedules=1, runtime=ExperimentRuntime(jobs=1)
    )
    assert result.results


def test_traffic():
    result = run_traffic(
        MINI_SCALE,
        runtime=ExperimentRuntime(jobs=1),
        policies=("shortest-latency",),
        algorithms=("baseline",),
    )
    assert sorted(result.results) == ["baseline/faulted", "baseline/shortest-latency"]


def test_multipath():
    result = run_multipath(
        MINI_SCALE, runtime=ExperimentRuntime(jobs=1), num_intervals=10
    )
    assert all(run.packets_offered > 0 for run in result.results.values())
