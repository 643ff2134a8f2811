"""Machine-speed calibration for the benchmark's timings.

The machines the benchmark runs on are shared: the speed of one Python
thread drifts by up to 1.8x within seconds as neighbours come and go,
so raw wall times of identical work spread wider than any useful bound.
A :class:`SpeedProbe` samples that speed while the program runs. A
``SIGALRM`` timer interrupts the main thread every :data:`PERIOD_S` and
times a fixed piece of pure-Python calibration work (object churn, dict
updates, a sort), which shares nothing with the program. A timed window
then reports

* ``raw_s``: the window's host seconds minus the probe's own samples;
* ``seconds``: ``raw_s`` scaled to the machine speed at which one
  calibration sample takes :data:`REFERENCE_SAMPLE_S`, using the mean
  sample of the window. Work the program does not do any faster or
  slower keeps these seconds; a slower neighbour does not.

The calibration code does not depend on the program, so a change to the
program moves ``seconds`` exactly as it moves ``raw_s``.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import fmean
from typing import Iterator, List

__all__ = ["PERIOD_S", "REFERENCE_SAMPLE_S", "SpeedProbe", "Window"]

#: Seconds between calibration samples (about 2% of the run).
PERIOD_S = 0.1
#: One calibration sample's seconds at the reference machine speed (the
#: typical figure on a 2-core x86_64 host with Python 3.11), so that
#: calibrated seconds read close to host seconds there.
REFERENCE_SAMPLE_S = 0.0018


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value


def calibration_work() -> int:
    """The fixed work one sample times."""
    totals = {}
    items = []
    for i in range(1500):
        item = _Item((i % 97, i & 7), i)
        totals[item.key] = totals.get(item.key, 0) + item.value
        items.append((item.key, -item.value))
    items.sort()
    return len(totals)


@dataclass
class Window:
    """A timed stretch of the program: see the module docstring."""

    raw_s: float = 0.0
    seconds: float = 0.0
    samples: int = 0


class SpeedProbe:
    """Samples machine speed on a timer while it is entered."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Host seconds spent in samples so far.
        self.spent = 0.0
        self._previous = None

    def sample(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not speed
        start = time.perf_counter()
        calibration_work()
        elapsed = time.perf_counter() - start
        if was_enabled:
            gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def clock(self) -> float:
        """Host seconds that exclude the probe's own samples."""
        return time.perf_counter() - self.spent

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def window(self) -> Iterator[Window]:
        """Time the ``with`` body; the result is filled in on exit.

        A sample on each side of the body gives even a window shorter
        than the period a speed of its own.
        """
        result = Window()
        self.sample()
        first = len(self.samples) - 1
        spent = self.spent
        start = time.perf_counter()
        try:
            yield result
        finally:
            end = time.perf_counter()
            program_s = end - start - (self.spent - spent)
            self.sample()
            speed = fmean(self.samples[first:])
            result.raw_s = program_s
            result.seconds = program_s * REFERENCE_SAMPLE_S / speed
            result.samples = len(self.samples) - first
