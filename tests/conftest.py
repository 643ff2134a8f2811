"""Shared fixtures for the tier-1 suite."""

import random

import pytest

#: Module-level names of :mod:`random` that are not draws from its hidden
#: global generator: the classes and the state functions.
_NOT_DRAWS = {"Random", "SystemRandom", "seed", "getstate", "setstate"}


class GlobalRandomDraw(AssertionError):
    """Raised when code under test draws from the global ``random`` state."""


@pytest.fixture
def no_global_random(monkeypatch):
    """Make every draw from the global ``random`` generator raise.

    Determinism contracts require seeded ``random.Random`` instances only;
    a draw from the shared module-level generator depends on whatever ran
    before it. Instances are unaffected: only the module's bound draw
    functions are replaced.
    """
    for name in random.__all__:
        if name in _NOT_DRAWS:
            continue

        def draw(*args, _name=name, **kwargs):
            raise GlobalRandomDraw(f"random.{_name}() draws from global state")

        monkeypatch.setattr(random, name, draw)
