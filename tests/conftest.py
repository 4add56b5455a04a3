import numpy as np
import pytest

import symlab.montecarlo
from symlab import asymptotics, efficiency, location, stats
from symlab._rng import stream
from symlab.distributions import get_alternative, get_null


@pytest.fixture(autouse=True)
def cold_null_cache():
    """Start every test without cached null simulations or a kept sample, whatever ran before it."""
    symlab.montecarlo._sorted_null.cache_clear()
    stats._pool.entry = None  # the calling thread's; other threads start without one, workers keep none


@pytest.fixture
def streams(monkeypatch):
    """The ``(seed, purpose, chunk)`` of each stream the Monte Carlo harness opens."""
    calls = []

    def counted(seed, *key):
        calls.append((seed, *key))
        return stream(seed, *key)

    monkeypatch.setattr(symlab.montecarlo, "stream", counted)
    return calls


@pytest.fixture
def centerings(monkeypatch):
    """The ``(n, alpha)`` of each sort-and-center of a chunk or row the row path runs."""
    calls = []
    weights = stats._weights

    def counted(n, alpha):
        calls.append((n, alpha))
        return weights(n, alpha)

    monkeypatch.setattr(stats, "_weights", counted)
    return calls


@pytest.fixture
def level_checks(monkeypatch):
    """The levels of each trimming-level check (:func:`symlab.location.check_level`), whichever module runs it."""
    calls = []
    check = location.check_level

    def counted(alpha):
        calls.append(np.ravel(alpha).tolist())
        return check(alpha)

    for module in (location, asymptotics, efficiency):
        if getattr(module, "check_level", None) is check:
            monkeypatch.setattr(module, "check_level", counted)
    return calls


@pytest.fixture
def simulations(monkeypatch):
    """The stream purpose of each Monte Carlo simulation run while the test runs."""
    calls = []
    simulate = symlab.montecarlo._simulate

    def counted(*args, **kwargs):
        calls.append(args[4])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(symlab.montecarlo, "_simulate", counted)
    return calls


@pytest.fixture(scope="session")
def normal():
    return get_null("normal")


@pytest.fixture(scope="session")
def logistic():
    return get_null("logistic")


@pytest.fixture(scope="session")
def cauchy():
    return get_null("cauchy")


@pytest.fixture(scope="session")
def all_nulls(normal, logistic, cauchy):
    return (normal, logistic, cauchy)


@pytest.fixture(scope="session")
def contam_normal(normal):
    return get_alternative("contam", normal)


@pytest.fixture(scope="session")
def fs_normal(normal):
    return get_alternative("fs", normal)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
