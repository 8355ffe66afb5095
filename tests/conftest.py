import numpy as np
import pytest

from helpers import collinear_triple, unit_four_cycle
from negtype import validate_metric


@pytest.fixture(scope="session")
def two_point():
    return validate_metric(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture(scope="session")
def collinear():
    return collinear_triple()


@pytest.fixture(scope="session")
def four_cycle():
    return unit_four_cycle()


@pytest.fixture(scope="session")
def equilateral():
    """All distances 1: ultrametric, so infinite supremal exponent."""
    return validate_metric(None, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


@pytest.fixture()
def lapack(monkeypatch):
    """The names of the np.linalg calls eigh, eigvalsh and solve, in call order."""
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counting

    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls
