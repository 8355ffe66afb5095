import sys

import numpy as np
import pytest

from helpers import collinear_triple, unit_four_cycle
from negtype import quadform, validate_metric


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


class LapackCalls(list):
    """The names of the np.linalg calls eigh, eigvalsh and solve on a form, in call order.

    A Lanczos step's eigh of its small tridiagonal matrix (quadform._Run.step)
    is not a call on the form: steps counts those. sized holds (name, order
    of the matrix) for every call, the steps' included, so a list can be
    read on the form's own order (of_order).
    """

    def __init__(self):
        super().__init__()
        self.sized = []
        self.steps = 0

    def clear(self):
        super().clear()
        self.sized.clear()
        self.steps = 0

    def of_order(self, n):
        return [name for name, k in self.sized if k == n]


@pytest.fixture()
def lapack(monkeypatch):
    """The np.linalg calls eigh, eigvalsh and solve, in call order (LapackCalls)."""
    calls = LapackCalls()
    step = quadform._Run.step.__code__

    def counted(name):
        real = getattr(np.linalg, name)

        def counting(a, *args, **kwargs):
            if sys._getframe(1).f_code is step:
                calls.steps += 1
            else:
                calls.append(name)
            calls.sized.append((name, np.shape(a)[0]))
            return real(a, *args, **kwargs)

        return counting

    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls
