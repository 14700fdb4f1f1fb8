"""Shared fixtures: small hand-checkable graphs."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from graphcoreset import Graph

try:
    import hypothesis
except ImportError:  # the property tests skip themselves
    pass
else:
    # Property tests replay the same examples on every run and keep no
    # example database, so the suite stays deterministic; they set only
    # max_examples themselves.
    hypothesis.settings.register_profile("graphcoreset", derandomize=True, database=None,
                                         deadline=None)
    hypothesis.settings.load_profile("graphcoreset")


@pytest.fixture
def path3() -> Graph:
    """Path 0-1-2 with unit weights."""
    return Graph(3, np.array([[0, 1], [1, 2]]), np.ones(2))


@pytest.fixture
def star4() -> Graph:
    """Star with center 0 and leaves 1..3."""
    return Graph(4, np.array([[0, 1], [0, 2], [0, 3]]), np.ones(3))


@pytest.fixture
def two_triangles() -> Graph:
    """Triangles {0,1,2} and {3,4,5} joined by the bridge (2,3)."""
    edges = np.array([[0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [3, 5], [4, 5]])
    return Graph(6, edges, np.ones(7), labels=np.array([0, 0, 0, 1, 1, 1]))


class RoundState(NamedTuple):
    """A greedy run's state after one round."""

    coeffs: np.ndarray  # the iterate's coefficients on the normalized columns
    iterate: np.ndarray  # y = sum_i coeffs_i q_i, built for the tests only
    inner: np.ndarray  # <q_v, y> as the loop carries it, for the next round
    align: float  # <y, t> as the loop carries it


def _replay_trajectory(columns, trajectory) -> list:
    """The RoundState after each round, rebuilt from each record's vertex and
    step size with the selection loop's own scalar step, coefficient update and
    Gram-column rule, so a complete trajectory reproduces the run's carried
    state bit for bit. The iterate is rebuilt from the coefficients by one
    matvec, an independent check on what the loop carries."""
    base = columns.alignments(columns.target)
    coeffs = np.zeros(columns.n)
    inner = np.zeros(columns.n)
    align = 0.0
    states = []
    for rec in trajectory:
        v, delta = rec.vertex, rec.delta
        c = float(np.clip(inner[v], -1.0, 1.0))
        keep = 1.0 - delta
        norm = math.sqrt(keep * keep + 2.0 * delta * keep * c + delta * delta)
        align = min(max((keep * align + delta * float(base[v])) / norm, -1.0), 1.0)
        coeffs *= keep
        coeffs[v] += delta
        coeffs /= norm
        inner = (keep * inner + delta * columns.gram(v)) / norm
        iterate = columns.apply(coeffs / columns.column_norms)
        states.append(RoundState(coeffs.copy(), iterate, inner, align))
    return states


@pytest.fixture(scope="session")
def replay_trajectory():
    """The replay above, for tests that need a run's per-round state."""
    return _replay_trajectory
