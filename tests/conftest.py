"""Shared fixtures: small hand-checkable graphs."""

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


def _replay_trajectory(columns, trajectory) -> list:
    """(coefficients, iterate, inner) after each round, rebuilt from each record's
    vertex and step size with the selection loop's own blend, normalize,
    coefficient update and alignment rule (columns.step_alignments), so a
    complete trajectory reproduces the run's state bit for bit. inner holds the
    alignments the next round scores with, as the loop carries them."""
    coeffs = np.zeros(columns.n)
    iterate = np.zeros(columns.n)
    inner = np.zeros(columns.n)
    states = []
    for rec in trajectory:
        column = columns.column(rec.vertex)
        if rec.k == 0:
            norm = 1.0
            coeffs[rec.vertex] = 1.0
            iterate = column
        else:
            blended = (1.0 - rec.delta) * iterate + rec.delta * column
            norm = float(np.linalg.norm(blended))
            iterate = blended / norm
            coeffs *= 1.0 - rec.delta
            coeffs[rec.vertex] += rec.delta
            coeffs /= norm
        inner = columns.step_alignments(inner, iterate, rec.vertex, rec.delta, norm)
        states.append((coeffs.copy(), iterate, inner))
    return states


@pytest.fixture(scope="session")
def replay_trajectory():
    """The replay above, for tests that need a run's per-round state."""
    return _replay_trajectory
