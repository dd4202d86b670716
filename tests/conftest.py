import pytest

from mbv import build_graph
from mbv.decompose import Component


def whole_component(g, piece=None, extra=None):
    """g as a decomposition component of itself.

    Each local vertex and edge maps to itself. ``piece`` and ``extra`` hold
    one int per vertex and default to zeros: every vertex an original with no
    deleted bridge.
    """
    zeros = (0,) * g.n
    return Component(g, tuple(range(g.n)), zeros if piece is None else tuple(piece),
                     zeros if extra is None else tuple(extra), {e: e for e in g.edges})


@pytest.fixture
def p4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def c5():
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@pytest.fixture
def k3():
    return build_graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def star():
    # K_{1,3} with center 0
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def k4():
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def k24():
    # parts {0, 1} and {2, 3, 4, 5}, all eight cross edges
    return build_graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)])


@pytest.fixture
def two_triangles():
    # triangles {0,1,2} and {3,4,5} joined by the bridge (2, 3)
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


@pytest.fixture
def spider():
    # center 0 with three legs of length two
    return build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


@pytest.fixture
def petersen():
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
    ]
    return build_graph(10, edges)
