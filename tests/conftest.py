import tracemalloc

import pytest

from leetoric import InterleavingMap, generator_matrix
from leetoric.lattice import mannheim_weight


def lee_distance(u, v, q):
    """Lee distance of two residue vectors: the Mannheim weight of their difference mod q."""
    return mannheim_weight([(a - b) % q for a, b in zip(u, v, strict=True)], q)


def traced_peak(run):
    """(run(), the peak bytes tracemalloc traced while run ran)."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def code5():
    return generator_matrix(5)


@pytest.fixture(scope="session")
def map5(code5):
    return InterleavingMap(code5)


@pytest.fixture(scope="session")
def code6():
    return generator_matrix(6)


@pytest.fixture(scope="session")
def map6(code6):
    return InterleavingMap(code6)
