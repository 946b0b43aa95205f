import contextlib
import sys
from unittest import mock

import pytest

from critlat.congruence import JoinIrreducibles
from critlat.diagrams import chain_diagram_of_partial, directing_diagram
from critlat.lattice import builtin, validate_lattice

from oracles import enumerate_all_lattices


@pytest.fixture(scope="session")
def named():
    """The standing corpus of named lattices."""
    out = {name: builtin(name) for name in
           ("2", "M:3", "M:4", "M:5", "N5", "bool:2", "bool:3", "F22",
            "chain:1", "chain:2", "chain:3", "chain:4", "chain:5")}
    out["one"] = validate_lattice(["*"], [], name="one")
    return out


@pytest.fixture(scope="session")
def small_lattices():
    """Every lattice with at most 6 elements, up to isomorphism."""
    out = []
    for n in range(1, 7):
        out.extend(enumerate_all_lattices(n))
    return out


@pytest.fixture(scope="session")
def lattices_to_7(small_lattices):
    """Every lattice with at most 7 elements, up to isomorphism."""
    return small_lattices + enumerate_all_lattices(7)


@pytest.fixture(scope="session")
def corpus(named, small_lattices):
    return list(named.values()) + small_lattices


@pytest.fixture(scope="session")
def lawful_diagrams(small_lattices):
    """Chain diagrams of every lattice of 2 to 5 elements, of F22 and of
    bool:3, and the directing diagrams of M:3 and N5 over three two-element
    chains."""
    lattices = [K for K in small_lattices if 2 <= K.n <= 5] + [builtin("F22"), builtin("bool:3")]
    pool = [chain_diagram_of_partial(K, K.labels)[0] for K in lattices]
    chains = [("0", x, "1") for x in ("x1", "x2", "x3")]
    return pool + [directing_diagram(builtin(nm), *chains) for nm in ("M:3", "N5")]


@contextlib.contextmanager
def _limit_above_caller(frames):
    depth = 0
    frame = sys._getframe(2)    # the caller, past this generator and contextmanager
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture
def recursion_limit_above_caller():
    """`with recursion_limit_above_caller(k):` runs its body with the
    recursion limit k frames above the calling test's depth."""
    return _limit_above_caller


@pytest.fixture
def spy_on_j():
    """`with spy_on_j() as spy:` counts in spy.call_count the J(Con L)
    built in its body."""
    def spy():
        return mock.patch.object(JoinIrreducibles, "__init__", autospec=True,
                                 side_effect=JoinIrreducibles.__init__)
    return spy
