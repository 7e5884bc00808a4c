"""Shared fixtures and randomized instance generators."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import strategies as st

from graphifs import (
    DoubleLoopParams,
    Edge,
    GraphIFS,
    Similarity,
    build_spanning_system,
    double_loop_ifs,
    example_params,
    nested_pair_ifs,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

# The library computes in a 40-digit context of its own and leaves
# mpmath.mp alone; references that the tests compute in mpmath.mp are
# compared with its results to 1e-25 and finer, so they need the same
# precision.
mpmath.mp.dps = 40


@pytest.fixture(autouse=True)
def _restore_mp_dps():
    """Put mpmath.mp.dps back after every test, so that a test that sets a
    caller precision does not leak it into the next."""
    dps = mpmath.mp.dps
    yield
    mpmath.mp.dps = dps


def _load_gen():
    """The benchmark's seeded system generator, `perfbench/gen.py`,
    loaded by path, so the tests draw the systems the benchmark times."""
    path = SPEC_DIR.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_gen()


@pytest.fixture
def golden_params() -> DoubleLoopParams:
    """a=1/4, g_u=1/4, b=1/2; c=1/2, g_v=1/4, d=1/4 — the instance whose
    dimension is log of the golden-ratio conjugate base 1/2."""
    return DoubleLoopParams(
        Fraction(1, 4), Fraction(1, 4), Fraction(1, 2),
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


@pytest.fixture
def golden_ifs(golden_params) -> GraphIFS:
    return double_loop_ifs(golden_params)


@pytest.fixture
def nested_ifs() -> GraphIFS:
    """Two components with F_u strictly inside F_v."""
    return nested_pair_ifs(Fraction(1, 4), Fraction(1, 2), Fraction(1, 8))


@pytest.fixture
def twin_ifs() -> GraphIFS:
    """F_u = F_v = the attractor of {x/4 + 1/4, x/4 + 3/4}, by symmetry;
    1 lies in both components and 0 in neither."""
    quarter = Fraction(1, 4)
    return GraphIFS(("u", "v"), (
        Edge("e1", "u", "v", Similarity(quarter, quarter)),
        Edge("e2", "u", "u", Similarity(quarter, 3 * quarter)),
        Edge("e3", "v", "u", Similarity(quarter, quarter)),
        Edge("e4", "v", "v", Similarity(quarter, 3 * quarter)),
    ))


@pytest.fixture
def spanning_pair():
    """(GraphIFS, S) for the reference gap-spanning system."""
    return build_spanning_system(example_params())


def random_double_loop_params(rng: random.Random,
                              max_denominator: int = 64) -> DoubleLoopParams:
    """A uniform valid double-loop parameter set with both rows over a
    single denominator <= max_denominator."""

    def row():
        q = rng.randint(4, max_denominator)
        i = rng.randint(1, q - 2)
        j = rng.randint(i + 1, q - 1)
        return Fraction(i, q), Fraction(j - i, q), Fraction(q - j, q)

    a, g_u, b = row()
    c, g_v, d = row()
    return DoubleLoopParams(a, g_u, b, c, g_v, d)


@st.composite
def double_loop_params(draw, max_denominator=64):
    """The hypothesis strategy of random_double_loop_params."""
    def row():
        q = draw(st.integers(4, max_denominator))
        i = draw(st.integers(1, q - 2))
        j = draw(st.integers(i + 1, q - 1))
        return Fraction(i, q), Fraction(j - i, q), Fraction(q - j, q)

    a, g_u, b = row()
    c, g_v, d = row()
    return DoubleLoopParams(a, g_u, b, c, g_v, d)


def random_small_graph(rng: random.Random, max_vertices: int = 4) -> GraphIFS:
    """A random valid, CSSC, unit-interval-normalized graph.

    Each vertex gets 2 or 3 out-edges laid out in disjoint slots of [0,1];
    the first edge fixes 0 and the last fixes 1, and both target the next
    vertex around a ring, which guarantees strong connectivity and an
    endpoint-fixing cycle through every vertex.
    """
    n = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    counter = 0
    for i, v in enumerate(vertices):
        m = rng.randint(2, 3)
        slot = Fraction(1, 2 * m)
        ring = vertices[(i + 1) % n]
        for pos in range(m):
            counter += 1
            ratio = slot if rng.random() < 0.5 else slot / 2
            if pos == 0:
                offset = Fraction(0)
                target = ring
            elif pos == m - 1:
                offset = 1 - ratio
                target = ring
            else:
                offset = Fraction(pos, m)
                target = rng.choice(vertices)
            edges.append(Edge(f"e{counter}", v, target,
                              Similarity(ratio, offset)))
    return GraphIFS(vertices, tuple(edges))
