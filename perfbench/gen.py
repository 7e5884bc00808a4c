"""Seeded input generator for the benchmark workloads.

Every draw stays inside the documented input contract: it passes
`validate_graph` and `cssc_check`, and `checked` raises otherwise.  The
draws are biased towards inputs on which the deciders do real work:

* double-loop parameters satisfy condition (2) of the gap criterion,
  g_u <= g_v and b*g_v <= g_u, so `classify` does not stop at the cheap
  condition-(2) `Unknown`;
* nested pairs satisfy condition (2) at the outer vertex v, which for
  this family reads max(a, d)*g_u <= g_v;
* n-vertex systems are strongly connected, have out-degree 2 to 3, and
  share one level-1 gap length at every vertex, which makes the strong
  separation condition hold and condition (2) pass.

All ratios and offsets are rationals over one small denominator per
system, so exact arithmetic stays cheap enough to time many queries.
"""

from __future__ import annotations

import random
from fractions import Fraction

from graphifs import (
    DoubleLoopParams,
    Edge,
    GraphIFS,
    Similarity,
    cssc_check,
    double_loop_ifs,
    nested_pair_ifs,
    validate_graph,
)


def checked(ifs: GraphIFS) -> GraphIFS:
    """Return `ifs` after confirming it is a valid CSSC system."""
    report = validate_graph(ifs)
    if not report.ok:
        raise RuntimeError(f"generator drew an invalid system: {report.issues}")
    cssc = cssc_check(ifs)
    if not cssc.ok:
        raise RuntimeError(f"generator drew a non-CSSC system: {cssc.violations}")
    return ifs


def draw_double_loop(rng: random.Random) -> DoubleLoopParams:
    """Double-loop parameters with g_u <= g_v and b*g_v <= g_u, and with
    distinct rows (equal rows make the components coincide)."""
    while True:
        q = rng.randint(12, 40)
        gv = rng.randint(2, q // 3)
        gu = rng.randint(1, gv)
        b_max = min(gu * q // gv, q - gu - 1)
        b = rng.randint(1, b_max)
        c = rng.randint(1, q - gv - 1)
        p = DoubleLoopParams(
            Fraction(q - gu - b, q), Fraction(gu, q), Fraction(b, q),
            Fraction(c, q), Fraction(gv, q), Fraction(q - gv - c, q))
        if p.g_u > p.g_v or p.b * p.g_v > p.g_u:
            raise RuntimeError(f"double-loop draw fails condition (2): {p}")
        if (p.a, p.b) != (p.c, p.d):
            checked(double_loop_ifs(p))
            return p


def draw_nested_pair(rng: random.Random) -> GraphIFS:
    """A nested pair F_v = F_u plus a middle shifted copy of F_u, drawn
    so that condition (2) holds at v.

    With d = g_u - 2*g_v the maximal gaps satisfy M_u = g_u and
    M_v = max(g_v, max(a, d)*g_u), so condition (2) at v is
    max(a, d)*g_u <= g_v."""
    while True:
        q = rng.randint(8, 32)
        gu = rng.randint(3, q - 2)
        gv = rng.randint(1, (gu - 1) // 2)
        a = rng.randint(1, q - gu - 1)
        if max(a, gu - 2 * gv) * gu <= gv * q:
            return checked(nested_pair_ifs(Fraction(a, q), Fraction(gu, q),
                                           Fraction(gv, q)))


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """`total` as `parts` positive integers, uniformly over compositions."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def draw_cssc(rng: random.Random, n: int, max_degree: int = 3) -> GraphIFS:
    """A strongly connected n-vertex system with out-degree 2..max_degree
    and one common level-1 gap length g at every vertex.

    The first edge of each vertex points to the next vertex around a
    ring, which makes the graph strongly connected; the other targets
    are uniform.  Each vertex lays its images left to right from 0 to 1
    with gap g between neighbours."""
    q = rng.randint(16, 40)
    g = rng.randint(1, q // 8)
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for i, v in enumerate(vertices):
        m = rng.randint(2, max_degree)
        offset = 0
        for pos, width in enumerate(_split(rng, q - (m - 1) * g, m)):
            target = vertices[(i + 1) % n] if pos == 0 else rng.choice(vertices)
            edges.append(Edge(f"e{len(edges) + 1}", v, target,
                              Similarity(Fraction(width, q),
                                         Fraction(offset, q))))
            offset += width + g
    return checked(GraphIFS(vertices, tuple(edges)))
