"""Named parameter families of small directed-graph IFSs.

The central family is the two-vertex "double loop" system: a loop at each
vertex anchored at 0 plus a cross edge anchored at 1, in each direction.
Writing a, b for the ratios out of u and c, d for the ratios out of v, the
level-1 pictures are

    F_u:  [0, a]  gap g_u  [a+g_u, 1]      (a + g_u + b = 1)
    F_v:  [0, c]  gap g_v  [c+g_v, 1]      (c + g_v + d = 1)

Also provided: the single-loop and no-loop variants obtained by redirecting
the u-edges, and a "nested pair" family whose v-component is the union of
three shifted copies of the u-component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import Edge, GraphIFS, ONE, Similarity, ZERO, as_rational


@dataclass(frozen=True)
class DoubleLoopParams:
    """Parameters of the two-vertex double-loop family."""

    a: Fraction
    g_u: Fraction
    b: Fraction
    c: Fraction
    g_v: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "g_u", "b", "c", "g_v", "d"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        for name in ("a", "g_u", "b", "c", "g_v", "d"):
            if getattr(self, name) <= ZERO:
                raise ValueError(f"parameter {name} must be positive")
        if self.a + self.g_u + self.b != ONE:
            raise ValueError("a + g_u + b must equal 1")
        if self.c + self.g_v + self.d != ONE:
            raise ValueError("c + g_v + d must equal 1")

    def swapped(self) -> "DoubleLoopParams":
        """The same family with the roles of u and v exchanged."""
        return DoubleLoopParams(self.c, self.g_v, self.d, self.a, self.g_u, self.b)


def _loop_family_ifs(params: DoubleLoopParams,
                     targets: tuple[str, str, str, str]) -> GraphIFS:
    """The four double-loop maps, e1 and e2 leaving u and e3 and e4 leaving
    v, with edge ei entering targets[i-1]."""
    p = params
    t1, t2, t3, t4 = targets
    return GraphIFS(
        ("u", "v"),
        (
            Edge("e1", "u", t1, Similarity(p.a, ZERO)),
            Edge("e2", "u", t2, Similarity(p.b, p.a + p.g_u)),
            Edge("e3", "v", t3, Similarity(p.c, ZERO)),
            Edge("e4", "v", t4, Similarity(p.d, p.c + p.g_v)),
        ),
    )


def double_loop_ifs(params: DoubleLoopParams) -> GraphIFS:
    """Loop at each vertex plus one cross edge each way.

    e1: loop at u, ratio a, fixes 0.    e2: u -> v, ratio b, fixes 1.
    e3: loop at v, ratio c, fixes 0.    e4: v -> u, ratio d, fixes 1.
    """
    return _loop_family_ifs(params, ("u", "v", "v", "u"))


def single_loop_ifs(params: DoubleLoopParams) -> GraphIFS:
    """Variant with both u-edges redirected to v: the only loop is at v."""
    return _loop_family_ifs(params, ("v", "v", "v", "u"))


def no_loop_ifs(params: DoubleLoopParams) -> GraphIFS:
    """Variant with no loops at all: every edge crosses between u and v."""
    return _loop_family_ifs(params, ("v", "v", "u", "u"))


def nested_pair_ifs(a, g_u, g_v) -> GraphIFS:
    """Two-vertex family with F_v = F_u ∪ (middle shifted copy of F_u).

    F_u has two level-1 intervals [0,a] and [1-b,1] with b = 1-a-g_u.
    F_v adds a middle copy of F_u scaled by d = g_u - 2*g_v, so its level-1
    picture is [0,a], gap g_v, [a+g_v, a+g_v+d], gap g_v, [1-b, 1].

    e1: loop at u, ratio a.            e2: u -> v, ratio b, fixes 1.
    e3: v -> u, ratio a.               e4: v -> u, ratio d, offset a+g_v.
    e5: loop at v, ratio b, fixes 1.
    """
    a, g_u, g_v = map(as_rational, (a, g_u, g_v))
    b = ONE - a - g_u
    d = g_u - 2 * g_v
    if min(a, b, g_u, g_v, d) <= ZERO:
        raise ValueError("need a, b, g_u, g_v > 0 and g_v < g_u/2")
    return GraphIFS(
        ("u", "v"),
        (
            Edge("e1", "u", "u", Similarity(a, ZERO)),
            Edge("e2", "u", "v", Similarity(b, ONE - b)),
            Edge("e3", "v", "u", Similarity(a, ZERO)),
            Edge("e4", "v", "u", Similarity(d, a + g_v)),
            Edge("e5", "v", "v", Similarity(b, ONE - b)),
        ),
    )


def params_from_ifs(ifs: GraphIFS) -> Optional[DoubleLoopParams]:
    """Recover double-loop parameters from a GraphIFS, or None if the graph
    is not of that shape (two vertices; at each vertex one 0-anchored loop
    and one 1-anchored cross edge, none reflecting)."""
    if len(ifs.vertices) != 2:
        return None
    u, v = ifs.vertices
    row = {}
    for src, dst in ((u, v), (v, u)):
        out = ifs.out_edges(src)
        if len(out) != 2:
            return None
        loops = [e for e in out if e.dst == src and not e.map.reflect
                 and e.map(ZERO) == ZERO]
        crosses = [e for e in out if e.dst == dst and not e.map.reflect
                   and e.map(ONE) == ONE]
        if len(loops) != 1 or len(crosses) != 1:
            return None
        row[src] = (loops[0].map.ratio, crosses[0].map.ratio)
    a, b = row[u]
    c, d = row[v]
    if a + b >= ONE or c + d >= ONE:
        return None
    return DoubleLoopParams(a, ONE - a - b, b, c, ONE - c - d, d)
