"""Gap intervals and gap-length sets of attractor components.

The gap-length set G_u collects the lengths of all maximal open intervals
complementary to F_u inside [0,1].  Level-k gaps are extracted exactly from
the level-k approximation; the overall maximum gap length is the least
fixed point of a monotone recursion driven by the level-1 gaps; and for the
two-vertex double-loop family the full length set has a closed form as a
finite union of multiplicative-semigroup cosets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .attractor import cssc_check
from .errors import (
    GraphStructureError,
    ResourceCapError,
    UnsupportedFeatureError,
)
from .families import DoubleLoopParams
from .model import (
    DEFAULT_PATH_CAP,
    GraphIFS,
    ONE,
    ZERO,
    as_rational,
)

def level_k_gaps(ifs: GraphIFS, u: str,
                 k: int) -> list[tuple[tuple[Fraction, Fraction], Fraction]]:
    """Complementary open intervals of the level-k approximation at u,
    sorted by position, each with its exact length."""
    if k < 1:
        raise ValueError("level k must be >= 1")
    gaps = ifs.ladder.gaps(u, k)  # its cap check bounds scale ** k
    den = ifs.ladder.scale ** k
    return [((Fraction(lo, den), Fraction(hi, den)), Fraction(hi - lo, den))
            for lo, hi in gaps]


def _level1_gap_lengths(ifs: GraphIFS) -> dict[str, list[Fraction]]:
    """Gap lengths of F_v^1 for every vertex v."""
    return {v: [Fraction(hi - lo, ifs.ladder.scale)
                for lo, hi in ifs.ladder.gaps(v, 1)] for v in ifs.vertices}


def max_gap(ifs: GraphIFS, u: str) -> Fraction:
    """The exact maximum of the full gap-length set G_u.

    Computed as the least fixed point of
        M_u = max(max G_u^1, max over out-edges e of r_e * M_{t(e)}),
    iterated |V| - 1 times from M_u = max G_u^1.  That is enough: M_u is
    the largest r_p * max G_{t(p)}^1 over paths p from u, and every ratio
    is below 1, so cutting a cycle out of p only raises r_p; the best p is
    simple and has at most |V| - 1 edges.  Requires disjoint closed
    level-1 hulls at every vertex (see cssc_check) and 0 and 1 in every
    component (see model.endpoint_fixed_check): a missing endpoint
    widens gaps beyond the level-1 gaps that the recursion scales.
    """
    if u not in ifs.vertices:
        raise GraphStructureError(f"unknown vertex {u!r}")
    return _max_gaps(ifs)[1][u]


def _max_gaps(ifs: GraphIFS) -> tuple[dict[str, list[Fraction]],
                                      dict[str, Fraction]]:
    """The level-1 gap lengths and max G_v of every vertex v, as max_gap
    describes; raises UnsupportedFeatureError, before reading any level,
    when a requirement of max_gap fails."""
    violations = cssc_check(ifs).violations
    if violations:
        v, e1, e2 = violations[0]
        raise UnsupportedFeatureError(
            f"max_gap requires disjoint level-1 hulls: edges {e1!r} and "
            f"{e2!r} at vertex {v!r} touch or overlap")
    for v, members in ifs.fixed_endpoints.items():
        for end, member in enumerate(members):
            if not member:
                raise UnsupportedFeatureError(
                    f"max_gap requires 0 and 1 in every component: {end} "
                    f"is no point of component {v!r}")
    level1 = _level1_gap_lengths(ifs)
    m = {v: max(level1[v]) for v in ifs.vertices}
    for _ in range(len(ifs.vertices) - 1):
        m = {v: max(level1[v] + [e.map.ratio * m[e.dst] for e in ifs.out_edges(v)])
             for v in ifs.vertices}
    return level1, m


@dataclass(frozen=True)
class GapCosets:
    """A finite union of cosets coeff * <generators> of multiplicative
    semigroups (the empty product 1 is always included, not stored).

    The members at or above the lowest threshold walked so far are kept,
    as reduced integer pairs, outside the fields (==, hash and repr ignore
    them), and every `enumerate` or `contains` at or above it reads them."""

    cosets: tuple[tuple[Fraction, tuple[Fraction, ...]], ...]

    def __post_init__(self):
        normalized = []
        for coeff, gens in self.cosets:
            coeff = as_rational(coeff)
            if coeff <= ZERO:
                raise ValueError("coset coefficient must be positive")
            gens = tuple(dict.fromkeys(map(as_rational, gens)))  # drop repeats
            if not all(ZERO < g < ONE for g in gens):
                raise ValueError("generators must lie in (0,1)")
            normalized.append((coeff, gens))
        object.__setattr__(self, "cosets", tuple(normalized))

    def _walk(self, threshold: Fraction) -> set[tuple[int, int]]:
        """Every member >= threshold, as a reduced integer pair: each
        coset's products are walked down from coeff, one generator at a
        time, and a walk stops below the threshold (finite since every
        generator is < 1).  More than DEFAULT_PATH_CAP products in all
        raise ResourceCapError."""
        tn, td = threshold.as_integer_ratio()
        members: set[tuple[int, int]] = set()
        walked = 0
        for coeff, gens in self.cosets:
            gens = [g.as_integer_ratio() for g in gens]
            stack = [coeff.as_integer_ratio()] if coeff >= threshold else []
            seen = set(stack)
            while stack:
                walked += 1
                if walked > DEFAULT_PATH_CAP:
                    raise ResourceCapError(
                        "coset membership enumeration too large", bound=walked)
                xn, xd = stack.pop()
                for gn, gd in gens:
                    yn, yd = xn * gn, xd * gd
                    if yn * td >= tn * yd:
                        c = math.gcd(yn, yd)
                        if (y := (yn // c, yd // c)) not in seen:
                            seen.add(y)
                            stack.append(y)
            members |= seen
        return members

    def _members(self, threshold: Fraction) -> set[tuple[int, int]]:
        """The kept members, which hold every member >= threshold; a
        threshold below the kept one walks anew and replaces them, and a
        walk that hits the cap keeps nothing."""
        n, d = threshold.as_integer_ratio()
        fn, fd, members = vars(self).get("_kept", (1, 0, None))  # floor 1/0
        if n * fd < fn * d:
            members = self._walk(threshold)
            object.__setattr__(self, "_kept", (n, d, members))
        return members

    def enumerate(self, threshold) -> list[Fraction]:
        """All members >= threshold, sorted ascending."""
        threshold = as_rational(threshold)
        if threshold <= ZERO:
            raise ValueError("threshold must be positive")
        n, d = threshold.as_integer_ratio()
        kept = [x for x in self._members(threshold) if x[0] * d >= n * x[1]]
        lcm = math.lcm(*(xd for _xn, xd in kept))  # an exact integer key
        kept.sort(key=lambda x: x[0] * (lcm // x[1]))
        return [Fraction(xn, xd) for xn, xd in kept]

    def contains(self, x) -> bool:
        """Exact membership test: every member >= x is reached by walking
        the products down from coeff, so x is a member exactly when it is
        among the kept members >= x; only a query below every earlier
        threshold walks, and it walks every product >= x, a member or not."""
        x = as_rational(x)
        return x.numerator > 0 and x.as_integer_ratio() in self._members(x)


def gap_length_cosets(params: DoubleLoopParams) -> tuple[GapCosets, GapCosets]:
    """Closed-form gap-length sets of the double-loop family:

        G_u = g_u<a>  ∪  b*d*g_u<a, b*d, c>  ∪  b*g_v<a, b*d, c>
        G_v = g_v<c>  ∪  b*d*g_v<a, b*d, c>  ∪  d*g_u<a, b*d, c>
    """
    p = params
    mixed = (p.a, p.b * p.d, p.c)
    g_u = GapCosets((
        (p.g_u, (p.a,)),
        (p.b * p.d * p.g_u, mixed),
        (p.b * p.g_v, mixed),
    ))
    g_v = GapCosets((
        (p.g_v, (p.c,)),
        (p.b * p.d * p.g_v, mixed),
        (p.d * p.g_u, mixed),
    ))
    return g_u, g_v


def max_gap_closed_form(params: DoubleLoopParams) -> tuple[Fraction, Fraction]:
    """(max G_u, max G_v) for the double-loop family:
    max{g_u, b*g_v} and max{g_v, d*g_u}."""
    p = params
    return max(p.g_u, p.b * p.g_v), max(p.g_v, p.d * p.g_u)


@dataclass(frozen=True)
class Condition2Report:
    """Comparison of max G_u against the smallest level-1 gap of each
    vertex in a target set."""

    u: str
    max_gap_u: Fraction
    comparisons: tuple[tuple[str, Fraction, bool], ...]  # (v, min G_v^1, ok)
    level1_gaps_uniform: Optional[bool]  # set when the check passes

    @property
    def ok(self) -> bool:
        return all(ok for _v, _m, ok in self.comparisons)


def condition2_check(ifs: GraphIFS, u: str, vset) -> Condition2Report:
    """Check max G_u <= min G_v^1 for every v in vset (which must contain
    u).  A pass forces all level-1 gaps at u to share one length; that
    consequence is verified and reported."""
    vset = list(vset)
    for v in (u, *vset):
        if v not in ifs.vertices:
            raise GraphStructureError(f"unknown vertex {v!r}")
    if u not in vset:
        raise ValueError("vset must contain the queried vertex")
    level1, m = _max_gaps(ifs)
    m_u = m[u]
    comparisons = tuple((v, min(level1[v]), m_u <= min(level1[v])) for v in vset)
    uniform = (len(set(level1[u])) == 1
               if all(ok for _v, _m, ok in comparisons) else None)
    return Condition2Report(u, m_u, comparisons, uniform)
