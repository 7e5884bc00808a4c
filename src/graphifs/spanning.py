"""Gap-spanning similarities: construction and bounded search.

For generic two-vertex systems, no similarity can map an attractor
component into itself while its image of [0,1] straddles a level-1 gap.
This module builds the known exceptional family — a two-vertex, eight-edge
system admitting a spanning similarity S whose compositions with the first
four edge maps reproduce compositions of edge maps exactly — and provides
a bounded search for spanning similarities of the conjectured shape
(level-j intervals of a source component mapped exactly onto level-k
intervals of a target component).

The search is conjecture-conditional: an empty result rules out spanning
maps of that shape at the given bounds, nothing more.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .model import (
    Edge,
    GraphIFS,
    ONE,
    Similarity,
    ZERO,
    as_rational,
)


@dataclass(frozen=True)
class SpanningParams:
    """Parameters of the eight-edge spanning family.

    Level-1 layout at u:  [r_e1] g1 [r_e2] g2 [r_e3] g3 [r_e4]
    Level-1 layout at v:  [r_e5] g4 [r_e6] g5 [r_e7] g6 [r_e8]
    with both rows summing to 1.
    """

    g1: Fraction
    g2: Fraction
    g3: Fraction
    g4: Fraction
    g5: Fraction
    g6: Fraction
    r_e1: Fraction
    r_e2: Fraction
    r_e3: Fraction
    r_e4: Fraction
    r_e5: Fraction
    r_e6: Fraction
    r_e7: Fraction
    r_e8: Fraction

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, as_rational(getattr(self, name)))
            if getattr(self, name) <= ZERO:
                raise ValueError(f"parameter {name} must be positive")
        row_u = (self.r_e1 + self.g1 + self.r_e2 + self.g2 + self.r_e3
                 + self.g3 + self.r_e4)
        row_v = (self.r_e5 + self.g4 + self.r_e6 + self.g5 + self.r_e7
                 + self.g6 + self.r_e8)
        if row_u != ONE or row_v != ONE:
            raise ValueError("each level-1 row must sum to exactly 1")

    @property
    def r(self) -> Fraction:
        """Ratio of the spanning similarity (equals r_e3)."""
        return self.r_e3


def solve_spanning_ratios(g1, g2, g3, g4) -> Optional[tuple[Fraction, ...]]:
    """Solve the spanning-identity constraint system for the first six
    ratios given the u-row gaps g1..g3 and the v-row gap g4:

        r_e1 = g1^2/(g2 g3)   r_e2 = g1 g3/(g2 g4)   r_e3 = g1/g2
        r_e4 = g3^2/(g2 g4)   r_e5 = g1 g4/(g2 g3)   r_e6 = g3/g2

    Returns None when any ratio leaves (0,1) or the u-row constraint
    r_e1 + g1 + r_e2 + g2 + r_e3 + g3 + r_e4 = 1 has nonzero residual.
    """
    g1, g2, g3, g4 = map(as_rational, (g1, g2, g3, g4))
    if min(g1, g2, g3, g4) <= ZERO:
        raise ValueError("gaps must be positive")
    ratios = (
        g1 * g1 / (g2 * g3),
        g1 * g3 / (g2 * g4),
        g1 / g2,
        g3 * g3 / (g2 * g4),
        g1 * g4 / (g2 * g3),
        g3 / g2,
    )
    if any(not (ZERO < r < ONE) for r in ratios):
        return None
    residual = ratios[0] + g1 + ratios[1] + g2 + ratios[2] + g3 + ratios[3] - ONE
    if residual != 0:
        return None
    return ratios


@dataclass(frozen=True)
class SurdRoot:
    """Exact quadratic root (p + sign*sqrt(d))/q with irrational sqrt(d)."""

    p: Fraction
    sign: int  # +1 or -1
    d: Fraction
    q: Fraction

    def approx(self) -> float:
        return float((self.p + self.sign * math.sqrt(self.d)) / self.q)


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def gap_quadratic_roots(alpha) -> list[Union[Fraction, SurdRoot]]:
    """Exact real roots of g2^2 + (2*alpha - 1)*g2 + 4*alpha = 0 — the
    equation forcing a symmetric instance (g1 = g3 = g4 = alpha) of the
    spanning family.  Real solutions exist only for alpha up to
    (20 - sqrt(384))/8, roughly 0.0505.  Rational roots come back as
    Fractions, irrational ones as SurdRoot records; [] if none."""
    alpha = as_rational(alpha)
    if alpha <= ZERO:
        raise ValueError("alpha must be positive")
    b = 2 * alpha - ONE
    disc = b * b - 4 * (4 * alpha)
    if disc < 0:
        return []
    root_d = _rational_sqrt(disc)
    if root_d is not None:
        roots = {(-b - root_d) / 2, (-b + root_d) / 2}
        return sorted(roots)
    return [SurdRoot(-b, -1, disc, Fraction(2)),
            SurdRoot(-b, +1, disc, Fraction(2))]


def example_params() -> SpanningParams:
    """The reference instance: g1 = g3 = g4 = 1/20, g2 = 1/2, all solved
    ratios equal to 1/10, and the v row completed with g5 = 1/5,
    g6 = 1/10, r_e7 = 7/20, r_e8 = 1/10."""
    twentieth = Fraction(1, 20)
    tenth = Fraction(1, 10)
    return SpanningParams(
        g1=twentieth, g2=Fraction(1, 2), g3=twentieth, g4=twentieth,
        g5=Fraction(1, 5), g6=tenth,
        r_e1=tenth, r_e2=tenth, r_e3=tenth, r_e4=tenth,
        r_e5=tenth, r_e6=tenth, r_e7=Fraction(7, 20), r_e8=tenth,
    )


def build_spanning_system(params: SpanningParams
                          ) -> tuple[GraphIFS, Similarity]:
    """Assemble the eight-edge system and its spanning similarity S.

    Edge targets: e1 u->u, e2 u->v, e3 u->u, e4 u->v,
                  e5 v->u, e6 v->v, e7 v->u, e8 v->v.
    S has ratio r = r_e3 and offset
    r_e1^2 + r_e1*g1 + r_e1*r_e2 + r_e1*g2 (the left end of the image of
    the third level-1 interval under the first edge map)."""
    p = params
    off_e2 = p.r_e1 + p.g1
    off_e3 = off_e2 + p.r_e2 + p.g2
    off_e6 = p.r_e5 + p.g4
    off_e7 = off_e6 + p.r_e6 + p.g5
    ifs = GraphIFS(
        ("u", "v"),
        (
            Edge("e1", "u", "u", Similarity(p.r_e1, ZERO)),
            Edge("e2", "u", "v", Similarity(p.r_e2, off_e2)),
            Edge("e3", "u", "u", Similarity(p.r_e3, off_e3)),
            Edge("e4", "u", "v", Similarity(p.r_e4, ONE - p.r_e4)),
            Edge("e5", "v", "u", Similarity(p.r_e5, ZERO)),
            Edge("e6", "v", "v", Similarity(p.r_e6, off_e6)),
            Edge("e7", "v", "u", Similarity(p.r_e7, off_e7)),
            Edge("e8", "v", "v", Similarity(p.r_e8, ONE - p.r_e8)),
        ),
    )
    s_offset = (p.r_e1 * p.r_e1 + p.r_e1 * p.g1
                + p.r_e1 * p.r_e2 + p.r_e1 * p.g2)
    return ifs, Similarity(p.r, s_offset)


@dataclass(frozen=True)
class IdentityReport:
    """One composed-map identity checked exactly."""

    description: str
    lhs: Similarity
    rhs: Similarity

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def verify_map_identities(ifs: GraphIFS, s_map: Similarity
                          ) -> tuple[bool, list[IdentityReport]]:
    """Check the four exact map identities that make S a self-map of the
    first component:  S∘S_e1 = S_e1∘S_e3,  S∘S_e2 = S_e1∘S_e4,
    S∘S_e3 = S_e2∘S_e5,  S∘S_e4 = S_e2∘S_e6.  (Non-reflecting
    similarities agreeing on an interval are equal as maps.)"""
    e = {edge.id: edge.map for edge in ifs.edges}
    pairs = (
        ("S∘S_e1 = S_e1∘S_e3", s_map.compose(e["e1"]), e["e1"].compose(e["e3"])),
        ("S∘S_e2 = S_e1∘S_e4", s_map.compose(e["e2"]), e["e1"].compose(e["e4"])),
        ("S∘S_e3 = S_e2∘S_e5", s_map.compose(e["e3"]), e["e2"].compose(e["e5"])),
        ("S∘S_e4 = S_e2∘S_e6", s_map.compose(e["e4"]), e["e2"].compose(e["e6"])),
    )
    reports = [IdentityReport(d, lhs, rhs) for d, lhs, rhs in pairs]
    return all(r.holds for r in reports), reports


@dataclass(frozen=True)
class SpanningHit:
    """A similarity found to map source level-j intervals exactly onto
    target level-k intervals while its image straddles a level-1 gap."""

    s_map: Similarity
    source_vertex: str
    target_vertex: str
    spanned_gap: tuple[Fraction, Fraction]
    level_pair: tuple[int, int]
    verified_depth: int


def span_search(ifs: GraphIFS, src: str, dst: str, max_j: int = 2,
                max_k: int = 3, verify_depth: int = 3) -> list[SpanningHit]:
    """Bounded search for gap-spanning similarities of the conjectured
    shape.  For each j <= max_j, k <= max_k, a candidate is the unique
    non-reflecting similarity sending the first level-j interval of the
    source onto some level-k interval of the target; it survives if every
    source level-j interval maps exactly onto a target level-k interval,
    its image of [0,1] strictly contains a level-1 gap of the target, and
    image containment S(F_src^{j+d}) within F_dst^{k+d} verifies for all
    d <= verify_depth.  Deterministic output, deduplicated by map.

    The search reads the ladder's integers: with the first source
    interval [f_lo, f_lo + L] over D^j and a target interval
    [t_lo, t_lo + delta] over D^k, the candidate sends p over D^(j+d) to
    delta * p + (t_lo * L - delta * f_lo) * D^d over L * D^(k+d)."""
    if max_j < 1 or max_k < 1 or verify_depth < 0:
        raise ValueError("bounds must be positive (verify_depth >= 0)")
    ladder = ifs.ladder
    scale = ladder.scale
    level1_gaps = ladder.gaps(dst, 1)
    hits: list[SpanningHit] = []
    seen: set[Similarity] = set()
    for j in range(1, max_j + 1):
        source = ladder.endpoints(src, j)
        f_lo, length = source[0], source[1] - source[0]
        for k in range(1, max_k + 1):
            target = ladder.endpoints(dst, k)
            pairs = set(zip(target[::2], target[1::2]))
            den = length * scale ** k  # the image of p over D^j is over den
            for t_lo, t_hi in zip(target[::2], target[1::2]):
                delta = t_hi - t_lo
                if delta * scale ** j >= den:  # ratio >= 1
                    continue
                base = t_lo * length - delta * f_lo
                # each source interval must map onto a target pair: both
                # image numerators divisible by L, the quotients in pairs
                ends = (divmod(delta * p + base, length) for p in source)
                if not all(r_lo == r_hi == 0 and (q_lo, q_hi) in pairs
                           for (q_lo, r_lo), (q_hi, r_hi) in zip(ends, ends)):
                    continue
                cand = Similarity(Fraction(delta * scale ** j, den),
                                  Fraction(base, den))
                hull_lo, hull_hi = (x * scale for x in cand.hull())
                gap = next((g for g in level1_gaps
                            if hull_lo < g[0] and g[1] < hull_hi), None)
                if cand in seen or gap is None or not all(
                        _images_inside(ladder.endpoints(src, j + d),
                                       ladder.endpoints(dst, k + d),
                                       delta, base * scale ** d, length)
                        for d in range(1, verify_depth + 1)):
                    continue
                seen.add(cand)
                hits.append(SpanningHit(
                    cand, src, dst, tuple(Fraction(g, scale) for g in gap),
                    (j, k), verify_depth))
    hits.sort(key=lambda h: (h.s_map.offset, h.s_map.ratio))
    return hits


def _images_inside(source: list[int], target: list[int], delta: int,
                   shift: int, length: int) -> bool:
    """Whether x -> (delta * x + shift) / length sends every interval of
    the flat list `source` into one of the flat list `target`: into the
    last one whose low end is at most the floor of the image's."""
    los = target[::2]
    for lo, hi in zip(source[::2], source[1::2]):
        i = bisect.bisect_right(los, (delta * lo + shift) // length) - 1
        if i < 0 or delta * hi + shift > target[2 * i + 1] * length:
            return False
    return True
