"""Level-k attractor approximations and exact containment refutation.

The attractor component F_u is approximated from above by the level-k sets
F_u^k (unions of images of [0,1] under length-k path maps).  Because the
approximations nest downward, a point known to lie in F_u that falls in a
complementary gap of some F_v^m is exact proof that F_u is not a subset of
F_v.  Such proofs are packaged as replayable SubsetRefutation records.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import GraphStructureError, ResourceCapError
from .families import DoubleLoopParams
from .model import (
    DEFAULT_PATH_CAP,
    GraphIFS,
    ONE,
    Path,
    Similarity,
    ZERO,
    as_rational,
    path_count,
    path_similarity,
    paths_from,
)


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, pairwise-disjoint closed rational subintervals of [0,1]."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        cleaned = sorted(
            (as_rational(lo), as_rational(hi)) for lo, hi in self.intervals)
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in cleaned:
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] is reversed")
            if lo < ZERO or hi > ONE:
                raise ValueError(f"interval [{lo}, {hi}] escapes [0,1]")
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(merged))

    def __len__(self):
        return len(self.intervals)

    @property
    def total_length(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), ZERO)

    def contains(self, x) -> bool:
        x = as_rational(x)
        i = bisect.bisect_right([lo for lo, _ in self.intervals], x) - 1
        return i >= 0 and self.intervals[i][0] <= x <= self.intervals[i][1]

    def gaps(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The maximal open complementary intervals inside [0,1]."""
        out = []
        prev = ZERO
        for lo, hi in self.intervals:
            if lo > prev:
                out.append((prev, lo))
            prev = hi
        if prev < ONE:
            out.append((prev, ONE))
        return tuple(out)

    def apply(self, sim: Similarity) -> "IntervalSet":
        return IntervalSet(tuple(sim.map_interval(lo, hi)
                                 for lo, hi in self.intervals))

    def reflect(self) -> "IntervalSet":
        """Image under R(x) = 1 - x."""
        return IntervalSet(tuple((ONE - hi, ONE - lo)
                                 for lo, hi in self.intervals))


_FULL = ((ZERO, ONE),)


def level_k_set(ifs: GraphIFS, u: str, k: int,
                cap: int = DEFAULT_PATH_CAP) -> IntervalSet:
    """The level-k approximation F_u^k, computed by the per-level recursion
    F_u^{k} = union of S_e(F_{t(e)}^{k-1}) over out-edges of u."""
    if k < 0:
        raise ValueError("level k must be >= 0")
    if k and (count := path_count(ifs, u, k)) > cap:
        raise ResourceCapError(
            f"level-{k} set at {u!r} has more than {cap} intervals",
            bound=count)
    current: dict[str, IntervalSet] = {v: IntervalSet(_FULL) for v in ifs.vertices}
    for _ in range(k):
        current = {
            v: IntervalSet(tuple(
                pair
                for e in ifs.out_edges(v)
                for pair in current[e.dst].apply(e.map).intervals))
            for v in ifs.vertices
        }
    return current[u]


@dataclass(frozen=True)
class CSSCReport:
    """Pairs of same-vertex edges whose closed level-1 hulls intersect."""

    violations: tuple[tuple[str, str, str], ...]  # (vertex, edge_id, edge_id)

    @property
    def ok(self) -> bool:
        return not self.violations


def cssc_check(ifs: GraphIFS) -> CSSCReport:
    """Verify that at every vertex the closed level-1 hulls of distinct
    out-edges are pairwise disjoint (which also yields the open set
    condition and per-vertex level-1 total length < 1)."""
    violations = []
    for v in ifs.vertices:
        out = ifs.out_edges(v)
        hulls = [(e, e.map.hull()) for e in out]
        for i in range(len(hulls)):
            for j in range(i + 1, len(hulls)):
                (e1, (lo1, hi1)), (e2, (lo2, hi2)) = hulls[i], hulls[j]
                if max(lo1, lo2) <= min(hi1, hi2):
                    violations.append((v, e1.id, e2.id))
    return CSSCReport(tuple(violations))


def endpoint_points(ifs: GraphIFS, u: str, depth: int,
                    cap: int = DEFAULT_PATH_CAP) -> list[Fraction]:
    """Sorted exact members of F_u: {0, 1} together with all images of 0
    and 1 under path maps of length <= depth."""
    points = {ZERO, ONE}
    for point, _path, _endpoint in endpoint_witnesses(ifs, u, depth, cap):
        points.add(point)
    return sorted(points)


def endpoint_witnesses(ifs: GraphIFS, u: str, depth: int,
                       cap: int = DEFAULT_PATH_CAP
                       ) -> list[tuple[Fraction, Path, Fraction]]:
    """All (point, path, endpoint) witnesses S_be(endpoint) = point for
    paths of length 1..depth from u, sorted by (point, path length, edge
    ids, endpoint) and deduplicated by point."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    raw: list[tuple[Fraction, int, tuple[str, ...], Fraction, Path]] = []
    for j in range(1, depth + 1):
        for p in paths_from(ifs, u, j, cap=cap):
            sim = path_similarity(ifs, p)
            for endpoint in (ZERO, ONE):
                raw.append((sim(endpoint), j, p.edges, endpoint, p))
    raw.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    out: list[tuple[Fraction, Path, Fraction]] = []
    seen: set[Fraction] = set()
    for point, _j, _edges, endpoint, p in raw:
        if point not in seen:
            seen.add(point)
            out.append((point, p, endpoint))
    return out


@dataclass(frozen=True)
class SubsetRefutation:
    """Exact proof that one attractor component is not contained in another
    (optionally, in the other's reflection about x = 1/2).

    witness_point = (composed map of witness_path)(endpoint) is a point of
    the source component that lies strictly inside `gap`, a complementary
    open interval of the target's level-m approximation.
    """

    witness_point: Fraction
    witness_path: Path
    endpoint: Fraction
    gap: tuple[Fraction, Fraction]
    depths: tuple[int, int]  # (witness path length j, target level m)
    reflected: bool = False


def refute_subset(ifs: GraphIFS, u: str, v: str, depth: int = 8,
                  reflected: bool = False,
                  cap: int = DEFAULT_PATH_CAP) -> Optional[SubsetRefutation]:
    """Search for proof that F_u is not a subset of F_v (of R(F_v) when
    `reflected`).  Deterministic: target levels m = 1..depth outermost,
    witnesses in increasing point order within each level.  None means
    no proof was found at this depth, not that containment holds."""
    if u == v:
        raise ValueError("refute_subset requires distinct vertices")
    witnesses = endpoint_witnesses(ifs, u, depth, cap)
    for m in range(1, depth + 1):
        target = level_k_set(ifs, v, m, cap)
        if reflected:
            target = target.reflect()
        gaps = target.gaps()
        los = [lo for lo, _hi in gaps]
        for point, path, endpoint in witnesses:
            i = bisect.bisect_right(los, point) - 1
            if i >= 0 and gaps[i][0] < point < gaps[i][1]:
                return SubsetRefutation(point, path, endpoint, gaps[i],
                                        (len(path), m), reflected)
    return None


def replay_refutation(ifs: GraphIFS, u: str, v: str,
                      ref: SubsetRefutation) -> bool:
    """Re-verify a SubsetRefutation from its recorded evidence alone."""
    try:
        sim = path_similarity(ifs, ref.witness_path)
    except (ValueError, GraphStructureError):
        return False
    if (v not in ifs.vertices or ref.depths[0] != len(ref.witness_path)
            or ref.depths[1] < 1):
        return False
    if ifs.edge(ref.witness_path.edges[0]).src != u:
        return False
    if ref.endpoint not in (ZERO, ONE):
        return False
    if sim(ref.endpoint) != ref.witness_point:
        return False
    lo, hi = ref.gap
    if not (lo < ref.witness_point < hi):
        return False
    target = level_k_set(ifs, v, ref.depths[1])
    if ref.reflected:
        target = target.reflect()
    return (lo, hi) in target.gaps()


def components_equal(params: DoubleLoopParams) -> bool:
    """Whether the two components of a double-loop system coincide:
    F_u = F_v exactly when a = c and b = d."""
    return params.a == params.c and params.b == params.d
