"""Level-k attractor approximations and exact containment refutation.

The attractor component F_u is approximated from above by the level-k sets
F_u^k (unions of images of [0,1] under length-k path maps).  Because the
approximations nest downward, a point known to lie in F_u that falls in a
complementary gap of some F_v^m is exact proof that F_u is not a subset of
F_v.  Such proofs are packaged as replayable SubsetRefutation records.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import model
from .errors import GraphStructureError, ResourceCapError
from .families import DoubleLoopParams
from .model import (
    GraphIFS,
    ONE,
    Path,
    Similarity,
    ZERO,
    as_rational,
    _check_path_cap,
)


class IntervalSet:
    """Sorted, pairwise-disjoint closed rational subintervals of [0,1].

    The set is a private flat list [lo, hi, lo, hi, ...] of integers over
    one denominator: level_k_set shares the ladder's own list over D^k,
    and the constructor scales its intervals to the lcm of their
    denominators.  Every query works on those integers; `intervals`
    builds its Fraction pairs on first read."""

    def __init__(self, intervals):
        cleaned = sorted((as_rational(lo), as_rational(hi))
                         for lo, hi in intervals)
        for lo, hi in cleaned:
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] is reversed")
            if lo < ZERO or hi > ONE:
                raise ValueError(f"interval [{lo}, {hi}] escapes [0,1]")
        den = math.lcm(*(p.denominator for pair in cleaned for p in pair))
        self._flat = _merged([p.numerator * (den // p.denominator)
                              for pair in cleaned for p in pair])
        self._den = den

    @classmethod
    def _of(cls, flat: list[int], den: int) -> "IntervalSet":
        """The set of the sorted, separated integer endpoints `flat` over
        `den`, sharing the list; callers must not change it."""
        iset = object.__new__(cls)
        iset._flat, iset._den = flat, den
        return iset

    @functools.cached_property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        points = [Fraction(p, self._den) for p in self._flat]
        return tuple(zip(points[::2], points[1::2]))

    def __repr__(self):
        return f"IntervalSet(intervals={self.intervals!r})"

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        a, b = self._den, other._den
        return len(self._flat) == len(other._flat) and all(
            p * b == q * a for p, q in zip(self._flat, other._flat))

    def __hash__(self):  # over the least common denominator
        g = math.gcd(self._den, *self._flat)
        return hash((self._den // g, *(p // g for p in self._flat)))

    def __len__(self):
        return len(self._flat) // 2

    @property
    def total_length(self) -> Fraction:
        flat = self._flat
        return Fraction(sum(flat[1::2]) - sum(flat[::2]), self._den)

    def _find(self, x) -> int:
        """The index in the flat list of the low end of the interval that
        holds x, or -1.  x is in [lo, hi] over den exactly when lo <= x *
        den <= hi, which bisection decides on q, the integer floor of x *
        den: an exact q may also be a high end."""
        x = as_rational(x)
        q, r = divmod(x.numerator * self._den, x.denominator)
        flat = self._flat
        i = bisect.bisect_right(flat, q)
        if i % 2:  # flat[i - 1] <= q < flat[i], a low and a high end
            return i - 1
        return i - 2 if r == 0 < i and flat[i - 1] == q else -1

    def interval_containing(self, x) -> Optional[tuple[Fraction, Fraction]]:
        """The interval holding x, found by bisection, or None."""
        i = self._find(x)
        return None if i < 0 else (Fraction(self._flat[i], self._den),
                                   Fraction(self._flat[i + 1], self._den))

    def contains(self, x) -> bool:
        return self._find(x) >= 0

    def gaps(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The maximal open complementary intervals inside [0,1]."""
        den = self._den
        bounds = [0, *self._flat, den]
        return tuple((Fraction(lo, den), Fraction(hi, den))
                     for lo, hi in zip(bounds[::2], bounds[1::2]) if lo < hi)

    def apply(self, sim: Similarity) -> "IntervalSet":
        return IntervalSet(tuple(sim.map_interval(lo, hi)
                                 for lo, hi in self.intervals))


class LevelLadder:
    """The level sets F_v^0, F_v^1, ... of every vertex of one system,
    which owns it as `GraphIFS.ladder` and frees it with itself.

    `scale` is D, the lcm of every ratio and offset denominator, and
    `maps[edge id]` is (D * coefficient, D * offset).  Level k of a
    vertex is a flat list [lo, hi, lo, hi, ...] of integers over D^k, so
    an edge map sends an endpoint p over D^(k-1) to (D * coefficient) * p
    + (D * offset) * D^(k-1) over D^k.  Each level is built once from the
    level before it, for all vertices, when first asked for.
    `violations`, which cssc_check reports, holds each (vertex, edge id,
    edge id) whose closed level-1 hulls (min, max of o, c + o) meet, pairs
    in out-edge order.  Children are laid out in hull order: at a vertex
    with no violation that is the level, and elsewhere they are sorted
    and merged so that touching or overlapping children become one
    interval; a level-1 hull outside [0,1] raises ValueError.  Every read
    is held to the path cap of model._check_path_cap, and a level is
    built only when no vertex would get more than model.DEFAULT_PATH_CAP
    intervals before merging.  The ladder keeps integers only, and
    level_k_set shares its lists.
    """

    def __init__(self, ifs: GraphIFS):
        self.ifs = ifs
        scale = self.scale = math.lcm(*(x.denominator for e in ifs.edges
                                        for x in (e.map.ratio, e.map.offset)))
        self.maps = {e.id: (int(e.map.coefficient * scale),
                            int(e.map.offset * scale)) for e in ifs.edges}
        hull = {eid: sorted((o, c + o)) for eid, (c, o) in self.maps.items()}
        self.violations = tuple(
            (v, e1.id, e2.id) for v in ifs.vertices
            for e1, e2 in itertools.combinations(ifs.out_edges(v), 2)
            if max(hull[e1.id][0], hull[e2.id][0])
            <= min(hull[e1.id][1], hull[e2.id][1]))
        touching = {v for v, _e1, _e2 in self.violations}
        self._apart = {v: v not in touching for v in ifs.vertices}
        self._children = {v: [(e.dst, *self.maps[e.id]) for e in sorted(
            ifs.out_edges(v), key=lambda e: hull[e.id])] for v in ifs.vertices}
        self._levels: list[dict[str, list[int]]] = [
            {v: [0, 1] for v in ifs.vertices}]

    def _extend(self) -> None:
        k = len(self._levels)
        prev = self._levels[-1]
        for v, children in self._children.items():
            count = sum(len(prev[dst]) for dst, *_ in children) // 2
            if count > model.DEFAULT_PATH_CAP:
                raise ResourceCapError(
                    f"{count} intervals of level {k} at {v!r} exceed cap "
                    f"{model.DEFAULT_PATH_CAP}", bound=count)
        shift = self.scale ** (k - 1)
        level = {}
        for v, children in self._children.items():
            flat: list[int] = []
            for dst, c, o in children:
                o *= shift
                child = prev[dst]
                flat += [c * p + o for p in (reversed(child) if c < 0 else child)]
                if k == 1 and (flat[-2] < 0 or flat[-1] > self.scale):
                    lo, hi = (Fraction(p, self.scale) for p in flat[-2:])
                    raise ValueError(f"interval [{lo}, {hi}] escapes [0,1]")
            level[v] = flat if self._apart[v] else _merged(flat)
        self._levels.append(level)

    def endpoints(self, v: str, k: int) -> list[int]:
        """F_v^k as the ladder's own flat list [lo, hi, lo, hi, ...] of
        integers over scale**k; callers must not change it."""
        if k < 0:
            raise ValueError("level k must be >= 0")
        _check_path_cap(self.ifs, v, k)
        while len(self._levels) <= k:
            self._extend()
        return self._levels[k][v]

    def gaps(self, v: str, k: int) -> list[tuple[int, int]]:
        """The open gaps of F_v^k inside [0,1], in order, as integer pairs
        (lo, hi) over scale**k."""
        bounds = [0, *self.endpoints(v, k), self.scale ** k]
        return [(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2])
                if lo < hi]


def _merged(flat: list) -> list:
    """Sort the intervals of a flat endpoint list and merge those that
    touch or overlap."""
    out: list = []
    for lo, hi in sorted(zip(flat[::2], flat[1::2])):
        if out and lo <= out[-1]:
            out[-1] = max(out[-1], hi)
        else:
            out += [lo, hi]
    return out


def level_k_set(ifs: GraphIFS, u: str, k: int) -> IntervalSet:
    """The level-k approximation F_u^k = union of S_e(F_{t(e)}^{k-1}) over
    out-edges of u: the system's ladder's own list over D^k, not copied."""
    flat = ifs.ladder.endpoints(u, k)  # its cap check bounds scale ** k
    return IntervalSet._of(flat, ifs.ladder.scale ** k)


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
    condition and per-vertex level-1 total length < 1): the violations
    the system's ladder found once, on its integer hulls."""
    return CSSCReport(ifs.ladder.violations)


def endpoint_points(ifs: GraphIFS, u: str, depth: int) -> list[Fraction]:
    """Sorted exact members of F_u: each of 0 and 1 that lies in F_u,
    together with the points of endpoint_witnesses(ifs, u, depth)."""
    witnesses = endpoint_witnesses(ifs, u, depth)
    ends = zip((ZERO, ONE), ifs.fixed_endpoints[u])
    return sorted({end for end, member in ends if member}.union(
        point for point, _path, _end in witnesses))


def endpoint_witnesses(ifs: GraphIFS, u: str, depth: int
                       ) -> list[tuple[Fraction, Path, Fraction]]:
    """All (point, path, endpoint) witnesses S_be(endpoint) = point for
    paths of length 1..depth from u and endpoints that lie in F_{t(path)}
    (model.endpoint_fixed_check), sorted by (point, path length, edge ids,
    endpoint) and deduplicated by point.

    The path tree is walked breadth first, shorter paths first and paths
    of one length in edge-id order, so each point keeps the first witness
    it meets: shortest path, then edge-id order, endpoint 0 before 1.  Each
    path map is composed one edge at a time as integers (A, B) meaning
    x -> (A x + B) / D^length, D the ladder's scale."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _check_path_cap(ifs, u, depth)
    scale, maps = ifs.ladder.scale, ifs.ladder.maps
    members = ifs.fixed_endpoints
    best: dict[int, tuple[Path, Fraction]] = {}  # point * D^depth -> witness
    level = [(u, (), 1, 0)]
    for j in range(1, depth + 1):
        lift = scale ** (depth - j)
        nodes = []
        for at, edges, a, b in level:
            for e in ifs.out_edges(at):
                c, o = maps[e.id]
                ca, cb = a * c, a * o + b * scale
                path = edges + (e.id,)
                for endpoint, member, point in zip(
                        (ZERO, ONE), members[e.dst],
                        (cb * lift, (ca + cb) * lift)):
                    if member and point not in best:
                        best[point] = (Path(path), endpoint)
                if j < depth:
                    nodes.append((e.dst, path, ca, cb))
        level = nodes
    top = scale ** depth
    return [(Fraction(point, top), *best[point]) for point in sorted(best)]


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
                  reflected: bool = False) -> Optional[SubsetRefutation]:
    """Proof that F_u is not a subset of F_v (of R(F_v) when `reflected`):
    the least point of endpoint_witnesses(ifs, u, depth), with the witness
    it keeps there, that lies strictly inside a gap of F_v^m (of R(F_v^m),
    whose gaps are those of F_v^m reflected, (1 - hi, 1 - lo)), for the
    least level m = 1..depth that has one.  None means no proof was found
    at this depth, not that containment holds.

    No witness list is built.  For each m, a best-first search pops
    path-tree nodes, the integer maps (A, B) of endpoint_witnesses, keyed
    by (low end of their hull S_p([0,1]) over D^depth, length, edge ids).
    It skips every node whose closed hull meets no open gap and stops once
    no node left is keyed below the best (point, length, edge ids,
    endpoint) found; a child's hull lies in its parent's, since the ladder
    rejects a hull outside [0,1] when it builds level 1 for every vertex.
    So every node that maps a member endpoint onto the best point is
    popped, and the key carries the tie rule of endpoint_witnesses."""
    from heapq import heappop, heappush  # loaded by a search, not on import
    if u == v:
        raise ValueError("refute_subset requires distinct vertices")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _check_path_cap(ifs, u, depth)
    _check_path_cap(ifs, v, 0)  # an unknown v raises at every depth
    ladder = ifs.ladder
    scale = ladder.scale
    top = scale ** depth
    lift = [scale ** (depth - j) for j in range(depth + 1)]
    members = ifs.fixed_endpoints
    out = {w: [(e.id, e.dst, *ladder.maps[e.id]) for e in ifs.out_edges(w)]
           for w in ifs.vertices}
    for m in range(1, depth + 1):
        gaps = [(lo * lift[m], hi * lift[m]) for lo, hi in ladder.gaps(v, m)]
        if reflected:
            gaps = [(top - hi, top - lo) for lo, hi in reversed(gaps)]
        los = [lo for lo, _hi in gaps]
        his = [hi for _lo, hi in gaps]
        # (point, length, edge ids, endpoint): no point strictly inside a
        # gap reaches 1, and (top,) sorts after every key that starts at top
        best = (top,)
        # (hull low end, length, edge ids, vertex, A, B)
        heap = [(0, 0, (), u, 1, 0)]
        while heap and (heap[0][0] < best[0] or heap[0][0] == best[0]
                        and heap[0][1:3] < best[1:3]):
            _lo, j, edges, at, a, b = heappop(heap)
            if j:
                ends = (b * lift[j], (a + b) * lift[j])
                for end, member, point in zip((ZERO, ONE), members[at], ends):
                    if member and (point < best[0] or point == best[0]
                                   and (j, edges, end) < best[1:]):
                        i = bisect.bisect_right(los, point) - 1
                        if i >= 0 and los[i] < point < his[i]:
                            best = (point, j, edges, end)
            if j < depth:
                j += 1
                for eid, dst, c, o in out[at]:
                    ca, cb = a * c, a * o + b * scale
                    lo, hi = cb * lift[j], (ca + cb) * lift[j]
                    if ca < 0:
                        lo, hi = hi, lo
                    i = bisect.bisect_right(his, lo)  # first gap past lo
                    if i < len(gaps) and los[i] < hi and (
                            lo < best[0] or lo == best[0]
                            and (j, edges + (eid,)) < best[1:3]):
                        heappush(heap, (lo, j, edges + (eid,), dst, ca, cb))
        if best[0] < top:
            point, j, edges, end = best
            i = bisect.bisect_right(los, point) - 1
            return SubsetRefutation(
                Fraction(point, top), Path(edges), end,
                (Fraction(los[i], top), Fraction(his[i], top)),
                (j, m), reflected)
    return None


def replay_refutation(ifs: GraphIFS, u: str, v: str,
                      ref: SubsetRefutation) -> bool:
    """Re-verify a SubsetRefutation from its recorded evidence alone.  The
    witness path is composed one edge at a time on the ladder's integer
    maps, x -> (A x + B) / D^length, as in endpoint_witnesses."""
    edges, (j, m) = ref.witness_path.edges, ref.depths
    if (v not in ifs.vertices or j != len(edges) or m < 1
            or ref.endpoint not in (ZERO, ONE)):
        return False
    scale, maps = ifs.ladder.scale, ifs.ladder.maps
    at, a, b = u, 1, 0
    for eid in edges:
        try:
            e = ifs.edge(eid)
        except GraphStructureError:
            return False
        if e.src != at:  # the first edge leaves u, and each the one before
            return False
        c, o = maps[eid]
        at, a, b = e.dst, a * c, a * o + b * scale
    end = int(ref.endpoint)
    point = Fraction(a * end + b, scale ** j)
    if (not ifs.fixed_endpoints[at][end] or point != ref.witness_point
            or not ref.gap[0] < point < ref.gap[1]):
        return False
    lo, hi = ref.gap
    if ref.reflected:  # the gap of F_v^m that R maps onto this one
        lo, hi = ONE - hi, ONE - lo
    gaps = ifs.ladder.gaps(v, m)  # its cap check bounds den
    den = scale ** m
    return (lo * den, hi * den) in gaps


def components_equal(params: DoubleLoopParams) -> bool:
    """Whether the two components of a double-loop system coincide:
    F_u = F_v exactly when a = c and b = d."""
    return params.a == params.c and params.b == params.d
