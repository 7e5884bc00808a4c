"""Exact data model for directed-graph IFSs on the unit interval.

Vertices carry a copy of [0, 1]; each directed edge carries a contracting
similarity of the line.  Following the usual convention the similarity
attached to an edge maps *against* the edge direction: the map of an edge
u -> v sends the unit interval copy at v into the copy at u.

All geometry is exact: ratios and offsets are `fractions.Fraction`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .errors import GraphStructureError, ResourceCapError

ZERO = Fraction(0)
ONE = Fraction(1)

#: Default cap on the number of paths an enumeration may produce.
DEFAULT_PATH_CAP = 10**6


def as_rational(value) -> Fraction:
    """Coerce ints/strings/Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int or 'p/q' string")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse a canonical 'p/q' (or integer 'p') string."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(x: Fraction) -> str:
    """Render a Fraction canonically: 'p/q', or 'p' when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Similarity:
    """A contracting similarity x -> ratio*x + offset (or -ratio*x + offset
    when reflecting), with 0 < ratio < 1."""

    ratio: Fraction
    offset: Fraction
    reflect: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ratio", as_rational(self.ratio))
        object.__setattr__(self, "offset", as_rational(self.offset))
        if not (ZERO < self.ratio < ONE):
            raise ValueError(f"similarity ratio must lie in (0,1), got {self.ratio}")

    @property
    def coefficient(self) -> Fraction:
        return -self.ratio if self.reflect else self.ratio

    def __call__(self, x) -> Fraction:
        return self.coefficient * as_rational(x) + self.offset

    def map_interval(self, lo, hi) -> tuple[Fraction, Fraction]:
        a, b = self(lo), self(hi)
        return (b, a) if self.reflect else (a, b)

    def hull(self) -> tuple[Fraction, Fraction]:
        """Image of the unit interval."""
        o, r = self.offset, self.ratio
        return (o - r, o) if self.reflect else (o, o + r)

    def compose(self, other: "Similarity") -> "Similarity":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        c = self.coefficient * other.coefficient
        return Similarity(abs(c), self.coefficient * other.offset + self.offset, c < 0)

    def invert_point(self, y) -> Fraction:
        return (as_rational(y) - self.offset) / self.coefficient


@dataclass(frozen=True)
class Edge:
    """Directed edge src -> dst whose map sends the copy at dst into the
    copy at src."""

    id: str
    src: str
    dst: str
    map: Similarity


@dataclass(frozen=True)
class Path:
    """A nonempty sequence of consecutive edge ids."""

    edges: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.edges:
            raise ValueError("a path must contain at least one edge")

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class GraphIFS:
    """A directed-graph IFS: ordered vertices plus ordered edges, whose
    level sets are read from its own `ladder`."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False)
    _out: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphStructureError("duplicate vertex ids")
        declared = set(self.vertices)
        by_id = {}
        out = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.id in by_id:
                raise GraphStructureError(f"duplicate edge id {e.id!r}")
            if e.src not in declared:
                raise GraphStructureError(
                    f"edge {e.id!r} leaves undeclared vertex {e.src!r}")
            if e.dst not in declared:
                raise GraphStructureError(
                    f"edge {e.id!r} enters undeclared vertex {e.dst!r}")
            by_id[e.id] = e
            out[e.src].append(e)
        for v in out:
            out[v].sort(key=lambda e: e.id)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_out", out)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise GraphStructureError(f"unknown edge id {edge_id!r}") from None

    def out_edges(self, vertex: str) -> tuple[Edge, ...]:
        """Edges leaving `vertex`, sorted by edge id."""
        try:
            return tuple(self._out[vertex])
        except KeyError:
            raise GraphStructureError(f"unknown vertex {vertex!r}") from None

    def __getstate__(self):  # a copy or unpickled system derives its own
        return {k: v for k, v in vars(self).items()
                if k not in ("ladder", "fixed_endpoints", "_path_counts")}

    @functools.cached_property
    def ladder(self):
        """This system's one attractor.LevelLadder, built on first read; it
        holds the system by a weak proxy, so refcounting frees the two."""
        from .attractor import LevelLadder  # attractor imports this module
        return LevelLadder(weakref.proxy(self))

    @functools.cached_property
    def fixed_endpoints(self) -> dict[str, tuple[bool, bool]]:
        """endpoint_fixed_check(self), a fixed fact of the system, run on
        first read; callers must not mutate it."""
        return endpoint_fixed_check(self)

    @functools.cached_property
    def _path_counts(self) -> list[dict[str, int]]:
        """Entry j maps each vertex v to |E^j_v|, for the lengths read so
        far; path_count grows it on read."""
        return [dict.fromkeys(self.vertices, 1)]


def graph_digest(ifs: GraphIFS) -> str:
    """SHA-256 of a canonical structural dump (vertices and edges only,
    no metadata); identifies the system a certificate refers to."""
    doc = {
        "vertices": list(ifs.vertices),
        "edges": [
            [e.id, e.src, e.dst,
             format_rational(e.map.ratio), format_rational(e.map.offset),
             e.map.reflect]
            for e in ifs.edges
        ],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ValidationReport:
    """Structural invariant violations; empty means valid."""

    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


# ---------------------------------------------------------------------------
# path helpers

def path_vertices(ifs: GraphIFS, path: Path) -> tuple[str, ...]:
    """The vertex list i(e1) t(e1) ... t(ek); raises on non-consecutive edges."""
    edges = [ifs.edge(eid) for eid in path.edges]
    verts = [edges[0].src]
    for e in edges:
        if e.src != verts[-1]:
            raise ValueError(
                f"path is not consecutive at edge {e.id!r}: "
                f"expected source {verts[-1]!r}, got {e.src!r}")
        verts.append(e.dst)
    return tuple(verts)


def path_similarity(ifs: GraphIFS, path: Path) -> Similarity:
    """Composed map S_e1 ∘ S_e2 ∘ ... ∘ S_ek along a consecutive path."""
    path_vertices(ifs, path)  # consecutiveness check
    sim = ifs.edge(path.edges[0]).map
    for eid in path.edges[1:]:
        sim = sim.compose(ifs.edge(eid).map)
    return sim


# ---------------------------------------------------------------------------
# validation

def _unreached(ifs: GraphIFS, start: str, arcs: Iterable) -> list[str]:
    """Vertices not reachable from start along the (src, dst) pairs
    `arcs`, sorted."""
    out = {v: [] for v in ifs.vertices}
    for src, dst in arcs:
        out[src].append(dst)
    stack = [start]
    seen = {start}
    while stack:
        v = stack.pop()
        for w in out[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return sorted(set(ifs.vertices) - seen)


def validate_graph(ifs: GraphIFS) -> ValidationReport:
    """Check the structural invariants of a directed-graph IFS.

    Reported: strong connectivity, out-degree >= 2 at every vertex, and
    containment of every level-1 hull in [0, 1].  Malformed edge references
    raise GraphStructureError at construction, and a ratio outside (0, 1)
    a ValueError in Similarity.
    """
    if not ifs.vertices:
        return ValidationReport(("graph has no vertices",))
    issues = []
    for v in ifs.vertices:
        deg = len(ifs.out_edges(v))
        if deg < 2:
            issues.append(f"vertex {v!r} has out-degree {deg}, need >= 2")
    for e in ifs.edges:
        lo, hi = e.map.hull()
        if lo < ZERO or hi > ONE:
            issues.append(
                f"edge {e.id!r} level-1 hull [{lo}, {hi}] escapes [0,1]")
    root = ifs.vertices[0]
    if missing := _unreached(ifs, root, ((e.src, e.dst) for e in ifs.edges)):
        issues.append(f"not strongly connected: unreachable from {root!r}: {missing}")
    elif missing := _unreached(ifs, root, ((e.dst, e.src) for e in ifs.edges)):
        issues.append(
            f"not strongly connected: cannot reach {root!r} from {missing}")
    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# enumeration

def path_count(ifs: GraphIFS, u: str, k: int) -> int:
    """|E^k_u|, read from the system's one table of path counts: the
    counts of every vertex at length j come from those at j - 1 by one
    pass over the edges, once per system."""
    if k < 0:
        raise ValueError("path length k must be >= 0")
    if u not in ifs.vertices:
        raise GraphStructureError(f"unknown vertex {u!r}")
    counts = ifs._path_counts
    while len(counts) <= k:
        longer = dict.fromkeys(ifs.vertices, 0)
        for e in ifs.edges:
            longer[e.src] += counts[-1][e.dst]
        counts.append(longer)
    return counts[k][u]


def _check_cap(count: int, what: str) -> None:
    """Raise ResourceCapError when count is over DEFAULT_PATH_CAP."""
    if count > DEFAULT_PATH_CAP:
        raise ResourceCapError(
            f"{count} {what} exceed cap {DEFAULT_PATH_CAP}", bound=count)


def _check_path_cap(ifs: GraphIFS, u: str, k: int) -> None:
    """Raise unless u is a vertex with at most DEFAULT_PATH_CAP paths of
    every length 1..k, stopping at the first length over the cap."""
    for j in range(k + 1):
        total = path_count(ifs, u, j)
        if total > DEFAULT_PATH_CAP:
            raise ResourceCapError(
                f"{total} paths of length {j} from {u!r} exceed cap "
                f"{DEFAULT_PATH_CAP}", bound=total)


def paths_from(ifs: GraphIFS, u: str, k: int) -> list[Path]:
    """All length-k paths starting at u, in lexicographic edge-id order."""
    if k < 1:
        raise ValueError("path length k must be >= 1")
    _check_path_cap(ifs, u, k)
    # extending each prefix by its out-edges in id order keeps the order
    frontier: list[tuple[tuple[str, ...], str]] = [((), u)]
    for _ in range(k):
        frontier = [(prefix + (e.id,), e.dst)
                    for prefix, at in frontier for e in ifs.out_edges(at)]
    return [Path(prefix) for prefix, _at in frontier]


def simple_cycles(ifs: GraphIFS) -> list[Path]:
    """All simple cycles, each rotated to start at its smallest-rank vertex,
    sorted by (length, edge ids)."""
    rank = {v: i for i, v in enumerate(ifs.vertices)}
    cycles: list[Path] = []
    for start in ifs.vertices:
        stack = [(start, (), frozenset((start,)))]
        while stack:
            at, prefix, visited = stack.pop()
            for e in ifs.out_edges(at):
                if e.dst == start:
                    cycles.append(Path(prefix + (e.id,)))
                elif e.dst not in visited and rank[e.dst] > rank[start]:
                    stack.append((e.dst, prefix + (e.id,), visited | {e.dst}))
    cycles.sort(key=lambda p: (len(p.edges), p.edges))
    return cycles


def simple_path(ifs: GraphIFS, u: str, w: str) -> Optional[Path]:
    """A simple path u -> w found by BFS with lexicographic tie-breaking."""
    if u == w:
        raise ValueError("simple_path requires distinct endpoints")
    for v in (u, w):
        if v not in ifs.vertices:
            raise GraphStructureError(f"unknown vertex {v!r}")
    frontier: list[tuple[str, tuple[str, ...]]] = [(u, ())]
    seen = {u}
    while frontier:
        nxt: list[tuple[str, tuple[str, ...]]] = []
        for at, prefix in frontier:
            for e in ifs.out_edges(at):
                if e.dst == w:
                    return Path(prefix + (e.id,))
                if e.dst not in seen:
                    seen.add(e.dst)
                    nxt.append((e.dst, prefix + (e.id,)))
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# endpoint fixing / unit-interval normalization

def endpoint_fixed_check(ifs: GraphIFS) -> dict[str, tuple[bool, bool]]:
    """For each vertex u, whether 0 and 1 are points of F_u.

    The states are (vertex, endpoint) pairs, with a step (w, p) -> (x, q)
    for each edge w -> x whose map sends q to p.  The endpoint p is in F_u
    iff an infinite walk of steps leaves (u, p), that is, iff (u, p)
    reaches a cycle; exact whenever every level-1 hull lies in [0, 1].
    """
    steps = {(v, p): [] for v in ifs.vertices for p in (0, 1)}
    for e in ifs.edges:
        images = (e.map.offset, e.map.offset + e.map.coefficient)
        for q, p in enumerate(images):  # p = S_e(q)
            if p.denominator == 1 and p.numerator in (0, 1):
                steps[e.src, p.numerator].append((e.dst, q))
    # drop states with no step into a kept state until none is dropped
    live = set(steps)
    while dead := {s for s in live if live.isdisjoint(steps[s])}:
        live -= dead
    return {v: ((v, 0) in live, (v, 1) in live) for v in ifs.vertices}


def is_unit_interval(ifs: GraphIFS) -> bool:
    """True when every component contains both endpoints and every level-1
    hull stays inside [0, 1]."""
    if not validate_graph(ifs).ok:
        return False
    return all(zero and one for zero, one in ifs.fixed_endpoints.values())
