"""Certificate-producing deciders: is an attractor component the attractor
of a standard (single-vertex) IFS?

Three one-sided criteria are implemented, each emitting a replayable
certificate:

* distinct-components ("p2m"): for the two-vertex double-loop family, if
  the two components differ (exactly when not both a=c and b=d), neither
  component is a standard IFS attractor.
* gap condition ("p2q"): a component F_u is not a standard IFS attractor
  when (1) some simple cycle avoids u, (2) max G_u is at most the smallest
  level-1 gap of every vertex involved, and (3) F_u is provably not
  contained in any other involved component (exact gap-witness proofs).
* measure condition ("p2t"): like the gap condition, but with (2) replaced
  by unit Hausdorff measure at the involved vertices (double-loop family
  only) and a caller-asserted minimal-edge-count hypothesis.

When every simple cycle reachable in the expansion returns to u, the
component *is* standard: `rewrite_to_standard` produces the explicit map
list ("p2nv1" certificates).

Unknown is always a possible outcome and never a proof of anything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .attractor import (
    SubsetRefutation,
    components_equal,
    endpoint_witnesses,
    level_k_set,
    refute_subset,
    replay_refutation,
)
from .dimension import _MP, mpf
from .errors import GraphStructureError, RewriteError, UnsupportedFeatureError
from .families import DoubleLoopParams, double_loop_ifs, params_from_ifs
from .gaps import Condition2Report, condition2_check
from .measure import MeasureResult, component_measures
from .model import (
    Edge,
    GraphIFS,
    Path,
    Similarity,
    graph_digest,
    path_vertices,
    simple_cycles,
    simple_path,
)

MEASURE_UNIT_TOL = 1e-9


class Verdict(enum.Enum):
    NOT_STANDARD = "NotStandardAttractor"
    STANDARD = "StandardAttractor"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class DetachedCycleWitness:
    """A simple cycle avoiding the queried vertex u, with a simple path
    from u to the cycle; vprime is the union of both vertex lists."""

    w: str
    cycle: Path
    path: Path
    vprime: tuple[str, ...]


@dataclass(frozen=True)
class Certificate:
    """A self-contained verdict about one attractor component.

    Every evidence item can be re-verified against the subject system
    alone (see replay_certificate); Unknown records the first unmet
    condition and proves nothing.
    """

    subject_digest: str
    vertex: str
    verdict: Verdict
    theorem: str  # "p2m" | "p2q" | "p2t" | "p2nv1"
    cycle_witness: Optional[DetachedCycleWitness] = None
    condition2: Optional[Condition2Report] = None
    refutations: tuple[tuple[str, SubsetRefutation], ...] = ()
    measure: Optional[MeasureResult] = None
    maps: Optional[tuple[Similarity, ...]] = None
    reflected: bool = False
    minimal_edges_asserted: Optional[bool] = None
    unknown_reason: Optional[str] = None
    notes: tuple[str, ...] = ()


def find_detached_cycle(ifs: GraphIFS, u: str) -> Optional[DetachedCycleWitness]:
    """First simple cycle (canonical order) not attached to u, with a
    BFS simple path from u to the cycle's base vertex; None exactly when
    every simple cycle is attached to u."""
    rank = {v: i for i, v in enumerate(ifs.vertices)}
    for cycle in simple_cycles(ifs):
        verts = path_vertices(ifs, cycle)
        if u in verts:
            continue
        w = min(verts[:-1], key=rank.get)
        path = simple_path(ifs, u, w)
        if path is None:
            continue
        vprime = sorted(set(verts) | set(path_vertices(ifs, path)),
                        key=rank.get)
        return DetachedCycleWitness(w, cycle, path, tuple(vprime))
    return None


# ---------------------------------------------------------------------------
# distinct-components criterion (double-loop family)

def classify_distinct_components(params: DoubleLoopParams
                                 ) -> tuple[Certificate, Certificate]:
    """Certificates for both components of a double-loop system: when the
    components differ, neither is a standard IFS attractor."""
    ifs = double_loop_ifs(params)
    digest = graph_digest(ifs)
    u, v = ifs.vertices
    if components_equal(params):
        note = ("components coincide (a=c and b=d): the system reduces to "
                "a standard IFS and this criterion does not apply",)
        return tuple(
            Certificate(digest, x, Verdict.UNKNOWN, "p2m",
                        unknown_reason="components coincide", notes=note)
            for x in (u, v))
    note = ("components differ (a=c and b=d fails), so neither component "
            "is the attractor of any standard IFS",)
    return tuple(
        Certificate(digest, x, Verdict.NOT_STANDARD, "p2m", notes=note)
        for x in (u, v))


# ---------------------------------------------------------------------------
# standard-IFS rewrite

def _unmatched(ifs: GraphIFS, u: str, w: str) -> Optional[list[Edge]]:
    """The out-edges of w left over once each out-edge of u, in order, takes
    the first free out-edge of w with its similarity and target; None when
    one finds none.  Edges of equal (similarity, target) are
    interchangeable, so that happens only when w has fewer edges of some
    (similarity, target) than u, that is when no injection exists."""
    free = list(ifs.out_edges(w))
    for e in ifs.out_edges(u):
        match = next((f for f in free if f.dst == e.dst and f.map == e.map),
                     None)
        if match is None:
            return None
        free.remove(match)
    return free


def rewrite_to_standard(ifs: GraphIFS, u: str) -> tuple[Similarity, ...]:
    """Express F_u as the attractor of a standard IFS: a finite list of
    similarities T with F_u = union of T_i(F_u).

    Terms (S, w) maintain the invariant F_u = union of S(F_w).  A term
    already at u is final.  A term at w != u is substituted when the
    level-1 decomposition of F_u embeds into that of F_w (then F_w equals
    F_u plus the leftover edge images), and expanded one level otherwise.
    The process either empties out in at most |V|+1 rounds or is reported
    as non-terminating.  Redundant maps (exact compositions of two other
    returned maps) are absorbed by _absorbed, in term order."""
    terms: list[tuple[Similarity, str]] = [
        (e.map, e.dst) for e in ifs.out_edges(u)]
    rounds = 0
    cap = len(ifs.vertices) + 1
    while any(w != u for _sim, w in terms):
        if rounds >= cap:
            raise RewriteError(
                f"component {u!r} did not reduce to a standard IFS within "
                f"{cap} substitution rounds")
        rounds += 1
        nxt: list[tuple[Similarity, str]] = []
        for sim, w in terms:
            if w == u:
                nxt.append((sim, w))
                continue
            left = _unmatched(ifs, u, w)
            if left is None:
                left = ifs.out_edges(w)
            else:
                nxt.append((sim, u))
            nxt.extend((sim.compose(f.map), f.dst) for f in left)
        terms = nxt
    maps = _absorbed(list(dict.fromkeys(sim for sim, _w in terms)))
    return tuple(sorted(maps, key=lambda s: (s.hull()[0], s.ratio, s.offset)))


def _absorbed(maps: list[Similarity]) -> list[Similarity]:
    """`maps` less each exact composition p∘q of two maps still kept,
    removed one at a time, first in list order, against one set of
    compositions per removal.  Every ratio is below 1, so p∘q is neither
    p nor q."""
    while True:
        made = {p.compose(q) for p in maps for q in maps}
        absorbed = next((m for m in maps if m in made), None)
        if absorbed is None:
            return maps
        maps.remove(absorbed)


def standard_ifs_from_maps(maps) -> GraphIFS:
    """Wrap a list of similarities as a single-vertex system on vertex w."""
    return GraphIFS(
        ("w",),
        tuple(Edge(f"m{i+1}", "w", "w", sim) for i, sim in enumerate(maps)))


def cross_refutation_empty(ifs: GraphIFS, u: str, maps,
                           depth: int = 6) -> bool:
    """Necessary condition for F_u to equal the attractor of the standard
    IFS `maps`: every endpoint-witness point of either system lies in the
    other's level-`depth` approximation, and so, as levels nest (the
    ladder rejects a hull outside [0,1]), in each of its levels <= depth."""
    std = standard_ifs_from_maps(maps)
    (w,) = std.vertices
    for src_ifs, src_v, dst_ifs, dst_v in ((ifs, u, std, w), (std, w, ifs, u)):
        witnesses = endpoint_witnesses(src_ifs, src_v, depth)
        target = level_k_set(dst_ifs, dst_v, depth)
        if not all(target.contains(point) for point, _path, _end in witnesses):
            return False
    return True


# ---------------------------------------------------------------------------
# gap-condition and measure-condition deciders

def _condition3(ifs: GraphIFS, u: str, vprime, depth: int, reflected: bool):
    """Collect containment refutations for every other involved vertex;
    returns (refutations, missing-description or None)."""
    refs: list[tuple[str, SubsetRefutation]] = []
    for v in vprime:
        if v == u:
            continue
        variants = (False, True) if reflected else (False,)
        for refl in variants:
            r = refute_subset(ifs, u, v, depth, refl)
            if r is None:
                kind = "reflection of component" if refl else "component"
                return refs, (f"containment of component {u!r} in {kind} "
                              f"{v!r} not refuted at depth {depth}")
            refs.append((v, r))
    return refs, None


def _decide(ifs: GraphIFS, u: str, depth: int, reflected: bool, theorem: str,
            condition2, minimal_edges_asserted: Optional[bool] = None
            ) -> Certificate:
    """The skeleton both deciders share: condition (1) or, failing it, the
    explicit rewrite; then the theorem's own condition (2), a callable
    taking the cycle witness and returning (evidence fields, unmet-reason
    or None); then condition (3)."""
    digest = graph_digest(ifs)
    witness = find_detached_cycle(ifs, u)
    if witness is None:
        try:
            maps = rewrite_to_standard(ifs, u)
        except RewriteError as exc:
            return Certificate(
                digest, u, Verdict.UNKNOWN, theorem, reflected=reflected,
                minimal_edges_asserted=minimal_edges_asserted,
                unknown_reason=f"condition (1) unmet and rewrite failed: {exc}")
        return Certificate(digest, u, Verdict.STANDARD, "p2nv1", maps=maps,
                           minimal_edges_asserted=minimal_edges_asserted,
                           notes=("every simple cycle returns to the queried "
                                  "vertex; explicit standard IFS attached",))
    evidence, unmet = condition2(witness)
    refs: list[tuple[str, SubsetRefutation]] = []
    if unmet is None:
        refs, missing = _condition3(ifs, u, witness.vprime, depth, reflected)
        if missing is not None:
            unmet = f"condition (3): {missing}"
    return Certificate(
        digest, u, Verdict.NOT_STANDARD if unmet is None else Verdict.UNKNOWN,
        theorem, cycle_witness=witness, refutations=tuple(refs),
        reflected=reflected, minimal_edges_asserted=minimal_edges_asserted,
        unknown_reason=unmet, **evidence)


def classify_gap_condition(ifs: GraphIFS, u: str, depth: int = 8,
                           reflected: bool = False) -> Certificate:
    """Decide standardness of F_u via the gap criterion.

    (1) a simple cycle avoiding u must exist — if none does, the component
    is standard and the explicit rewrite is returned instead;
    (2) max G_u must not exceed any involved vertex's smallest level-1 gap;
    (3) containment of F_u in every other involved component (and in its
    reflection, when requested) must be exactly refuted."""

    def condition2(witness):
        try:
            report = condition2_check(ifs, u, witness.vprime)
        except UnsupportedFeatureError as exc:
            return {}, f"condition (2): {exc}"
        unmet = None if report.ok else (
            f"condition (2): max gap at {u!r} exceeds a level-1 gap in the "
            "involved set")
        return {"condition2": report}, unmet

    return _decide(ifs, u, depth, reflected, "p2q", condition2)


def _unit_measure(ifs: GraphIFS, vprime
                  ) -> tuple[Optional[MeasureResult], Optional[str]]:
    """The measure criterion's condition (2): unit Hausdorff measure at
    every vertex of vprime.  Returns the measure (None off the double-loop
    family) and the unmet requirement, or None when it holds."""
    params = params_from_ifs(ifs)
    if params is None:
        return None, ("Hausdorff measure only computable for the "
                      "two-vertex double-loop family")
    result = component_measures(params)
    if result.h_u is None:
        return result, "measure-formula conditions fail"
    h_by_vertex = dict(zip(ifs.vertices, (result.h_u, result.h_v)))
    off_unit = [v for v in vprime
                if abs(h_by_vertex[v] - 1) > MEASURE_UNIT_TOL]
    if off_unit:
        return result, ("unit measure required at every involved vertex; "
                        f"violated at {off_unit}")
    return result, None


def _num(x) -> str:
    """A measure number as a certificate records it: 30 significant
    digits."""
    return _MP.nstr(mpf(x), 30)


def _recorded(m: MeasureResult) -> tuple:
    """What a certificate records of a measure result."""
    return (m.cond1.status, m.cond1.warning, m.cond2.status, m.cond2.warning,
            *(x if x is None else _num(x)
              for x in (m.s, m.cond1.value, m.cond2.value, m.h_u, m.h_v)))


def classify_measure_condition(ifs: GraphIFS, u: str, depth: int = 8,
                               minimal_edges_asserted: bool = False,
                               reflected: bool = False) -> Certificate:
    """Decide standardness of F_u via the unit-measure criterion (double-
    loop family only; minimal edge count is an asserted hypothesis)."""
    if not minimal_edges_asserted:
        return Certificate(
            graph_digest(ifs), u, Verdict.UNKNOWN, "p2t", reflected=reflected,
            minimal_edges_asserted=False,
            unknown_reason="minimal edge count not asserted by the caller")

    def condition2(witness):
        measure, unmet = _unit_measure(ifs, witness.vprime)
        return {"measure": measure}, unmet

    return _decide(ifs, u, depth, reflected, "p2t", condition2,
                   minimal_edges_asserted=True)


# ---------------------------------------------------------------------------
# replay

def _replay_witness(ifs: GraphIFS, u: str, w: DetachedCycleWitness) -> bool:
    try:
        verts_c = path_vertices(ifs, w.cycle)
        verts_p = path_vertices(ifs, w.path)
    except (ValueError, GraphStructureError):
        return False
    # a simple cycle repeats only its first vertex, a simple path none
    return (verts_c[0] == verts_c[-1]
            and len(set(verts_c)) == len(verts_c) - 1
            and len(set(verts_p)) == len(verts_p)
            and u not in verts_c and verts_p[0] == u and verts_p[-1] == w.w
            and w.w in verts_c
            and set(w.vprime) == set(verts_c) | set(verts_p))


def replay_certificate(ifs: GraphIFS, cert: Certificate) -> bool:
    """Re-verify a certificate from its recorded evidence against the
    system alone.  Unknown certificates carry no claim and replay
    vacuously."""
    if graph_digest(ifs) != cert.subject_digest:
        return False
    if cert.vertex not in ifs.vertices:
        return False
    if cert.verdict is Verdict.UNKNOWN:
        return True
    if cert.verdict is Verdict.STANDARD:
        try:
            return cert.maps == rewrite_to_standard(ifs, cert.vertex)
        except RewriteError:
            return False
    # NotStandardAttractor
    if cert.theorem == "p2m":
        params = params_from_ifs(ifs)
        return params is not None and not components_equal(params)
    w = cert.cycle_witness
    if w is None or not _replay_witness(ifs, cert.vertex, w):
        return False
    if cert.theorem == "p2q":
        if cert.condition2 is None:
            return False
        try:
            fresh = condition2_check(ifs, cert.vertex, w.vprime)
        except UnsupportedFeatureError:
            return False
        if fresh != cert.condition2 or not fresh.ok:
            return False
    elif cert.theorem == "p2t":
        fresh, unmet = _unit_measure(ifs, w.vprime)
        if (cert.minimal_edges_asserted is not True or unmet is not None
                or cert.measure is None
                or _recorded(cert.measure) != _recorded(fresh)):
            return False
    else:
        return False
    needed = {(v, refl)
              for v in w.vprime if v != cert.vertex
              for refl in ((False, True) if cert.reflected else (False,))}
    covered = set()
    for v, ref in cert.refutations:
        if not replay_refutation(ifs, cert.vertex, v, ref):
            return False
        covered.add((v, ref.reflected))
    return needed <= covered
