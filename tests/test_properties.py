"""Randomized invariants, checked with hypothesis on seeded case generators."""

import contextlib
import dataclasses
import functools
import io
import itertools
import math
import random
import re
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from graphifs import (
    GraphIFS,
    GraphStructureError,
    Edge,
    Path,
    Similarity,
    Verdict,
    build_spanning_system,
    example_params,
    classify_gap_condition,
    cross_refutation_empty,
    cssc_check,
    double_loop_char_root,
    double_loop_ifs,
    dump_spec,
    find_detached_cycle,
    format_rational,
    gap_length_cosets,
    hausdorff_dimension,
    level_k_gaps,
    level_k_set,
    load_spec,
    max_gap,
    max_gap_closed_form,
    moran_matrix,
    parse_rational,
    path_count,
    path_similarity,
    paths_from,
    refute_subset,
    render_svg,
    replay_certificate,
    replay_refutation,
    rewrite_to_standard,
    span_search,
    spectral_radius,
    validate_graph,
)
from graphifs.attractor import (
    IntervalSet,
    LevelLadder,
    SubsetRefutation,
    endpoint_witnesses,
)
from graphifs import attractor, render
from graphifs.classify import _condition3, standard_ifs_from_maps
from graphifs.cli import main
from graphifs.spanning import SpanningParams, SpanningHit
from conftest import SPEC_DIR, double_loop_params, gen, random_small_graph

F = Fraction

COMMON = settings(max_examples=200, derandomize=True, deadline=None)


@st.composite
def small_graphs(draw):
    """Strongly connected systems on 2-4 vertices with slotted, disjoint
    level-1 hulls; the first and last out-edge of each vertex fix 0 and 1."""
    n = draw(st.integers(2, 4))
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    eid = 0
    for i, u in enumerate(vertices):
        m = draw(st.integers(2, 3))
        ring_next = vertices[(i + 1) % n]
        for t in range(m):
            eid += 1
            ratio = F(1, 4 * m) if draw(st.booleans()) else F(1, 2 * m)
            if t == 0:
                offset, dst = F(0), ring_next
            elif t == m - 1:
                offset, dst = 1 - ratio, ring_next
            else:
                offset = F(t, m)
                dst = vertices[draw(st.integers(0, n - 1))]
            edges.append(Edge(f"e{eid}", u, dst, Similarity(ratio, offset)))
    return GraphIFS(vertices, tuple(edges))


@st.composite
def messy_graphs(draw):
    """Systems on 1-3 vertices, not necessarily strongly connected, whose
    edge maps may reflect and whose level-1 hulls may touch or overlap;
    every hull stays inside [0,1].  Small denominators make coinciding
    endpoints and touching children common."""
    n = draw(st.integers(1, 3))
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for u in vertices:
        for _ in range(draw(st.integers(1, 3))):
            q = draw(st.sampled_from((2, 3, 4, 6)))
            ratio = F(draw(st.integers(1, q - 1)), q)
            lo = F(draw(st.integers(0, 12)), 12) * (1 - ratio)
            reflect = draw(st.booleans())
            offset = lo + ratio if reflect else lo
            edges.append(Edge(f"e{len(edges) + 1}", u,
                              vertices[draw(st.integers(0, n - 1))],
                              Similarity(ratio, offset, reflect)))
    return GraphIFS(vertices, tuple(edges))


@st.composite
def raw_graphs(draw):
    """Systems on 1-5 vertices with 0-3 out-edges each, to any target: not
    necessarily strongly connected, with maps that may reflect and hulls
    that may leave [0,1].  Few maps, so that equal edges are common."""
    vertices = tuple(f"v{i}" for i in range(draw(st.integers(1, 5))))
    edges = []
    for u in vertices:
        for _ in range(draw(st.integers(0, 3))):
            ratio = F(1, draw(st.integers(2, 3)))
            offset = F(draw(st.integers(0, 2)), 2)
            edges.append(Edge(f"e{len(edges) + 1}", u,
                              draw(st.sampled_from(vertices)),
                              Similarity(ratio, offset, draw(st.booleans()))))
    return GraphIFS(vertices, tuple(edges))


def perturbed_spanning_system(parts):
    """The eight-edge spanning system with the reference u row and the
    v row completed in the proportions `parts`, so that u -> u hits
    exist."""
    g5, g6, r_e7, r_e8 = (F(3, 4) * x / sum(parts) for x in parts)
    tenth, twentieth = F(1, 10), F(1, 20)
    params = SpanningParams(
        g1=twentieth, g2=F(1, 2), g3=twentieth, g4=twentieth, g5=g5, g6=g6,
        r_e1=tenth, r_e2=tenth, r_e3=tenth, r_e4=tenth,
        r_e5=tenth, r_e6=tenth, r_e7=r_e7, r_e8=r_e8)
    return build_spanning_system(params)[0]


@st.composite
def spanning_family(draw):
    """A perturbed spanning system with a random completion of the v row."""
    return perturbed_spanning_system(
        [draw(st.integers(1, 12)) for _ in range(4)])


@st.composite
def reflected_double_loops(draw):
    """Double loops in which any edge may be swapped for the reflecting
    map with the same level-1 hull."""
    ifs = double_loop_ifs(draw(double_loop_params()))
    edges = []
    for e in ifs.edges:
        if draw(st.booleans()):
            ratio, offset = e.map.ratio, e.map.offset
            e = Edge(e.id, e.src, e.dst, Similarity(ratio, offset + ratio,
                                                    reflect=True))
        edges.append(e)
    return GraphIFS(ifs.vertices, tuple(edges))


@st.composite
def cssc_systems(draw):
    """The benchmark's gen.draw_cssc systems on 2-3 vertices."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    return gen.draw_cssc(rng, draw(st.integers(2, 3)))


# Points n/24, so that interval ends coincide, touch and overlap.
unit_points = st.integers(0, 24).map(lambda n: F(n, 24))
interval_lists = st.lists(
    st.tuples(unit_points, unit_points).map(lambda pair: tuple(sorted(pair))),
    max_size=6)


@st.composite
def unit_maps(draw):
    """Two or three similarities with hulls inside [0,1], possibly
    reflecting, touching or overlapping."""
    maps = []
    for _ in range(draw(st.integers(2, 3))):
        q = draw(st.sampled_from((2, 3, 4, 9)))
        ratio = F(draw(st.integers(1, q - 1)), q)
        lo = F(draw(st.integers(0, 9)), 9) * (1 - ratio)
        reflect = draw(st.booleans())
        maps.append(Similarity(ratio, lo + ratio if reflect else lo, reflect))
    return tuple(maps)


# -- references: the per-call Fraction code the level ladder replaced --

def reference_levels(ifs, k):
    """F_v^0..F_v^k of every vertex by the per-level Fraction recursion."""
    current = {v: IntervalSet(((F(0), F(1)),)) for v in ifs.vertices}
    levels = [current]
    for _ in range(k):
        current = {
            v: IntervalSet(tuple(
                pair
                for e in ifs.out_edges(v)
                for pair in current[e.dst].apply(e.map).intervals))
            for v in ifs.vertices}
        levels.append(current)
    return levels


def reference_cssc(ifs):
    """cssc_check's violations by the all-pairs loop on Fraction hulls
    that the ladder's integer hulls replaced."""
    violations = []
    for v in ifs.vertices:
        hulls = [(e, e.map.hull()) for e in ifs.out_edges(v)]
        for i in range(len(hulls)):
            for j in range(i + 1, len(hulls)):
                (e1, (lo1, hi1)), (e2, (lo2, hi2)) = hulls[i], hulls[j]
                if max(lo1, lo2) <= min(hi1, hi2):
                    violations.append((v, e1.id, e2.id))
    return tuple(violations)


def reference_members(ifs):
    """Whether 0 and 1 lie in each component, by path enumeration: with
    every hull inside [0,1], p is in F_v iff some path of length 2|V|
    from v maps an endpoint to p, since the (vertex, endpoint) states
    along it repeat.  A prefix whose hull misses p is not extended."""
    members = {}
    for v in ifs.vertices:
        flags = []
        for p in (F(0), F(1)):
            sims = [(e.map, e.dst) for e in ifs.out_edges(v)]
            for _ in range(2 * len(ifs.vertices) - 1):
                sims = [(sim.compose(e.map), e.dst) for sim, at in sims
                        if sim.hull()[0] <= p <= sim.hull()[1]
                        for e in ifs.out_edges(at)]
            flags.append(any(p in (sim(0), sim(1)) for sim, _at in sims))
        members[v] = tuple(flags)
    return members


@functools.lru_cache(maxsize=64)
def reference_witnesses(ifs, u, depth):
    """Every endpoint image S_p(e) with e a point of F_{t(p)}, by path
    enumeration, sorted and deduplicated as endpoint_witnesses."""
    members = reference_members(ifs)
    raw = []
    for j in range(1, depth + 1):
        for p in paths_from(ifs, u, j):
            sim = path_similarity(ifs, p)
            end_members = members[ifs.edge(p.edges[-1]).dst]
            for endpoint, member in zip((F(0), F(1)), end_members):
                if member:
                    raw.append((sim(endpoint), j, p.edges, endpoint, p))
    raw.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    out, seen = [], set()
    for point, _j, _edges, endpoint, p in raw:
        if point not in seen:
            seen.add(point)
            out.append((point, p, endpoint))
    return out


def reference_span_search(ifs, src, dst, max_j, max_k, verify_depth):
    """span_search as it ran on Fraction level sets before the integer
    search replaced it, with the level sets made once per call."""
    level = functools.cache(functools.partial(level_k_set, ifs))

    def inside(pair, iset):
        lo, hi = pair
        holder = iset.interval_containing(lo)
        return holder is not None and hi <= holder[1]

    level1_gaps = level(dst, 1).gaps()
    hits, seen = [], set()
    for j in range(1, max_j + 1):
        src_set = level(src, j)
        first_lo, first_hi = src_set.intervals[0]
        src_len = first_hi - first_lo
        for k in range(1, max_k + 1):
            dst_set = level(dst, k)
            dst_intervals = set(dst_set.intervals)
            for t_lo, t_hi in dst_set.intervals:
                ratio = (t_hi - t_lo) / src_len
                if not (0 < ratio < 1):
                    continue
                offset = t_lo - ratio * first_lo
                if (ratio, offset) in seen:
                    continue
                cand = Similarity(ratio, offset)
                if not all(cand.map_interval(lo, hi) in dst_intervals
                           for lo, hi in src_set.intervals):
                    continue
                hull = cand.hull()
                gap = next((g for g in level1_gaps
                            if hull[0] < g[0] and g[1] < hull[1]), None)
                if gap is None:
                    continue
                if not all(inside(cand.map_interval(lo, hi), level(dst, k + d))
                           for d in range(1, verify_depth + 1)
                           for lo, hi in level(src, j + d).intervals):
                    continue
                seen.add((ratio, offset))
                hits.append(SpanningHit(cand, src, dst, gap, (j, k),
                                        verify_depth))
    hits.sort(key=lambda h: (h.s_map.offset, h.s_map.ratio))
    return hits


def reference_refute(ifs, u, v, depth, reflected):
    """The witness-list search the best-first search replaced, over
    witnesses from path enumeration: target levels outermost, witnesses in
    point order, and a linear scan of the gaps."""
    witnesses = reference_witnesses(ifs, u, depth)
    for m in range(1, depth + 1):
        target = level_k_set(ifs, v, m)
        if reflected:
            target = IntervalSet(tuple((1 - hi, 1 - lo)
                                       for lo, hi in target.intervals))
        for point, path, endpoint in witnesses:
            for lo, hi in target.gaps():
                if lo < point < hi:
                    return SubsetRefutation(point, path, endpoint, (lo, hi),
                                            (len(path), m), reflected)
    return None


def reference_union(pairs):
    """Sorted, merged Fraction intervals of `pairs`, touching ones joined."""
    merged = []
    for lo, hi in sorted(pairs):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def reference_replay(ifs, u, v, ref):
    """replay_refutation as it ran before the integer maps: the witness
    path composed by the Fraction path_similarity, and the gap looked up
    among the Fraction gaps of F_v^m."""
    try:
        sim = path_similarity(ifs, ref.witness_path)
    except (ValueError, GraphStructureError):
        return False
    if (v not in ifs.vertices or ref.depths[0] != len(ref.witness_path)
            or ref.depths[1] < 1
            or ifs.edge(ref.witness_path.edges[0]).src != u
            or ref.endpoint not in (0, 1)
            or not ifs.fixed_endpoints[
                ifs.edge(ref.witness_path.edges[-1]).dst][int(ref.endpoint)]
            or sim(ref.endpoint) != ref.witness_point
            or not ref.gap[0] < ref.witness_point < ref.gap[1]):
        return False
    lo, hi = ref.gap
    if ref.reflected:
        lo, hi = 1 - hi, 1 - lo
    return (lo, hi) in level_k_set(ifs, v, ref.depths[1]).gaps()


def reference_condition3(ifs, u, vprime, depth, reflected):
    refs = []
    for v in vprime:
        if v == u:
            continue
        for refl in ((False, True) if reflected else (False,)):
            ref = reference_refute(ifs, u, v, depth, refl)
            if ref is None:
                return tuple(refs)
            refs.append((v, ref))
    return tuple(refs)


def reference_cross_check(ifs, u, maps, depth):
    """cross_refutation_empty as a membership test of every point."""
    std = standard_ifs_from_maps(maps)
    (w,) = std.vertices
    for src_ifs, src_v, dst_ifs, dst_v in ((ifs, u, std, w), (std, w, ifs, u)):
        points = [p for p, _path, _end in
                  reference_witnesses(src_ifs, src_v, depth)]
        for m in range(1, depth + 1):
            target = level_k_set(dst_ifs, dst_v, m)
            if not all(target.contains(p) for p in points):
                return False
    return True


# -- reference: the power iteration the pivot-test bisection replaced --

def reference_spectral_radius(m):
    """Power iteration on A + I (primitive whenever A is irreducible, so
    the Rayleigh quotient cannot oscillate on periodic matrices), with 1
    subtracted at the end."""
    n = m.n
    shifted = [[m.entries[i][j] + (1 if i == j else 0) for j in range(n)]
               for i in range(n)]
    vec = [mpmath.mpf(1)] * n
    tol = mpmath.mpf(10) ** (-(mpmath.mp.dps - 5))
    prev = mpmath.mpf(0)
    for _ in range(10**5):
        nxt = [sum(shifted[i][j] * vec[j] for j in range(n))
               for i in range(n)]
        rayleigh = (sum(nxt[i] * vec[i] for i in range(n))
                    / sum(vec[i] * vec[i] for i in range(n)))
        norm = max(nxt)
        vec = [x / norm for x in nxt]
        if abs(rayleigh - prev) < tol:
            return rayleigh - 1
        prev = rayleigh
    raise AssertionError("reference power iteration did not converge")


def reference_dimension_bracket(ifs, tol=1e-12):
    """Bisection of [0, 1] to tol with each step decided by the
    reference power iteration."""
    lo, hi, iterations = mpmath.mpf(0), mpmath.mpf(1), 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if reference_spectral_radius(moran_matrix(ifs, mid)) >= 1:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return (lo, hi), iterations


# -- reference: coset membership by a search over the exponent box --

def reference_coset_members(cosets, threshold):
    """Every coeff * g1^e1 * ... * gn^en >= threshold of a GapCosets, found
    by raising each generator in turn to every exponent that keeps the
    product at or above the threshold."""
    found = set()
    for coeff, gens in cosets.cosets:
        products = {coeff} if coeff >= threshold else set()
        for g in gens:
            raised = set()
            for p in products:
                while p >= threshold:
                    raised.add(p)
                    p *= g
            products = raised
        found |= products
    return found


class TestRefutationEquivalence:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.one_of(small_graphs(), reflected_double_loops()),
           st.integers(1, 4), st.booleans())
    def test_certificate_refutations_match_per_pair_search(
            self, ifs, depth, reflected):
        for u in ifs.vertices:
            cert = classify_gap_condition(ifs, u, depth, reflected)
            expected = ()
            if cert.condition2 is not None and cert.condition2.ok:
                expected = reference_condition3(
                    ifs, u, cert.cycle_witness.vprime, depth, reflected)
            assert cert.refutations == expected
            refs, _missing = _condition3(ifs, u, ifs.vertices, depth,
                                         reflected)
            assert tuple(refs) == reference_condition3(
                ifs, u, ifs.vertices, depth, reflected)
            for v in ifs.vertices:
                if v != u:
                    assert (refute_subset(ifs, u, v, depth, reflected)
                            == reference_refute(ifs, u, v, depth, reflected))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(messy_graphs(), st.integers(1, 4), st.booleans())
    def test_search_matches_reference_on_messy_graphs(self, ifs, depth,
                                                      reflected):
        """Touching and overlapping hulls, reflecting maps and endpoints
        outside their component."""
        for u in ifs.vertices:
            for v in ifs.vertices:
                if v != u:
                    assert (refute_subset(ifs, u, v, depth, reflected)
                            == reference_refute(ifs, u, v, depth, reflected))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(small_graphs(), reflected_double_loops()), unit_maps(),
           st.integers(1, 4), st.data())
    def test_cross_check_matches_membership_reference(self, ifs, maps, depth,
                                                      data):
        u = data.draw(st.sampled_from(ifs.vertices))
        if data.draw(st.booleans()):
            maps = tuple(e.map for e in ifs.out_edges(u))
        assert (cross_refutation_empty(ifs, u, maps, depth)
                == reference_cross_check(ifs, u, maps, depth))


class TestLadderEquivalence:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(messy_graphs(), reflected_double_loops()))
    def test_level_sets_match_fraction_recursion(self, ifs):
        expected = reference_levels(ifs, 6)
        ladder = LevelLadder(ifs)
        for k, level in enumerate(expected):
            den = ladder.scale ** k
            for v in ifs.vertices:
                assert level_k_set(ifs, v, k) == level[v]
                assert [(F(lo, den), F(hi, den)) for lo, hi
                        in ladder.gaps(v, k)] == list(level[v].gaps())

    @COMMON
    @given(messy_graphs(), st.integers(0, 4))
    def test_witnesses_match_path_enumeration(self, ifs, depth):
        for u in ifs.vertices:
            assert (endpoint_witnesses(ifs, u, depth)
                    == reference_witnesses(ifs, u, depth))

    @COMMON
    @given(messy_graphs(), st.lists(st.sampled_from((F(-1, 2), F(0), F(1, 3))),
                                    min_size=9, max_size=9))
    def test_cssc_matches_fraction_pairs(self, ifs, shifts):
        # shifting the offsets moves some hulls out of [0,1]
        moved = GraphIFS(ifs.vertices, tuple(
            dataclasses.replace(e, map=dataclasses.replace(
                e.map, offset=e.map.offset + shift))
            for e, shift in zip(ifs.edges, shifts)))
        for system in (ifs, moved):
            assert cssc_check(system).violations == reference_cssc(system)

    @COMMON
    @given(st.one_of(messy_graphs(), cssc_systems()))
    def test_out_table_is_scaled_out_edges(self, ifs):
        ladder = LevelLadder(ifs)
        scale = ladder.scale
        for v in ifs.vertices:
            edges = sorted((e for e in ifs.edges if e.src == v),
                           key=lambda e: e.id)
            assert ladder.out[v] == [
                (e.id, e.dst, e.map.coefficient * scale, e.map.offset * scale)
                for e in edges]
            assert all(type(x) is int for *_, c, o in ladder.out[v]
                       for x in (c, o))

    @COMMON
    @given(messy_graphs())
    def test_apart_flag_is_cssc_at_the_vertex(self, ifs):
        violating = {v for v, _e1, _e2 in cssc_check(ifs).violations}
        assert LevelLadder(ifs)._apart == {v: v not in violating
                                           for v in ifs.vertices}

    @pytest.fixture
    def merges(self, monkeypatch):
        """The flat lists passed to attractor._merged, one per call."""
        calls = []
        real = attractor._merged
        monkeypatch.setattr(attractor, "_merged",
                            lambda flat: calls.append(flat) or real(flat))
        return calls

    @pytest.mark.parametrize("spec, k", [
        ("golden_ratio", 12), ("nested_components", 8), ("gap_spanning", 6)])
    def test_apart_hulls_build_levels_unmerged(self, merges, spec, k):
        ifs = load_spec((SPEC_DIR / f"{spec}.json").read_text())
        ifs.ladder.endpoints(ifs.vertices[0], k)
        assert merges == []

    def test_touching_hulls_still_merge(self, merges):
        ifs = GraphIFS(("u",), (
            Edge("e1", "u", "u", Similarity(F(1, 2), F(0))),
            Edge("e2", "u", "u", Similarity(F(1, 2), F(1, 2)))))
        levels = [level_k_set(ifs, "u", k) for k in range(5)]
        assert len(merges) == 4
        assert levels == [level["u"] for level in reference_levels(ifs, 4)]
        assert levels[4].intervals == ((F(0), F(1)),)



class TestSpanSearchEquivalence:
    """The integer span_search against the Fraction search it replaced."""

    @COMMON
    @given(st.one_of(messy_graphs(), spanning_family(),
                     st.randoms(use_true_random=False).map(
                         lambda rng: random_small_graph(rng, 3))),
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 3),
           st.data())
    def test_span_hits_match_fraction_reference(self, ifs, max_j, max_k,
                                                verify_depth, data):
        src = data.draw(st.sampled_from(ifs.vertices))
        dst = data.draw(st.sampled_from(ifs.vertices))
        bounds = (max_j, max_k, verify_depth)
        assert (span_search(ifs, src, dst, *bounds)
                == reference_span_search(ifs, src, dst, *bounds))

    @staticmethod
    def off_grid_system():
        """Over D = 16, F_u^1 = [0,4] u [10,14] and F_w^1 = [0,1] u [2,3].
        The map x/4 sends [0,4] onto [0,1] and [10,14] onto [2.5,3.5],
        which matches [2,3] only when the remainders of 10/4 and 14/4
        are ignored; its hull [0,4] spans the gap (1,2)."""
        quarter, sixteenth = F(1, 4), F(1, 16)
        return GraphIFS(("u", "w"), (
            Edge("e1", "u", "u", Similarity(quarter, 0)),
            Edge("e2", "u", "u", Similarity(quarter, F(5, 8))),
            Edge("e3", "w", "w", Similarity(sixteenth, 0)),
            Edge("e4", "w", "w", Similarity(sixteenth, F(1, 8)))))

    @pytest.mark.parametrize("verify_depth", range(4))
    @pytest.mark.parametrize("system", ["reference", "perturbed", "off-grid"])
    def test_fixed_systems_match_fraction_reference(self, system,
                                                    verify_depth):
        ifs = {
            "reference": lambda: build_spanning_system(example_params())[0],
            # the v row over 3988 makes D = 19940, so that the endpoints
            # checked at depth 3 exceed 2^53: a float division would
            # misplace them
            "perturbed": lambda: perturbed_spanning_system(
                (200, 251, 300, 246)),
            "off-grid": self.off_grid_system,
        }[system]()
        hits = 0
        for src, dst in itertools.product(ifs.vertices, repeat=2):
            found = span_search(ifs, src, dst, 3, 3, verify_depth)
            assert found == reference_span_search(ifs, src, dst, 3, 3,
                                                  verify_depth)
            hits += len(found)
        assert hits or system == "off-grid"


class TestGeneratorSoundness:
    @COMMON
    @given(small_graphs())
    def test_graphs_validate_with_disjoint_hulls(self, ifs):
        assert validate_graph(ifs).ok
        assert cssc_check(ifs).ok


class TestAttractorInvariants:
    @COMMON
    @given(double_loop_params())
    def test_levels_are_nested(self, params):
        ifs = double_loop_ifs(params)
        for u in ifs.vertices:
            prev = level_k_set(ifs, u, 0)
            for k in (1, 2, 3):
                cur = level_k_set(ifs, u, k)
                for lo, hi in cur.intervals:
                    assert prev.contains(lo) and prev.contains(hi)
                prev = cur

    @COMMON
    @given(small_graphs())
    def test_level_set_matches_path_images(self, ifs):
        k = 3
        for u in ifs.vertices:
            from_paths = (
                path_similarity(ifs, p).hull() for p in paths_from(ifs, u, k))
            assert level_k_set(ifs, u, k).intervals == reference_union(
                from_paths)

    @COMMON
    @given(small_graphs())
    def test_same_length_hulls_have_disjoint_interiors(self, ifs):
        u = ifs.vertices[0]
        hulls = sorted(
            path_similarity(ifs, p).hull() for p in paths_from(ifs, u, 3))
        for (_, hi1), (lo2, _) in zip(hulls, hulls[1:]):
            assert hi1 <= lo2


class TestIntervalSetInvariants:
    """IntervalSet works on integers over one denominator; a plain Fraction
    union of the same intervals is the reference."""

    @COMMON
    @given(interval_lists, st.lists(unit_points, max_size=4),
           st.integers(1, 23).map(lambda n: F(n, 24)),
           unit_points, st.booleans())
    def test_queries_match_fraction_reference(self, pairs, extra, ratio,
                                              place, reflect):
        iset = IntervalSet(pairs)
        ref = reference_union(pairs)
        assert len(iset) == len(ref)
        assert iset.total_length == sum((hi - lo for lo, hi in ref), F(0))
        bounds = [F(0), *(p for pair in ref for p in pair), F(1)]
        ref_gaps = tuple((lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2])
                         if lo < hi)
        assert iset.gaps() == ref_gaps
        assert "intervals" not in vars(iset)
        probes = {F(0), F(1), F(-1, 3), F(4, 3), F(1, 7), F(5, 7), *extra,
                  *bounds, *((lo + hi) / 2 for lo, hi in ref + ref_gaps)}
        for x in probes:
            holder = next(((lo, hi) for lo, hi in ref if lo <= x <= hi), None)
            assert iset.interval_containing(x) == holder
            assert iset.contains(x) == (holder is not None)
        assert "intervals" not in vars(iset)
        assert iset.intervals == ref
        low = (1 - ratio) * place  # the hull [low, low + ratio]
        sim = Similarity(ratio, low + ratio if reflect else low, reflect)
        assert iset.apply(sim).intervals == reference_union(
            sim.map_interval(lo, hi) for lo, hi in ref)

    @COMMON
    @given(interval_lists, interval_lists, st.integers(1, 30))
    def test_equality_and_hash_ignore_the_denominator(self, pairs, others,
                                                      scale):
        iset = IntervalSet(pairs)
        rescaled = IntervalSet._of([p * scale for p in iset._flat],
                                   iset._den * scale)
        assert rescaled == iset and hash(rescaled) == hash(iset)
        assert rescaled.intervals == iset.intervals
        other = IntervalSet(others)
        assert (other == iset) == (reference_union(others)
                                   == reference_union(pairs))


class TestGapInvariants:
    @COMMON
    @given(double_loop_params())
    def test_max_gap_closed_form(self, params):
        ifs = double_loop_ifs(params)
        u, v = ifs.vertices
        assert max_gap(ifs, u) == max_gap_closed_form(params)[0]
        assert max_gap(ifs, v) == max_gap_closed_form(params)[1]
        assert max_gap(ifs, u) == max(params.g_u, params.b * params.g_v)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(double_loop_params(), st.data())
    def test_membership_matches_exponent_box_search(self, params, data):
        """Members coeff * prod g^e over the box e in {0,1}^n, and per coset
        one member * g_i / g_j and one member * p/q, which may or may not
        be members."""
        for cosets in gap_length_cosets(params):
            members, probes = set(), set()
            for coeff, gens in cosets.cosets:
                box = [coeff * math.prod(g ** e for g, e in zip(gens, exps))
                       for exps in itertools.product((0, 1), repeat=len(gens))]
                members.update(box)
                m = data.draw(st.sampled_from(box))
                gi, gj = data.draw(st.permutations(gens + (F(1),)))[:2]
                p, q = data.draw(st.tuples(st.integers(1, 64),
                                           st.integers(1, 64)))
                probes |= {m * gi / gj, m * F(p, q)}
            probes |= members
            floor = min(probes)
            expected = reference_coset_members(cosets, floor)
            assert members <= expected
            assert cosets.enumerate(floor) == sorted(expected)
            for x in probes:
                assert cosets.contains(x) == (x in expected)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(double_loop_params(), st.data())
    def test_kept_walk_matches_reference_in_any_order(self, params, data):
        """enumerate and contains in a drawn order, each at a member times
        p/q, so a query may lie above or below every earlier threshold and
        contains may be the one that walks; every answer is checked
        against the reference."""
        for cosets in gap_length_cosets(params):
            top = max(coeff for coeff, _gens in cosets.cosets)
            members = sorted(reference_coset_members(cosets, top / 8))
            queries = data.draw(st.lists(
                st.tuples(st.booleans(), st.sampled_from(members),
                          st.integers(1, 4), st.integers(1, 4)),
                min_size=1, max_size=6))
            for enumerate_first, member, p, q in queries:
                x = member * F(p, q)
                expected = reference_coset_members(cosets, x)
                if enumerate_first:
                    assert cosets.enumerate(x) == sorted(expected)
                assert cosets.contains(x) == (x in expected)

    @pytest.mark.parametrize("systems", [
        double_loop_params().map(double_loop_ifs), reflected_double_loops(),
        cssc_systems()], ids=["double-loop", "reflected", "cssc"])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_cli_gaps_text_matches_level_k_gaps(self, tmp_path_factory,
                                                systems, data):
        """`graphifs gaps` prints, line by line, what level_k_gaps and
        format_rational give at every level, whatever texts it shares
        between levels."""
        ifs = data.draw(systems)
        u = data.draw(st.sampled_from(ifs.vertices))
        depth = data.draw(st.integers(1, 6))
        spec = tmp_path_factory.mktemp("gaps") / "spec.json"
        spec.write_text(dump_spec(ifs))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["gaps", str(spec), "--vertex", u,
                         "--depth", str(depth)]) == 0
        expected = [f"level {k}: " + ", ".join(
            f"({format_rational(lo)}, {format_rational(hi)}) "
            f"len {format_rational(length)}"
            for (lo, hi), length in level_k_gaps(ifs, u, k))
            for k in range(1, depth + 1)]
        expected.append(f"max gap = {format_rational(max_gap(ifs, u))}")
        assert out.getvalue().splitlines() == expected


class TestSimilarityInvariants:
    @COMMON
    @given(st.fractions(0, 1, max_denominator=10**6)
           .filter(lambda r: 0 < r < 1),
           st.fractions(-2, 2, max_denominator=10**6), st.booleans())
    def test_hull_is_the_image_of_the_unit_interval(self, ratio, offset,
                                                    reflect):
        sim = Similarity(ratio, offset, reflect)
        assert sim.hull() == sim.map_interval(0, 1)


class TestPathInvariants:
    @COMMON
    @given(small_graphs(), st.integers(1, 5))
    def test_count_matches_enumeration(self, ifs, k):
        for u in ifs.vertices:
            assert path_count(ifs, u, k) == len(paths_from(ifs, u, k))

    @COMMON
    @given(small_graphs())
    def test_similarity_composes_over_concatenation(self, ifs):
        u = ifs.vertices[0]
        for path in paths_from(ifs, u, 4)[:10]:
            whole = path_similarity(ifs, path)
            head = path_similarity(ifs, Path(path.edges[:2]))
            tail = path_similarity(ifs, Path(path.edges[2:]))
            assert head.compose(tail) == whole


class TestDimensionInvariants:
    @COMMON
    @given(double_loop_params())
    def test_spectral_radius_strictly_decreasing(self, params):
        ifs = double_loop_ifs(params)
        grid = [mpmath.mpf(i) / 10 for i in range(11)]
        values = [spectral_radius(moran_matrix(ifs, t)) for t in grid]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[0] >= 2 and values[-1] < 1

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(double_loop_params(), st.integers(0, 10))
    def test_spectral_radius_matches_power_iteration(self, params, tenths):
        m = moran_matrix(double_loop_ifs(params), mpmath.mpf(tenths) / 10)
        assert abs(spectral_radius(m) - reference_spectral_radius(m)) < 1e-25

    @pytest.mark.parametrize("name", ["golden_ratio", "one_loop",
                                      "nested_components", "gap_spanning"])
    def test_dimension_matches_power_iteration_bisection(self, name):
        ifs = load_spec((SPEC_DIR / f"{name}.json").read_text())
        result = hausdorff_dimension(ifs)
        lo, hi = result.bracket
        assert hi - lo <= 1e-12 and result.iterations <= 12
        assert reference_spectral_radius(moran_matrix(ifs, lo)) >= 1
        assert reference_spectral_radius(moran_matrix(ifs, hi)) < 1
        (ref_lo, ref_hi), _ = reference_dimension_bracket(ifs)
        assert max(lo, ref_lo) <= min(hi, ref_hi)

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(st.integers(2, 4), st.randoms(use_true_random=False))
    def test_generated_brackets_match_power_iteration_bisection(self, n, rng):
        ifs = gen.draw_cssc(rng, n)
        lo, hi = hausdorff_dimension(ifs).bracket
        assert hi - lo <= 1e-12
        (ref_lo, ref_hi), _ = reference_dimension_bracket(ifs)
        assert max(lo, ref_lo) <= min(hi, ref_hi)

    @COMMON
    @given(double_loop_params())
    def test_bracket_holds_characteristic_root(self, params):
        tol = 1e-12
        lo, hi = hausdorff_dimension(double_loop_ifs(params), tol).bracket
        root = double_loop_char_root(params, tol)
        assert lo - tol <= root <= hi + tol


class TestCertificateInvariants:
    @COMMON
    @given(double_loop_params())
    def test_classification_always_replays(self, params):
        ifs = double_loop_ifs(params)
        cert = classify_gap_condition(ifs, ifs.vertices[0], depth=4)
        assert replay_certificate(ifs, cert)

    def test_replay_matches_path_similarity_reference(self):
        """Every refutation of seeded certificates on gen's double loops
        and CSSC systems, plain and reflected, and forgeries of each."""
        replayed = reflected = 0
        for seed in range(8):
            rng = random.Random(seed)
            for ifs in (double_loop_ifs(gen.draw_double_loop(rng)),
                        gen.draw_cssc(rng, 2), gen.draw_cssc(rng, 3)):
                for u, refl in itertools.product(ifs.vertices, (False, True)):
                    cert = classify_gap_condition(ifs, u, 6, refl)
                    for v, ref in cert.refutations:
                        assert replay_refutation(ifs, u, v, ref)
                        replayed += 1
                        reflected += ref.reflected
                        j, m = ref.depths
                        for args in (
                                (ifs, u, v, ref), (ifs, v, u, ref),
                                (ifs, u, u, ref),
                                (ifs, u, v, dataclasses.replace(
                                    ref, reflected=not ref.reflected)),
                                (ifs, u, v, dataclasses.replace(
                                    ref, endpoint=1 - ref.endpoint)),
                                (ifs, u, v, dataclasses.replace(
                                    ref, depths=(j, m + 1))),
                                (ifs, u, v, dataclasses.replace(
                                    ref, witness_point=ref.witness_point
                                    + F(1, 10**9)))):
                            assert (replay_refutation(*args)
                                    == reference_replay(*args))
        assert replayed >= 100 and reflected >= 30


class TestRewriteInvariants:
    @COMMON
    @given(raw_graphs())
    def test_no_detached_cycle_means_the_rewrite_ends(self, ifs):
        """When no simple cycle that avoids u is reachable from u, every
        rewrite term that is not final ends a walk from u that repeats no
        vertex and avoids u after its start, so the rewrite of F_u ends
        within |V| - 1 rounds and the decider needs no fallback."""
        for u in ifs.vertices:
            if find_detached_cycle(ifs, u) is None:
                maps = rewrite_to_standard(ifs, u)
                cert = classify_gap_condition(ifs, u)
                assert cert.verdict is Verdict.STANDARD and cert.maps == maps


class TestSerializationInvariants:
    @COMMON
    @given(small_graphs())
    def test_spec_round_trip(self, ifs):
        assert load_spec(dump_spec(ifs)) == ifs

    @COMMON
    @given(st.fractions())
    def test_rational_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x


def decimal_coord(x: Fraction, width: int) -> str:
    """width * x to three decimals the way render_svg once computed it:
    multiply and divide in Decimal's 28-digit context, then quantize
    half-even.  It agrees with exact rounding while the denominator of x
    is below about 8 * 10^20, past which the two context roundings can
    move a value across a tie."""
    value = Decimal(x.numerator) * width / Decimal(x.denominator)
    return str(value.quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN))


def svg_rows(svg: str) -> dict[tuple[str, int], list[tuple[str, str]]]:
    """The rects of every row of a rendered SVG, keyed by (vertex, level),
    each as (x - MARGIN, x + width - MARGIN) in the SVG's own decimals."""
    rows: dict = {}
    for line in svg.splitlines():
        row = re.fullmatch(r'<g id="row-(.+)-(\d+)">', line)
        if row:
            rects = rows.setdefault((row[1], int(row[2])), [])
        rect = re.match(r'<rect x="([\d.]+)" y="\d+" width="([\d.]+)"', line)
        if rect:
            lo = Decimal(rect[1]) - render.MARGIN
            rects.append((str(lo), str(lo + Decimal(rect[2]))))
    return rows


class TestRenderInvariants:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(
        st.tuples(st.one_of(double_loop_params(), double_loop_params(10**5))
                  .map(double_loop_ifs), st.just(8)),
        st.tuples(messy_graphs(), st.just(5))), st.data())
    def test_coordinates_match_decimal_reference(self, drawn, data):
        """Every rect spans the Decimal roundings of its interval's two
        ladder ends, on double loops and on systems with reflecting maps
        and touching or overlapping hulls."""
        ifs, deepest = drawn
        ladder = ifs.ladder
        top = max(k for k in range(deepest + 1) if ladder.scale ** k < 10**20)
        levels = data.draw(st.integers(0, top))
        rows = svg_rows(render_svg(ifs, levels))
        assert len(rows) == len(ifs.vertices) * (levels + 1)
        for v in ifs.vertices:
            for k in range(levels + 1):
                den = ladder.scale ** k
                ends = [decimal_coord(F(p, den), render.WIDTH)
                        for p in ladder.endpoints(v, k)]
                assert rows[v, k] == list(zip(ends[::2], ends[1::2]))
