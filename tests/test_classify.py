"""Standardness deciders, rewrites, and certificate replay."""

import dataclasses
import heapq
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphifs import (
    DoubleLoopParams,
    Edge,
    GraphIFS,
    ResourceCapError,
    RewriteError,
    Similarity,
    Verdict,
    classify_distinct_components,
    classify_gap_condition,
    classify_measure_condition,
    cross_refutation_empty,
    cssc_check,
    double_loop_ifs,
    find_detached_cycle,
    no_loop_ifs,
    path_similarity,
    paths_from,
    refute_subset,
    replay_certificate,
    rewrite_to_standard,
    single_loop_ifs,
    validate_graph,
)
from graphifs import classify, model
from graphifs.attractor import SubsetRefutation, replay_refutation
from graphifs.classify import Certificate, standard_ifs_from_maps
from graphifs.gaps import Condition2Report
from graphifs.model import Path
from conftest import gen

F = Fraction


@pytest.fixture
def popped(monkeypatch):
    """The heap entries taken by each heapq.heappop call, in order."""
    entries = []
    real_heappop = heapq.heappop

    def counted_heappop(heap):
        entries.append(heap[0])
        return real_heappop(heap)

    monkeypatch.setattr(heapq, "heappop", counted_heappop)
    return entries


class TestDetachedCycle:
    def test_golden_at_u(self, golden_ifs):
        w = find_detached_cycle(golden_ifs, "u")
        assert w is not None
        assert (w.w, w.cycle.edges, w.path.edges) == ("v", ("e3",), ("e2",))
        assert w.vprime == ("u", "v")

    def test_nested_at_v(self, nested_ifs):
        w = find_detached_cycle(nested_ifs, "v")
        assert (w.w, w.cycle.edges, w.path.edges) == ("u", ("e1",), ("e3",))

    def test_no_loop_variant_has_none(self, golden_params):
        ifs = no_loop_ifs(golden_params)
        assert find_detached_cycle(ifs, "u") is None
        assert find_detached_cycle(ifs, "v") is None

    def test_nested_at_u_detached_loop(self, nested_ifs):
        # the loop at v avoids u
        w = find_detached_cycle(nested_ifs, "u")
        assert w is not None and w.cycle.edges == ("e5",)

    def test_cycle_out_of_reach_is_skipped(self):
        # the loop e3 at v avoids u, but no path leads from u to v; so F_u
        # is the attractor of u's own two loops
        quarter, last = Similarity(F(1, 4), F(0)), Similarity(F(1, 4), F(3, 4))
        ifs = GraphIFS(("u", "v"), (
            Edge("e1", "u", "u", quarter), Edge("e2", "u", "u", last),
            Edge("e3", "v", "v", quarter), Edge("e4", "v", "u", last)))
        assert find_detached_cycle(ifs, "u") is None
        cert = classify_gap_condition(ifs, "u")
        assert cert.verdict is Verdict.STANDARD
        assert cert.maps == (quarter, last)
        assert find_detached_cycle(ifs, "v").cycle.edges == ("e1",)


class TestDistinctComponents:
    def test_golden_both_not_standard(self, golden_params, golden_ifs):
        cu, cv = classify_distinct_components(golden_params)
        assert cu.verdict is Verdict.NOT_STANDARD
        assert cv.verdict is Verdict.NOT_STANDARD
        assert replay_certificate(golden_ifs, cu)
        assert replay_certificate(golden_ifs, cv)

    def test_reduced_case_unknown(self):
        p = DoubleLoopParams(F(1, 4), F(1, 4), F(1, 2),
                             F(1, 4), F(1, 4), F(1, 2))
        cu, cv = classify_distinct_components(p)
        assert cu.verdict is Verdict.UNKNOWN
        assert cv.verdict is Verdict.UNKNOWN

    def test_b_differs_not_standard(self):
        p = DoubleLoopParams(F(1, 4), F(1, 4), F(1, 2),
                             F(1, 4), F(5, 12), F(1, 3))
        cu, _cv = classify_distinct_components(p)
        assert cu.verdict is Verdict.NOT_STANDARD


class TestGapCondition:
    def test_golden_both_not_standard(self, golden_ifs):
        for u in golden_ifs.vertices:
            cert = classify_gap_condition(golden_ifs, u, depth=8)
            assert cert.verdict is Verdict.NOT_STANDARD
            assert replay_certificate(golden_ifs, cert)

    def test_nested_v_not_standard(self, nested_ifs):
        cert = classify_gap_condition(nested_ifs, "v")
        assert cert.verdict is Verdict.NOT_STANDARD
        assert replay_certificate(nested_ifs, cert)

    def test_nested_u_unknown(self, nested_ifs):
        cert = classify_gap_condition(nested_ifs, "u")
        assert cert.verdict is Verdict.UNKNOWN
        assert "condition (2)" in cert.unknown_reason

    def test_no_detached_cycle_yields_standard(self, golden_params):
        ifs = no_loop_ifs(golden_params)
        cert = classify_gap_condition(ifs, "u")
        assert cert.verdict is Verdict.STANDARD
        assert cert.theorem == "p2nv1"
        assert len(cert.maps) == 4
        assert replay_certificate(ifs, cert)

    def test_depth_monotonicity(self, golden_ifs):
        verdicts = [classify_gap_condition(golden_ifs, "u", depth=d).verdict
                    for d in range(3, 9)]
        assert Verdict.NOT_STANDARD in verdicts
        first = verdicts.index(Verdict.NOT_STANDARD)
        assert all(v is Verdict.NOT_STANDARD for v in verdicts[first:])

    def test_reflected_variant(self, golden_ifs):
        cert = classify_gap_condition(golden_ifs, "u", reflected=True)
        assert cert.verdict is Verdict.NOT_STANDARD
        assert any(ref.reflected for _v, ref in cert.refutations)
        assert replay_certificate(golden_ifs, cert)

    def test_agrees_with_distinct_components(self):
        from conftest import random_double_loop_params
        import random
        rng = random.Random(606)
        for _ in range(10):
            params = random_double_loop_params(rng, max_denominator=16)
            ifs = double_loop_ifs(params)
            cm, _ = classify_distinct_components(params)
            cq = classify_gap_condition(ifs, "u", depth=6)
            if (cm.verdict is Verdict.NOT_STANDARD
                    and cq.verdict is not Verdict.UNKNOWN):
                assert cq.verdict is Verdict.NOT_STANDARD


class TestMeasureCondition:
    def test_golden_both_not_standard(self, golden_ifs):
        for u in golden_ifs.vertices:
            cert = classify_measure_condition(golden_ifs, u,
                                              minimal_edges_asserted=True)
            assert cert.verdict is Verdict.NOT_STANDARD
            assert replay_certificate(golden_ifs, cert)

    def test_unasserted_minimality_unknown(self, golden_ifs):
        cert = classify_measure_condition(golden_ifs, "u")
        assert cert.verdict is Verdict.UNKNOWN
        assert "minimal" in cert.unknown_reason

    def test_three_vertices_unknown(self):
        # u -> v -> w -> u with a loop at each vertex: the loop at v avoids
        # u, and no three-vertex system is of the double-loop family
        quarter, last = Similarity(F(1, 4), F(0)), Similarity(F(1, 4), F(3, 4))
        ifs = GraphIFS(("u", "v", "w"), (
            Edge("a1", "u", "u", quarter), Edge("b1", "u", "v", last),
            Edge("a2", "v", "v", quarter), Edge("b2", "v", "w", last),
            Edge("a3", "w", "w", quarter), Edge("b3", "w", "u", last)))
        cert = classify_measure_condition(ifs, "u",
                                          minimal_edges_asserted=True)
        assert cert.verdict is Verdict.UNKNOWN and cert.measure is None
        assert cert.unknown_reason == (
            "Hausdorff measure only computable for the two-vertex "
            "double-loop family")
        assert replay_certificate(ifs, cert)

    def test_non_family_unknown(self, spanning_pair):
        ifs, _s = spanning_pair
        cert = classify_measure_condition(ifs, "u",
                                          minimal_edges_asserted=True)
        assert cert.verdict is Verdict.UNKNOWN
        assert "double-loop" in cert.unknown_reason


@pytest.mark.parametrize("decide", [
    classify_gap_condition,
    classify_measure_condition,
    lambda ifs, u, depth: classify_measure_condition(
        ifs, u, depth, minimal_edges_asserted=True),
], ids=["p2q", "p2t", "p2t-asserted"])
@pytest.mark.parametrize("system", ["golden_ifs", "nested_ifs"])
def test_negative_depth_rejected(request, decide, system):
    ifs = request.getfixturevalue(system)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        decide(ifs, "u", -1)


class TestRewrite:
    def test_no_loop_variant_is_level2(self, golden_params):
        ifs = no_loop_ifs(golden_params)
        maps = rewrite_to_standard(ifs, "u")
        expected = {path_similarity(ifs, p) for p in paths_from(ifs, "u", 2)}
        assert set(maps) == expected and len(maps) == 4

    def test_single_loop_at_v(self, golden_params):
        ifs = single_loop_ifs(golden_params)
        maps = rewrite_to_standard(ifs, "v")
        e = {edge.id: edge.map for edge in ifs.edges}
        expected = {e["e3"], e["e4"].compose(e["e1"]), e["e4"].compose(e["e2"])}
        assert set(maps) == expected

    def test_nested_at_u(self, nested_ifs):
        maps = rewrite_to_standard(nested_ifs, "u")
        e = {edge.id: edge.map for edge in nested_ifs.edges}
        expected = {e["e1"], e["e2"], e["e2"].compose(e["e4"])}
        assert set(maps) == expected

    def test_result_sorted_and_inside_unit(self, golden_params):
        for ifs, u in ((no_loop_ifs(golden_params), "u"),
                       (single_loop_ifs(golden_params), "v")):
            maps = rewrite_to_standard(ifs, u)
            hulls = [m.hull() for m in maps]
            assert hulls == sorted(hulls)
            assert all(0 <= lo and hi <= 1 for lo, hi in hulls)

    def test_non_rewritable_raises(self, golden_ifs):
        with pytest.raises(RewriteError):
            rewrite_to_standard(golden_ifs, "u")

    def test_cross_refutation_surrogate(self, golden_params, nested_ifs):
        cases = [
            (no_loop_ifs(golden_params), "u"),
            (single_loop_ifs(golden_params), "v"),
            (nested_ifs, "u"),
        ]
        for ifs, u in cases:
            maps = rewrite_to_standard(ifs, u)
            assert cross_refutation_empty(ifs, u, maps, depth=5)

    def test_cross_refutation_detects_wrong_maps(self, golden_params):
        ifs = no_loop_ifs(golden_params)
        wrong = (Similarity(F(1, 3), F(0)), Similarity(F(1, 3), F(2, 3)))
        assert not cross_refutation_empty(ifs, "u", wrong, depth=5)

    def test_cross_refutation_sees_points_at_the_ends(self):
        # 0 lies in the Cantor set but outside [2/9, 1/3] + [2/3, 1], the
        # level-1 set of the second system, and strictly inside none of
        # its gaps; every other depth-1 point of either system lies in
        # the other's level-1 set
        cantor = standard_ifs_from_maps(
            (Similarity(F(1, 3), F(0)), Similarity(F(1, 3), F(2, 3))))
        maps = (Similarity(F(1, 9), F(2, 9)), Similarity(F(1, 3), F(2, 3)))
        assert not cross_refutation_empty(cantor, "w", maps, depth=1)

    def test_condition3_search_visits_nine_nodes(self, golden_ifs, popped):
        # the refutation of golden u in v at depth 8 lies on a path of
        # length 8; the search pops 9 of the 511 path-tree nodes
        cert = classify_gap_condition(golden_ifs, "u", 8)
        assert cert.verdict is Verdict.NOT_STANDARD
        assert [r.depths for _v, r in cert.refutations] == [(8, 1)]
        assert len(popped) == 9

    @pytest.mark.parametrize("fixture, u, v, reflected, pops", [
        ("golden_ifs", "u", "v", False, 9),
        ("golden_ifs", "v", "u", False, 3),
        ("golden_ifs", "v", "u", True, 5),
        ("nested_ifs", "v", "u", False, 2),
    ])
    def test_refutation_search_pop_counts(self, fixture, u, v, reflected,
                                          pops, request, popped):
        # the v -> u witnesses map endpoint 0 onto the low end of their
        # hull; popping every node whose low end equals the best point
        # would pop the whole chain of hulls anchored there
        ifs = request.getfixturevalue(fixture)
        assert refute_subset(ifs, u, v, 8, reflected) is not None
        assert len(popped) == pops

    def test_deciders_search_through_refute_subset(self, golden_ifs,
                                                   monkeypatch):
        calls = []

        def counted(ifs, u, v, depth, reflected):
            calls.append((v, reflected))
            return refute_subset(ifs, u, v, depth, reflected)

        monkeypatch.setattr(classify, "refute_subset", counted)
        cert = classify_gap_condition(golden_ifs, "u", 8, reflected=True)
        assert len(cert.refutations) == 2
        assert calls == [("v", False), ("v", True)]


def reference_injection(ifs, u, w):
    """The backtracking matcher that first-fit replaced: an injection from
    the out-edges of u into those of w preserving similarity and target,
    as edge-id pairs, or None.  It tries every assignment before it fails,
    so a failure over n interchangeable edges costs about e * n! nodes."""
    u_edges = ifs.out_edges(u)
    w_edges = ifs.out_edges(w)
    if len(u_edges) > len(w_edges):
        return None

    def match(i, used, acc):
        if i == len(u_edges):
            return dict(acc)
        e = u_edges[i]
        for f in w_edges:
            if f.id in used or f.dst != e.dst or f.map != e.map:
                continue
            used.add(f.id)
            acc[e.id] = f.id
            found = match(i + 1, used, acc)
            if found is not None:
                return found
            used.remove(f.id)
            del acc[e.id]
        return None

    return match(0, set(), {})


def reference_unmatched(ifs, u, w):
    """classify._unmatched read off the reference injection."""
    phi = reference_injection(ifs, u, w)
    if phi is None:
        return None
    return [f for f in ifs.out_edges(w) if f.id not in phi.values()]


def cantor_chain_ifs(n):
    """u -> v1 -> ... -> vn -> u, two edges a step with maps x/3 and
    x/3 + 2/3.  Every cycle passes through u, and the rewrite writes F_u,
    the middle-thirds Cantor set, with the 2^(n+1) maps of level n + 1."""
    names = ["u"] + [f"v{i}" for i in range(1, n + 1)]
    return GraphIFS(tuple(names), tuple(
        Edge(f"{x}{side}", x, names[(i + 1) % len(names)],
             Similarity(F(1, 3), offset))
        for i, x in enumerate(names)
        for side, offset in (("a", F(0)), ("b", F(2, 3)))))


class TestRewriteCap:
    """The rewrite holds each round's terms and the compositions that
    _absorbed makes, summed over its removals, to model.DEFAULT_PATH_CAP.
    On cantor_chain_ifs(2), the last round ends with 8 terms, and 8 maps
    make 8^2 compositions."""

    @pytest.mark.parametrize("cap, message", [
        (7, "8 rewrite terms exceed cap 7"),
        (63, "64 map compositions exceed cap 63"),
    ], ids=["terms", "compositions"])
    def test_over_the_cap_raises(self, monkeypatch, cap, message):
        ifs = cantor_chain_ifs(2)
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", cap)
        for call in (rewrite_to_standard, classify_gap_condition):
            with pytest.raises(ResourceCapError, match=message) as info:
                call(ifs, "u")
            assert info.value.bound == cap + 1

    def test_at_the_cap_rewrites(self, monkeypatch):
        ifs = cantor_chain_ifs(2)
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 64)
        maps = rewrite_to_standard(ifs, "u")
        assert maps == tuple(Similarity(F(1, 27), F(k, 27))
                             for k in (0, 2, 6, 8, 18, 20, 24, 26))

    def test_every_removal_counts(self, monkeypatch):
        # loops x/2, x/4 and x/8: 3^2 compositions remove x/4, then 2^2
        # more find nothing, 13 in all
        ifs = GraphIFS(("u",), tuple(
            Edge(eid, "u", "u", Similarity(ratio, F(0)))
            for eid, ratio in zip("abc", (F(1, 2), F(1, 4), F(1, 8)))))
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 12)
        with pytest.raises(ResourceCapError,
                           match="13 map compositions exceed cap 12"):
            rewrite_to_standard(ifs, "u")
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 13)
        assert len(rewrite_to_standard(ifs, "u")) == 2


def rewrite_outcome(ifs, u):
    """The maps of rewrite_to_standard, or the message of its RewriteError."""
    try:
        return rewrite_to_standard(ifs, u)
    except RewriteError as exc:
        return str(exc)


def reference_rewrite_outcome(ifs, u):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "_unmatched", reference_unmatched)
        return rewrite_outcome(ifs, u)


SHARED_MAPS = (Similarity(F(1, 4), F(0)), Similarity(F(1, 4), F(3, 4)),
                Similarity(F(1, 2), F(1, 4)))


@st.composite
def repeated_edge_systems(draw):
    """Two or three vertices, each with 2-4 out-edges drawn from three
    maps and every target, so that equal (similarity, target) edges
    recur."""
    vertices = tuple(f"v{i}" for i in range(draw(st.integers(2, 3))))
    edges = []
    for v in vertices:
        for _ in range(draw(st.integers(2, 4))):
            edges.append(Edge(f"e{len(edges) + 1:02d}", v,
                              draw(st.sampled_from(vertices)),
                              draw(st.sampled_from(SHARED_MAPS))))
    return GraphIFS(vertices, tuple(edges))


def duplicated_edge_system(n):
    """u keeps x/4 at u n times over and sends x/4 + 3/4 to w; w sends x/4
    to u n times over and x/8 + 7/8 to u.  u's last edge finds no match at
    w, after the backtracking matcher has tried about e * n! assignments
    of the duplicates; F_u is then the attractor of x/4, x/16 + 3/4 and
    x/32 + 31/32."""
    quarter = Similarity(F(1, 4), F(0))
    return GraphIFS(("u", "w"), (
        *(Edge(f"a{i:02d}", "u", "u", quarter) for i in range(n)),
        Edge("b", "u", "w", Similarity(F(1, 4), F(3, 4))),
        *(Edge(f"c{i:02d}", "w", "u", quarter) for i in range(n)),
        Edge("d", "w", "u", Similarity(F(1, 8), F(7, 8)))))


class TestFirstFitRewrite:
    """First-fit matching takes the place of the backtracking search: it
    must give the same leftover edges, and so the same maps or the same
    RewriteError."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(repeated_edge_systems())
    def test_matches_backtracking(self, ifs):
        for u in ifs.vertices:
            for w in ifs.vertices:
                assert (classify._unmatched(ifs, u, w)
                        == reference_unmatched(ifs, u, w))
            assert rewrite_outcome(ifs, u) == reference_rewrite_outcome(ifs, u)

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_duplicated_edges_match_backtracking(self, n):
        ifs = duplicated_edge_system(n)
        assert reference_injection(ifs, "u", "w") is None
        assert (rewrite_to_standard(ifs, "u")
                == reference_rewrite_outcome(ifs, "u"))

    def test_ten_duplicated_edges(self):
        # the backtracking matcher took seconds here, and it gives these
        # same maps for every n
        maps = rewrite_to_standard(duplicated_edge_system(10), "u")
        assert maps == (Similarity(F(1, 4), F(0)),
                        Similarity(F(1, 16), F(3, 4)),
                        Similarity(F(1, 32), F(31, 32)))
        assert maps == reference_rewrite_outcome(duplicated_edge_system(6), "u")


def reference_absorbed(maps):
    """The absorption classify._absorbed replaced: for each candidate m,
    every pair of the other maps recomposed, and a restart after each
    removal, O(m^3) compositions a pass."""
    changed = True
    while changed:
        changed = False
        for m in maps:
            if any(p.compose(q) == m
                   for p, q in itertools.product(maps, maps)
                   if p != m and q != m):
                maps.remove(m)
                changed = True
                break
    return maps


def reference_absorbed_outcome(ifs, u):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "_absorbed", reference_absorbed)
        return rewrite_outcome(ifs, u)


class TestAbsorption:
    """One set of compositions per removal takes the place of recomposing
    every pair for each candidate: the same maps or the same RewriteError."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(repeated_edge_systems())
    def test_matches_pairwise_recomposition(self, ifs):
        for u in ifs.vertices:
            assert (rewrite_outcome(ifs, u)
                    == reference_absorbed_outcome(ifs, u))

    def test_generated_systems_match_pairwise_recomposition(self):
        rng = random.Random(5)
        for _ in range(150):
            ifs = gen.draw_cssc(rng, 3, max_degree=2)
            assert (rewrite_outcome(ifs, "v0")
                    == reference_absorbed_outcome(ifs, "v0"))

    @pytest.mark.parametrize("ids, kept", [
        (("a", "b", "c"), (F(1, 8), F(1, 2))),
        (("a", "c", "b"), (F(1, 2),)),
    ], ids=["x/4-first", "x/8-first"])
    def test_removal_order_decides(self, ids, kept):
        # loops x/2, x/4 and x/8 in edge-id order: x/4 = x/2 ∘ x/2 goes
        # first and leaves x/8; x/8 = x/2 ∘ x/4 going first leaves x/4
        # to x/2 ∘ x/2 in turn
        ifs = GraphIFS(("u",), tuple(
            Edge(eid, "u", "u", Similarity(ratio, F(0)))
            for eid, ratio in zip(ids, (F(1, 2), F(1, 4), F(1, 8)))))
        maps = rewrite_to_standard(ifs, "u")
        assert maps == tuple(Similarity(r, F(0)) for r in kept)
        assert maps == reference_absorbed_outcome(ifs, "u")


class TestReplayRejectsTampering:
    def test_digest_mismatch(self, golden_ifs, nested_ifs):
        cert = classify_gap_condition(golden_ifs, "u")
        assert not replay_certificate(nested_ifs, cert)

    def test_vertex_swap(self, golden_ifs):
        cert = classify_gap_condition(golden_ifs, "u")
        forged = Certificate(
            cert.subject_digest, "v", cert.verdict, cert.theorem,
            cert.cycle_witness, cert.condition2, cert.refutations,
            cert.measure, cert.maps, cert.reflected,
            cert.minimal_edges_asserted, cert.unknown_reason, cert.notes)
        assert not replay_certificate(golden_ifs, forged)

    def test_unknown_replays_vacuously(self, nested_ifs):
        cert = classify_gap_condition(nested_ifs, "u")
        assert cert.verdict is Verdict.UNKNOWN
        assert replay_certificate(nested_ifs, cert)


class TestNonMemberEndpoints:
    """On twin_ifs, F_u = F_v and 0 lies in neither, so S_e1(0) = 1/4 is
    no point of F_u although it lies in the gap (0, 5/16) of F_v^2, and
    max G_u is not the max_gap recursion's value."""

    def test_twin_components_stay_unknown(self, twin_ifs):
        assert validate_graph(twin_ifs).ok and cssc_check(twin_ifs).ok
        cert = classify_gap_condition(twin_ifs, "u", 4)
        assert cert.verdict is Verdict.UNKNOWN
        assert cert.unknown_reason == (
            "condition (2): max_gap requires 0 and 1 in every component: "
            "0 is no point of component 'u'")
        assert cert.condition2 is None
        assert replay_certificate(twin_ifs, cert)
        vprime = cert.cycle_witness.vprime
        forged = dataclasses.replace(
            cert, verdict=Verdict.NOT_STANDARD, unknown_reason=None,
            condition2=Condition2Report(
                "u", F(1, 4), tuple((v, F(1, 4), True) for v in vprime),
                True))
        assert not replay_certificate(twin_ifs, forged)

    def test_refutation_from_a_non_member_endpoint_fails_replay(
            self, twin_ifs):
        forged = SubsetRefutation(F(1, 4), Path(("e1",)), F(0),
                                  (F(0), F(5, 16)), (1, 2))
        assert not replay_refutation(twin_ifs, "u", "v", forged)
        cert = dataclasses.replace(
            classify_gap_condition(twin_ifs, "u", 4),
            verdict=Verdict.NOT_STANDARD, refutations=(("v", forged),),
            unknown_reason=None)
        assert not replay_certificate(twin_ifs, cert)
