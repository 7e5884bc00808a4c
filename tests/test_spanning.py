"""Gap-spanning construction kit and conjecture-shaped search."""

import dataclasses
from fractions import Fraction

import pytest

from graphifs import (
    Edge,
    GraphIFS,
    Similarity,
    SurdRoot,
    build_spanning_system,
    cssc_check,
    example_params,
    gap_quadratic_roots,
    solve_spanning_ratios,
    span_search,
    validate_graph,
    verify_map_identities,
)
from graphifs.spanning import SpanningParams

F = Fraction


class TestSolveRatios:
    def test_reference_instance(self):
        ratios = solve_spanning_ratios(F(1, 20), F(10, 20), F(1, 20), F(1, 20))
        assert ratios == tuple([F(1, 10)] * 6)

    def test_formula_spot_check(self):
        # r_e1 = g1^2/(g2*g3)
        ratios = solve_spanning_ratios(F(1, 20), F(10, 20), F(1, 20), F(1, 20))
        assert ratios[0] == F(1, 20) ** 2 / (F(10, 20) * F(1, 20))

    def test_infeasible_when_gaps_overfill(self):
        assert solve_spanning_ratios(F(1, 2), F(1, 2), F(1, 2), F(1, 2)) is None

    def test_nonzero_residual_infeasible(self):
        # every ratio is 1/5, inside (0,1), but the u row sums to 6/5
        assert solve_spanning_ratios(F(1, 20), F(1, 4), F(1, 20),
                                     F(1, 20)) is None

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            solve_spanning_ratios(F(0), F(1, 2), F(1, 20), F(1, 20))


class TestQuadratic:
    def test_rational_roots(self):
        assert gap_quadratic_roots(F(1, 20)) == [F(2, 5), F(1, 2)]

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            gap_quadratic_roots(F(0))

    def test_no_real_roots(self):
        assert gap_quadratic_roots(F(1, 10)) == []

    def test_surd_roots(self):
        roots = gap_quadratic_roots(F(1, 25))
        assert all(isinstance(r, SurdRoot) for r in roots)
        # residual of the quadratic vanishes at each root (check via surd
        # algebra: for x=(p+s*sqrt(d))/q, expand exactly)
        for r in roots:
            # x^2 + (2*alpha - 1)*x + 4*alpha with alpha = 1/25
            b, c = 2 * F(1, 25) - 1, 4 * F(1, 25)
            # x = (p + s*sqrt(d))/q; rational and sqrt(d) parts must vanish
            rat = (r.p * r.p + r.d) / (r.q * r.q) + b * r.p / r.q + c
            irr = 2 * r.p * r.sign / (r.q * r.q) + b * r.sign / r.q
            assert rat == 0 and irr == 0

    def test_roots_substitute_back(self):
        for alpha in (F(1, 20), F(1, 30), F(1, 100)):
            for root in gap_quadratic_roots(alpha):
                if isinstance(root, Fraction):
                    assert root**2 + (2 * alpha - 1) * root + 4 * alpha == 0


class TestBuildSystem:
    def test_s_map(self, spanning_pair):
        _ifs, s = spanning_pair
        assert (s.ratio, s.offset) == (F(1, 10), F(3, 40))

    def test_valid_cssc_normalized(self, spanning_pair):
        ifs, _s = spanning_pair
        assert validate_graph(ifs).ok
        assert cssc_check(ifs).ok

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ValueError, match="parameter g1 must be positive"):
            dataclasses.replace(example_params(), g1=F(0))

    def test_row_sum_enforced(self):
        with pytest.raises(ValueError):
            SpanningParams(
                g1=F(1, 20), g2=F(1, 2), g3=F(1, 20), g4=F(1, 20),
                g5=F(1, 5), g6=F(1, 10),
                r_e1=F(1, 10), r_e2=F(1, 10), r_e3=F(1, 10), r_e4=F(1, 5),
                r_e5=F(1, 10), r_e6=F(1, 10), r_e7=F(7, 20), r_e8=F(1, 10))


class TestIdentities:
    def test_reference_identities_hold(self, spanning_pair):
        ifs, s = spanning_pair
        ok, reports = verify_map_identities(ifs, s)
        assert ok and all(r.holds for r in reports) and len(reports) == 4

    def test_perturbed_ratio_fails_first_identity(self, spanning_pair):
        ifs, s = spanning_pair
        ok, reports = verify_map_identities(ifs, Similarity(F(3, 20), s.offset))
        assert not ok
        assert not reports[0].holds

    def test_identities_insensitive_to_second_row_tail(self):
        # Changing g6 (with r_e7 re-fitted to keep the row summing to 1)
        # leaves all four identities intact: they never involve g5, g6, r_e7.
        p = example_params()
        q = SpanningParams(
            g1=p.g1, g2=p.g2, g3=p.g3, g4=p.g4, g5=p.g5, g6=F(3, 20),
            r_e1=p.r_e1, r_e2=p.r_e2, r_e3=p.r_e3, r_e4=p.r_e4,
            r_e5=p.r_e5, r_e6=p.r_e6, r_e7=F(6, 20), r_e8=p.r_e8)
        ifs, s = build_spanning_system(q)
        ok, _ = verify_map_identities(ifs, s)
        assert ok


class TestSpanSearch:
    def test_reference_hits(self, spanning_pair):
        ifs, s = spanning_pair
        hits = span_search(ifs, "u", "u", max_j=1, max_k=2, verify_depth=3)
        found = {(h.s_map.ratio, h.s_map.offset) for h in hits}
        assert (s.ratio, s.offset) in found
        # the palindromic first row admits one mirror twin of S as well
        assert found == {(F(1, 10), F(3, 40)), (F(1, 10), F(33, 40))}

    def test_hits_span_a_gap(self, spanning_pair):
        ifs, _s = spanning_pair
        for h in span_search(ifs, "u", "u", max_j=1, max_k=2):
            lo, hi = h.spanned_gap
            hull_lo, hull_hi = h.s_map.hull()
            assert hull_lo < lo < hi < hull_hi

    def test_mirror_twin_identities_exact(self, spanning_pair):
        ifs, _s = spanning_pair
        e = {edge.id: edge.map for edge in ifs.edges}
        s2 = Similarity(F(1, 10), F(33, 40))
        assert s2.compose(e["e1"]) == e["e3"].compose(e["e3"])
        assert s2.compose(e["e2"]) == e["e3"].compose(e["e4"])
        assert s2.compose(e["e3"]) == e["e4"].compose(e["e5"])
        assert s2.compose(e["e4"]) == e["e4"].compose(e["e6"])

    def test_double_loop_family_has_no_spanning_maps(self, golden_ifs):
        for src in golden_ifs.vertices:
            for dst in golden_ifs.vertices:
                assert span_search(golden_ifs, src, dst,
                                   max_j=4, max_k=4, verify_depth=2) == []

    def test_candidate_fails_verification(self):
        # S(x) = 2x/3 + 1/3 sends F_v1^1 = [0, 1/4] + [7/8, 1] onto the
        # level-1 intervals [1/3, 1/2] and [11/12, 1] of F_v0 and spans
        # the gap (1/2, 11/12), but S(F_v1^2) leaves F_v0^2
        ifs = GraphIFS(("v0", "v1"), (
            Edge("e1", "v0", "v1", Similarity(F(1, 12), F(0))),
            Edge("e2", "v0", "v1", Similarity(F(1, 6), F(1, 3))),
            Edge("e3", "v0", "v1", Similarity(F(1, 12), F(11, 12))),
            Edge("e4", "v1", "v0", Similarity(F(1, 4), F(0))),
            Edge("e5", "v1", "v0", Similarity(F(1, 8), F(7, 8)))))
        assert validate_graph(ifs).ok and cssc_check(ifs).ok
        (hit,) = span_search(ifs, "v1", "v0", max_j=1, max_k=2,
                             verify_depth=0)
        assert hit.s_map == Similarity(F(2, 3), F(1, 3))
        assert hit.spanned_gap == (F(1, 2), F(11, 12))
        assert span_search(ifs, "v1", "v0", max_j=1, max_k=2,
                           verify_depth=1) == []

    def test_bad_bounds_rejected(self, golden_ifs):
        with pytest.raises(ValueError):
            span_search(golden_ifs, "u", "u", max_j=0, max_k=1)
