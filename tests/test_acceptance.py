"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each."""

import random
import re
from contextlib import contextmanager
from fractions import Fraction

import mpmath

from graphifs import (
    ConditionStatus,
    Verdict,
    build_spanning_system,
    classify_distinct_components,
    classify_gap_condition,
    classify_measure_condition,
    component_measures,
    cross_refutation_empty,
    double_loop_char_root,
    double_loop_ifs,
    example_params,
    gap_length_cosets,
    gap_quadratic_roots,
    hausdorff_dimension,
    level_k_gaps,
    max_gap,
    max_gap_closed_form,
    moran_matrix,
    no_loop_ifs,
    path_similarity,
    paths_from,
    render_svg,
    replay_certificate,
    rewrite_to_standard,
    single_loop_ifs,
    solve_spanning_ratios,
    span_search,
    spectral_radius,
    verify_map_identities,
)
from graphifs.dimension import _to_mpf
from conftest import random_double_loop_params

F = Fraction

GOLDEN_S = mpmath.log((mpmath.sqrt(5) - 1) / 2) / mpmath.log(mpmath.mpf(1) / 2)
PHI = (1 + mpmath.sqrt(5)) / 2


@contextmanager
def criterion(num, desc, capsys):
    """Emit exactly one PASS/FAIL line per criterion, bypassing capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {num:02d}] FAIL - {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"[criterion {num:02d}] PASS - {desc}", flush=True)


def test_criterion_01_dimension(golden_ifs, golden_params, capsys):
    with criterion(1, capsys=capsys, desc="golden instance dimension via Moran matrix and "
                      "characteristic equation"):
        result = hausdorff_dimension(golden_ifs)
        assert abs(result.s - GOLDEN_S) <= 1e-9
        root = double_loop_char_root(golden_params)
        assert abs(root - result.s) <= 2e-12


def test_criterion_02_measure(golden_params, capsys):
    with criterion(2, capsys=capsys, desc="golden instance Hausdorff measure: boundary "
                      "condition, golden-ratio condition, unit measures"):
        result = component_measures(golden_params)
        assert result.cond1.status is ConditionStatus.HOLDS_AT_BOUNDARY
        assert abs(result.cond1.value - 1) <= 1e-9
        assert result.cond2.status is ConditionStatus.HOLDS
        assert abs(result.cond2.value - PHI) <= 1e-9
        assert result.h_u == 1
        assert abs(result.h_v - 1) <= 1e-9


def test_criterion_03_not_standard_certificates(golden_params, golden_ifs, capsys):
    with criterion(3, capsys=capsys, desc="golden instance NotStandard under all three deciders "
                      "with replayable certificates"):
        cm_u, cm_v = classify_distinct_components(golden_params)
        assert cm_u.verdict is Verdict.NOT_STANDARD
        assert cm_v.verdict is Verdict.NOT_STANDARD
        assert replay_certificate(golden_ifs, cm_u)
        assert replay_certificate(golden_ifs, cm_v)
        for u in golden_ifs.vertices:
            cq = classify_gap_condition(golden_ifs, u, depth=8)
            assert cq.verdict is Verdict.NOT_STANDARD
            assert replay_certificate(golden_ifs, cq)
            ct = classify_measure_condition(golden_ifs, u,
                                            minimal_edges_asserted=True)
            assert ct.verdict is Verdict.NOT_STANDARD
            assert replay_certificate(golden_ifs, ct)
        # deterministic gap-crossing witness for the (u, v) comparison at
        # the smallest sufficient search depth
        cq_u = classify_gap_condition(golden_ifs, "u", depth=3)
        uv = [r for v, r in cq_u.refutations if v == "v"]
        assert uv and uv[0].witness_point == F(5, 8)
        assert uv[0].witness_path.edges == ("e2", "e3", "e3")
        assert uv[0].gap == (F(1, 2), F(3, 4))
        assert uv[0].depths == (3, 1)


def test_criterion_04_nested_instance(nested_ifs, capsys):
    with criterion(4, capsys=capsys, desc="nested instance: inner component NotStandard, outer "
                      "Unknown, explicit three-map standard rewrite"):
        cv = classify_gap_condition(nested_ifs, "v")
        assert cv.verdict is Verdict.NOT_STANDARD
        assert replay_certificate(nested_ifs, cv)
        cu = classify_gap_condition(nested_ifs, "u")
        assert cu.verdict is Verdict.UNKNOWN
        maps = rewrite_to_standard(nested_ifs, "u")
        e = {edge.id: edge.map for edge in nested_ifs.edges}
        assert set(maps) == {e["e1"], e["e2"], e["e2"].compose(e["e4"])}


def test_criterion_05_rewrites(golden_params, nested_ifs, capsys):
    with criterion(5, capsys=capsys, desc="loop-elimination rewrites for single-loop and "
                      "no-loop variants, refutation-free to depth 6"):
        single = single_loop_ifs(golden_params)
        maps_v = rewrite_to_standard(single, "v")
        e = {edge.id: edge.map for edge in single.edges}
        assert set(maps_v) == {e["e3"], e["e4"].compose(e["e1"]),
                               e["e4"].compose(e["e2"])}
        noloop = no_loop_ifs(golden_params)
        maps_u = rewrite_to_standard(noloop, "u")
        expected = {path_similarity(noloop, p)
                    for p in paths_from(noloop, "u", 2)}
        assert set(maps_u) == expected and len(maps_u) == 4
        assert cross_refutation_empty(single, "v", maps_v, depth=6)
        assert cross_refutation_empty(noloop, "u", maps_u, depth=6)


def test_criterion_06_gap_lengths(capsys):
    with criterion(6, capsys=capsys, desc="random double-loop instances: max gap fixed point, "
                      "extraction oracle, closed forms, coset membership"):
        rng = random.Random(20260824)
        for _ in range(20):
            params = random_double_loop_params(rng, max_denominator=64)
            ifs = double_loop_ifs(params)
            closed = max_gap_closed_form(params)
            cosets = gap_length_cosets(params)
            for idx, u in enumerate(ifs.vertices):
                m = max_gap(ifs, u)
                assert m == closed[idx]
                level10 = level_k_gaps(ifs, u, 10)
                assert m == max(length for _gap, length in level10)
                for _gap, length in level_k_gaps(ifs, u, 6):
                    assert cosets[idx].contains(length)


def test_criterion_07_counterexample_kit(spanning_pair, capsys):
    with criterion(7, capsys=capsys, desc="gap-spanning kit: ratio solver, quadratic, built "
                      "system, exact identities, designated search hit"):
        ratios = solve_spanning_ratios(F(1, 20), F(10, 20), F(1, 20),
                                       F(1, 20))
        assert ratios == tuple([F(1, 10)] * 6)
        assert gap_quadratic_roots(F(1, 20)) == [F(2, 5), F(1, 2)]
        assert gap_quadratic_roots(F(1, 10)) == []
        ifs, s_map = build_spanning_system(example_params())
        assert (s_map.ratio, s_map.offset) == (F(1, 10), F(3, 40))
        ok, reports = verify_map_identities(ifs, s_map)
        assert ok and all(r.holds for r in reports)
        hits = span_search(ifs, "u", "u", max_j=1, max_k=2)
        found = {(h.s_map.ratio, h.s_map.offset) for h in hits}
        assert (F(1, 10), F(3, 40)) in found
        # the palindromic first row admits exactly one mirror twin as well
        assert found == {(F(1, 10), F(3, 40)), (F(1, 10), F(33, 40))}


def test_criterion_08_no_spurious_spanning(golden_ifs, capsys):
    with criterion(8, capsys=capsys, desc="golden instance admits no gap-spanning similarity "
                      "of the conjectured shape up to level 4"):
        for src in golden_ifs.vertices:
            for dst in golden_ifs.vertices:
                assert span_search(golden_ifs, src, dst, max_j=4, max_k=4,
                                   verify_depth=2) == []


def test_criterion_09_randomized_invariants(capsys):
    with criterion(9, capsys=capsys, desc="200 seeded random instances: closed-form gap "
                      "maxima, dimension bracketing, solver agreement, "
                      "measure identity"):
        rng = random.Random(97531)
        instances = [random_double_loop_params(rng) for _ in range(200)]
        for params in instances:
            ifs = double_loop_ifs(params)
            assert (max_gap(ifs, "u"), max_gap(ifs, "v")) == \
                max_gap_closed_form(params)
            assert spectral_radius(moran_matrix(ifs, 0)) >= 2
            assert spectral_radius(moran_matrix(ifs, 1)) < 1
        for params in instances[:50]:
            s1 = hausdorff_dimension(double_loop_ifs(params)).s
            s2 = double_loop_char_root(params)
            assert abs(s1 - s2) <= 2e-12
            result = component_measures(params)
            if result.h_v is not None:
                b_s = _to_mpf(params.b) ** result.s
                a_s = _to_mpf(params.a) ** result.s
                assert abs(result.h_v * b_s + a_s - 1) <= 1e-9


def test_criterion_10_rendering(golden_ifs, capsys):
    with criterion(10, capsys=capsys, desc="deterministic SVG rendering with per-level "
                       "interval counts"):
        svg = render_svg(golden_ifs, 5)
        for vertex in golden_ifs.vertices:
            for k, expected in enumerate((1, 2, 4, 8, 16, 32)):
                block = re.search(
                    rf'<g id="row-{vertex}-{k}">(.*?)</g>', svg, re.S)
                assert block.group(1).count("<rect") == expected
        assert render_svg(golden_ifs, 5) == svg
