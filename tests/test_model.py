"""Core data model and graph algorithms."""

import gc
from fractions import Fraction

import pytest

from graphifs import (
    Edge,
    GraphIFS,
    GraphStructureError,
    Path,
    ResourceCapError,
    Similarity,
    double_loop_ifs,
    endpoint_fixed_check,
    graph_digest,
    is_unit_interval,
    parse_rational,
    format_rational,
    path_similarity,
    paths_from,
    simple_cycles,
    simple_path,
    single_loop_ifs,
    no_loop_ifs,
    validate_graph,
)
from graphifs.attractor import endpoint_witnesses
from graphifs import model
from graphifs.model import path_count, path_vertices

F = Fraction


class TestSimilarity:
    def test_action(self):
        s = Similarity(F(1, 2), F(1, 4))
        assert s(F(1, 2)) == F(1, 2)
        assert s.hull() == (F(1, 4), F(3, 4))

    def test_reflecting_action(self):
        s = Similarity(F(1, 2), F(3, 4), reflect=True)
        assert s(0) == F(3, 4)
        assert s(1) == F(1, 4)
        assert s.hull() == (F(1, 4), F(3, 4))

    def test_ratio_range_enforced(self):
        with pytest.raises(ValueError):
            Similarity(F(0), F(1, 2))
        with pytest.raises(ValueError):
            Similarity(F(3, 2), F(0))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Similarity(0.5, 0.25)

    def test_compose(self):
        s1 = Similarity(F(1, 2), F(1, 2))
        s2 = Similarity(F(1, 2), F(0))
        composed = s1.compose(s2)
        assert composed.ratio == F(1, 4)
        assert composed.offset == F(1, 2)
        assert composed(1) == s1(s2(1))

    def test_compose_reflections_cancel(self):
        r = Similarity(F(1, 2), F(1, 2), reflect=True)
        twice = r.compose(r)
        assert not twice.reflect
        assert twice(0) == r(r(0))

    def test_invert_point(self):
        s = Similarity(F(1, 3), F(1, 5))
        assert s.invert_point(s(F(2, 7))) == F(2, 7)


class TestValidation:
    def test_golden_graph_valid(self, golden_ifs):
        assert validate_graph(golden_ifs).ok

    def test_out_degree_one_invalid(self):
        ifs = GraphIFS(("u",), (Edge("e1", "u", "u", Similarity(F(1, 2), F(0))),))
        report = validate_graph(ifs)
        assert not report.ok
        assert any("out-degree" in issue for issue in report.issues)

    def test_not_strongly_connected(self):
        # u -> v only; loop pair at v: u unreachable from v.
        ifs = GraphIFS(("u", "v"), (
            Edge("e1", "u", "v", Similarity(F(1, 4), F(0))),
            Edge("e2", "u", "v", Similarity(F(1, 4), F(3, 4))),
            Edge("e3", "v", "v", Similarity(F(1, 4), F(0))),
            Edge("e4", "v", "v", Similarity(F(1, 4), F(3, 4))),
        ))
        report = validate_graph(ifs)
        assert not report.ok
        assert any("strongly connected" in issue for issue in report.issues)

    def test_hull_escape_reported(self):
        ifs = GraphIFS(("u",), (
            Edge("e1", "u", "u", Similarity(F(1, 4), F(0))),
            Edge("e2", "u", "u", Similarity(F(1, 4), F(9, 10))),
        ))
        report = validate_graph(ifs)
        assert any("escapes" in issue for issue in report.issues)

    def test_dangling_edge_rejected(self):
        with pytest.raises(GraphStructureError):
            GraphIFS(("u",), (Edge("e1", "u", "w", Similarity(F(1, 2), F(0))),))

    def test_duplicate_edge_id_rejected(self):
        e = Edge("e1", "u", "u", Similarity(F(1, 4), F(0)))
        with pytest.raises(GraphStructureError):
            GraphIFS(("u",), (e, e))


class TestPaths:
    def test_level1_paths(self, golden_ifs):
        assert [p.edges for p in paths_from(golden_ifs, "u", 1)] == [
            ("e1",), ("e2",)]

    def test_level2_paths(self, golden_ifs):
        assert [p.edges for p in paths_from(golden_ifs, "u", 2)] == [
            ("e1", "e1"), ("e1", "e2"), ("e2", "e3"), ("e2", "e4")]

    def test_level5_count(self, golden_ifs):
        assert len(paths_from(golden_ifs, "u", 5)) == 32

    def test_resource_cap(self, golden_ifs, monkeypatch):
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 31)
        with pytest.raises(ResourceCapError):
            paths_from(golden_ifs, "u", 5)

    def test_count_matches_enumeration(self, golden_ifs):
        for k in range(1, 7):
            assert path_count(golden_ifs, "u", k) == len(
                paths_from(golden_ifs, "u", k))

    def test_negative_count_length_rejected(self, golden_ifs):
        with pytest.raises(ValueError, match=r"^path length k must be >= 0$"):
            path_count(golden_ifs, "u", -1)

    def test_path_similarity_composition(self, golden_ifs):
        # e2 then e3: x/2 + 1/2 after x/2 gives x/4 + 1/2.
        sim = path_similarity(golden_ifs, Path(("e2", "e3")))
        assert (sim.ratio, sim.offset) == (F(1, 4), F(1, 2))

    def test_path_similarity_loop_square(self, golden_ifs):
        sim = path_similarity(golden_ifs, Path(("e1", "e1")))
        assert (sim.ratio, sim.offset) == (F(1, 16), F(0))

    def test_non_consecutive_rejected(self, golden_ifs):
        with pytest.raises(ValueError):
            path_similarity(golden_ifs, Path(("e1", "e3")))


class TestCycles:
    def test_golden_cycles(self, golden_ifs):
        assert [c.edges for c in simple_cycles(golden_ifs)] == [
            ("e1",), ("e3",), ("e2", "e4")]

    def test_no_loop_variant_cycles(self, golden_params):
        cycles = simple_cycles(no_loop_ifs(golden_params))
        assert all(len(c.edges) == 2 for c in cycles)
        assert len(cycles) == 4

    def test_single_loop_cycles(self, golden_params):
        ifs = single_loop_ifs(golden_params)
        cycles = [c.edges for c in simple_cycles(ifs)]
        assert ("e3",) in cycles
        assert len(cycles) == 3
        # every cycle is attached to v
        assert all("v" in path_vertices(ifs, c) for c in simple_cycles(ifs))

    def test_simple_path(self, golden_ifs, nested_ifs):
        assert simple_path(golden_ifs, "u", "v").edges == ("e2",)
        assert simple_path(nested_ifs, "v", "u").edges == ("e3",)

    def test_simple_path_same_vertex_rejected(self, golden_ifs):
        with pytest.raises(ValueError):
            simple_path(golden_ifs, "u", "u")


def test_walks_leave_no_reference_cycles(golden_ifs):
    """The path, cycle and witness walks free their results by reference
    counting alone, without waiting for the cyclic collector."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        paths_from(golden_ifs, "u", 8)
        simple_cycles(golden_ifs)
        endpoint_witnesses(golden_ifs, "u", 8)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class TestEndpoints:
    def test_golden_all_fixed(self, golden_ifs):
        assert endpoint_fixed_check(golden_ifs) == {
            "u": (True, True), "v": (True, True)}
        assert is_unit_interval(golden_ifs)

    def test_broken_zero_anchor(self, golden_params):
        p = golden_params
        ifs = GraphIFS(("u", "v"), (
            Edge("e1", "u", "u", Similarity(p.a, F(1, 8))),
            Edge("e2", "u", "v", Similarity(p.b, p.a + p.g_u)),
            Edge("e3", "v", "v", Similarity(p.c, F(0))),
            Edge("e4", "v", "u", Similarity(p.d, p.c + p.g_v)),
        ))
        assert endpoint_fixed_check(ifs)["u"] == (False, True)

    def test_spanning_system_normalized(self, spanning_pair):
        ifs, _s = spanning_pair
        assert endpoint_fixed_check(ifs) == {
            "u": (True, True), "v": (True, True)}

    def test_reflecting_maps(self):
        # 0 -> 1/4 - x/4 -> 1 -> x/4 + 3/4 -> 1: 0 is reached through 1
        ifs = GraphIFS(("u",), (
            Edge("e1", "u", "u", Similarity(F(1, 4), F(1, 4), reflect=True)),
            Edge("e2", "u", "u", Similarity(F(1, 4), F(3, 4))),
        ))
        assert endpoint_fixed_check(ifs) == {"u": (True, True)}
        # x -> 1/2 - x/4 sends neither endpoint to 0
        ifs = GraphIFS(("u",), (
            Edge("e1", "u", "u", Similarity(F(1, 4), F(1, 2), reflect=True)),
            Edge("e2", "u", "u", Similarity(F(1, 4), F(3, 4))),
        ))
        assert endpoint_fixed_check(ifs) == {"u": (False, True)}

    def test_endpoint_in_no_component(self, twin_ifs):
        assert endpoint_fixed_check(twin_ifs) == {
            "u": (False, True), "v": (False, True)}
        assert not is_unit_interval(twin_ifs)


class TestRationals:
    def test_round_trip(self):
        for x in (F(0), F(3), F(-2, 7), F(355, 113), F(1, 64)):
            assert parse_rational(format_rational(x)) == x

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            parse_rational("1/0")

    def test_strings_go_through_parse_rational(self):
        assert model.as_rational(" 3/6 ") == F(1, 2)
        for make in (model.as_rational, lambda text: Similarity(text, 0)):
            with pytest.raises(ValueError,
                               match="zero denominator in '1/0'"):
                make("1/0")

    def test_canonical_form(self):
        assert format_rational(F(2, 4)) == "1/2"
        assert format_rational(F(4, 2)) == "2"


def test_digest_ignores_nothing_structural(golden_ifs, golden_params):
    same = double_loop_ifs(golden_params)
    assert graph_digest(golden_ifs) == graph_digest(same)
    other = single_loop_ifs(golden_params)
    assert graph_digest(golden_ifs) != graph_digest(other)
