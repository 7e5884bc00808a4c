"""Gap extraction, maximum gap, coset representations."""

import copy
import gc
import pickle
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from graphifs import (
    DoubleLoopParams,
    Edge,
    GapCosets,
    GraphIFS,
    GraphStructureError,
    ResourceCapError,
    Similarity,
    UnsupportedFeatureError,
    classify_gap_condition,
    condition2_check,
    double_loop_ifs,
    gap_length_cosets,
    level_k_gaps,
    level_k_set,
    max_gap,
    max_gap_closed_form,
    nested_pair_ifs,
    replay_certificate,
)
from graphifs import attractor, gaps, model
from graphifs.cli import main
from conftest import SPEC_DIR, gen, random_double_loop_params

F = Fraction


def _unreachable(*_args):
    raise AssertionError("reached past the vertex check")


class TestLevelKGaps:
    def test_level1(self, golden_ifs):
        assert level_k_gaps(golden_ifs, "u", 1) == [
            ((F(1, 4), F(1, 2)), F(1, 4))]
        assert level_k_gaps(golden_ifs, "v", 1) == [
            ((F(1, 2), F(3, 4)), F(1, 4))]

    def test_level2_lengths(self, golden_ifs):
        lengths = {length for _gap, length in level_k_gaps(golden_ifs, "u", 2)}
        assert lengths == {F(1, 16), F(1, 4), F(1, 8)}

    def test_positions_sorted(self, golden_ifs):
        gaps = level_k_gaps(golden_ifs, "u", 4)
        positions = [gap for gap, _l in gaps]
        assert positions == sorted(positions)


    def test_level_below_one_rejected(self, golden_ifs):
        with pytest.raises(ValueError, match="level k must be >= 1"):
            level_k_gaps(golden_ifs, "u", 0)


class TestMaxGap:
    def test_golden(self, golden_ifs):
        assert max_gap(golden_ifs, "u") == F(1, 4)
        assert max_gap(golden_ifs, "v") == F(1, 4)

    def test_symmetric_cantor_like(self):
        p = DoubleLoopParams(F(1, 4), F(1, 2), F(1, 4),
                             F(1, 4), F(1, 2), F(1, 4))
        ifs = double_loop_ifs(p)
        assert max_gap(ifs, "u") == F(1, 2)

    def test_closed_form_agrees(self, golden_params, golden_ifs):
        mu, mv = max_gap_closed_form(golden_params)
        assert max_gap(golden_ifs, "u") == mu == max(F(1, 4), F(1, 8))
        assert max_gap(golden_ifs, "v") == mv == max(F(1, 4), F(1, 16))

    def test_fixed_point_vs_extraction_oracle(self):
        rng = random.Random(20260824)
        for _ in range(20):
            params = random_double_loop_params(rng)
            ifs = double_loop_ifs(params)
            extracted = max(length
                            for u in ifs.vertices
                            for _gap, length in level_k_gaps(ifs, u, 10))
            assert extracted == max(max_gap(ifs, u) for u in ifs.vertices)

    def test_unknown_vertex(self, golden_ifs, monkeypatch):
        monkeypatch.setattr(gaps, "cssc_check", _unreachable)
        with pytest.raises(GraphStructureError, match="unknown vertex 'z'"):
            max_gap(golden_ifs, "z")

    def test_touching_hulls_rejected(self):
        # level-1 hulls [0, 1/2] and [1/2, 1] touch, so no level-1 gap exists
        ifs = GraphIFS(("u",), (
            Edge("e1", "u", "u", Similarity(F(1, 2), F(0))),
            Edge("e2", "u", "u", Similarity(F(1, 2), F(1, 2)))))
        with pytest.raises(UnsupportedFeatureError, match="'e1' and 'e2'"):
            max_gap(ifs, "u")

    def test_missing_endpoint_rejected(self, twin_ifs):
        # 0 lies in no component, and F_u^3 already has a gap of 21/64,
        # more than the 1/4 that the recursion gives
        assert ((F(1, 2), F(53, 64)), F(21, 64)) in level_k_gaps(
            twin_ifs, "u", 3)
        with pytest.raises(UnsupportedFeatureError,
                           match="0 is no point of component 'u'"):
            max_gap(twin_ifs, "v")


def reference_max_gaps(ifs):
    """max G_v of every vertex v by the recursion of max_gap, iterated
    from the level-1 maxima until it stops changing, with no bound on the
    number of rounds."""
    level1 = {v: [length for _gap, length in level_k_gaps(ifs, v, 1)]
              for v in ifs.vertices}
    m = {v: max(level1[v]) for v in ifs.vertices}
    while True:
        nxt = {v: max(max(level1[v]),
                      max(e.map.ratio * m[e.dst] for e in ifs.out_edges(v)))
               for v in ifs.vertices}
        if nxt == m:
            return m
        m = nxt


def cycle_of_four():
    """v0 -> v1 -> v2 -> v3 -> v0, two edges per step, one fixing 0 and
    one fixing 1.  v0, v1 and v2 map by ratio 49/100, leaving a level-1
    gap of 1/50; v3 maps by 1/8, leaving 3/4.  So max G_v0 is
    (49/100)^3 * 3/4, reached only through the 3-edge chain to v3."""
    edges = []
    for i in range(4):
        v, t = f"v{i}", f"v{(i + 1) % 4}"
        r = F(1, 8) if i == 3 else F(49, 100)
        edges += [Edge(f"e{2 * i + 1}", v, t, Similarity(r, F(0))),
                  Edge(f"e{2 * i + 2}", v, t, Similarity(r, 1 - r))]
    return GraphIFS(tuple(f"v{i}" for i in range(4)), tuple(edges))


class TestMaxGapRounds:
    """max_gap iterates |V| - 1 rounds: a path that repeats a vertex is
    beaten by the same path with its cycle cut out, so the best path is
    simple."""

    def test_ratio_near_one(self):
        # the former bound ran until (9999/10000)^L fell below the gap
        # 1/20000, about 99,000 exact powers
        p = DoubleLoopParams(F(9999, 10000), F(1, 20000), F(1, 20000),
                             F(1, 2), F(1, 4), F(1, 4))
        ifs = double_loop_ifs(p)
        assert (max_gap(ifs, "u"), max_gap(ifs, "v")) == max_gap_closed_form(p)
        assert max_gap(ifs, "u") == F(1, 20000)

    def test_three_edge_chain(self):
        ifs = cycle_of_four()
        expected = F(49, 100) ** 3 * F(3, 4)
        assert max_gap(ifs, "v0") == expected
        assert ({v: max_gap(ifs, v) for v in ifs.vertices}
                == reference_max_gaps(ifs))
        # a gap of F_v0^k is a gap of F_v0; the longest first shows at
        # level 4, one level below the 3-edge chain
        level3, level4 = (max(length for _gap, length
                              in level_k_gaps(ifs, "v0", k)) for k in (3, 4))
        assert level3 < level4 == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generated_systems(self, n):
        rng = random.Random(f"max-gap-{n}")
        for _ in range(5):
            ifs = gen.draw_cssc(rng, n)
            assert ({v: max_gap(ifs, v) for v in ifs.vertices}
                    == reference_max_gaps(ifs))


class TestGapCosets:
    def test_golden_cosets(self, golden_params):
        g_u, g_v = gap_length_cosets(golden_params)
        mixed = (F(1, 4), F(1, 8), F(1, 2))
        assert g_u.cosets == (
            (F(1, 4), (F(1, 4),)),
            (F(1, 32), mixed),
            (F(1, 8), mixed),
        )
        assert g_v.cosets == (
            (F(1, 4), (F(1, 2),)),
            (F(1, 32), mixed),
            (F(1, 16), mixed),
        )

    def test_coefficients_positive(self):
        rng = random.Random(7)
        for _ in range(50):
            g_u, g_v = gap_length_cosets(random_double_loop_params(rng))
            for cosets in (g_u, g_v):
                assert all(coeff > 0 for coeff, _gens in cosets.cosets)

    def test_enumerate_golden(self, golden_params):
        g_u, g_v = gap_length_cosets(golden_params)
        assert g_u.enumerate(F(1, 16)) == [
            F(1, 16), F(1, 8), F(1, 4)]
        assert g_v.enumerate(F(1, 8)) == [F(1, 8), F(1, 4)]

    def test_enumerate_above_max_is_empty(self, golden_params):
        g_u, _ = gap_length_cosets(golden_params)
        assert g_u.enumerate(F(1, 2)) == []

    def test_threshold_must_be_positive(self, golden_params):
        g_u, _ = gap_length_cosets(golden_params)
        with pytest.raises(ValueError):
            g_u.enumerate(F(0))

    def test_membership(self, golden_params):
        g_u, _g_v = gap_length_cosets(golden_params)
        assert g_u.contains(F(1, 4))
        assert g_u.contains(F(1, 16))      # g_u * a
        assert g_u.contains(F(1, 32))      # b*d*g_u
        assert not g_u.contains(F(3, 32))
        assert not g_u.contains(F(1, 3))

    def test_enumerate_orders_members_a_double_cannot_tell_apart(self):
        near = F(1, 3) + F(1, 10**30)
        assert float(near) == float(F(1, 3))
        cosets = GapCosets(((F(1, 3), (F(1, 2),)), (near, (F(1, 2),))))
        assert cosets.enumerate(F(1, 12)) == [
            F(1, 12), near / 4, F(1, 6), near / 2, F(1, 3), near]

    def test_enumerate_lists_a_member_of_two_cosets_once(self):
        # 1/4, 1/8 and 1/16 are reached from both cosets
        cosets = GapCosets(((F(1, 2), (F(1, 2),)), (F(1, 4), (F(1, 2),))))
        assert cosets.enumerate(F(1, 16)) == [F(1, 16), F(1, 8), F(1, 4),
                                              F(1, 2)]

    def test_contains_answers_every_form_of_a_value_alike(self, walks):
        cosets = GapCosets(((2, (F(1, 2),)),))
        assert not any(cosets.contains(x)
                       for x in (0, "0", F(0), -1, "-1/2", F(-1, 4)))
        assert walks == []
        for value, member in ((1, True), (3, False), (F(1, 4), True),
                              (F(3, 8), False)):
            forms = (value, f"{value.numerator}/{value.denominator}",
                     F(value))
            assert [cosets.contains(x) for x in forms] == [member] * 3

    def test_extracted_lengths_are_members(self, golden_params, golden_ifs):
        g_u, g_v = gap_length_cosets(golden_params)
        by_vertex = {"u": g_u, "v": g_v}
        for u in golden_ifs.vertices:
            for k in range(1, 7):
                for _gap, length in level_k_gaps(golden_ifs, u, k):
                    assert by_vertex[u].contains(length)

    def test_members_appear_among_extracted(self, golden_params, golden_ifs):
        g_u, _ = gap_length_cosets(golden_params)
        extracted = {length
                     for k in range(1, 7)
                     for _gap, length in level_k_gaps(golden_ifs, "u", k)}
        floor = min(extracted)
        assert set(g_u.enumerate(floor)) <= extracted

    def test_walk_cap(self, golden_params, monkeypatch):
        # each query walks every product >= 1/100, a member or not (9 over
        # the three cosets of g_u), and a cap of 3 stops it
        g_u, _ = gap_length_cosets(golden_params)
        monkeypatch.setattr(gaps, "DEFAULT_PATH_CAP", 3)
        for query in (g_u.contains, g_u.enumerate):
            with pytest.raises(ResourceCapError) as info:
                query(F(1, 100))
            assert info.value.bound > 3

    @pytest.fixture
    def walks(self, monkeypatch):
        thresholds = []
        real_walk = GapCosets._walk

        def counted_walk(cosets, threshold):
            thresholds.append(threshold)
            return real_walk(cosets, threshold)

        monkeypatch.setattr(GapCosets, "_walk", counted_walk)
        return thresholds

    def test_queries_above_a_walk_read_its_members(self, golden_params,
                                                   walks):
        g_u, _ = gap_length_cosets(golden_params)
        assert g_u.enumerate(F(1, 64)) == [
            F(1, 64), F(1, 32), F(1, 16), F(1, 8), F(1, 4)]
        assert walks == [F(1, 64)]
        assert g_u.contains(F(1, 64)) and g_u.contains(F(1, 4))
        assert not g_u.contains(F(3, 64)) and not g_u.contains(F(1, 2))
        assert g_u.enumerate(F(1, 10)) == [F(1, 8), F(1, 4)]
        assert walks == [F(1, 64)]

    def test_lower_threshold_walks_once_more(self, golden_params, walks):
        g_u, _ = gap_length_cosets(golden_params)
        assert g_u.contains(F(1, 16))
        assert g_u.contains(F(1, 32))
        assert g_u.enumerate(F(1, 32)) == [
            F(1, 32), F(1, 16), F(1, 8), F(1, 4)]
        assert not g_u.contains(F(1, 20))
        assert walks == [F(1, 16), F(1, 32)]

    def test_capped_walk_keeps_nothing(self, golden_params, monkeypatch,
                                       walks):
        g_u, _ = gap_length_cosets(golden_params)
        assert g_u.contains(F(1, 4))
        monkeypatch.setattr(gaps, "DEFAULT_PATH_CAP", 3)
        with pytest.raises(ResourceCapError):
            g_u.enumerate(F(1, 100))
        monkeypatch.setattr(gaps, "DEFAULT_PATH_CAP", 10**6)
        assert not g_u.contains(F(1, 100))
        assert g_u.enumerate(F(1, 16)) == [F(1, 16), F(1, 8), F(1, 4)]
        assert walks == [F(1, 4), F(1, 100), F(1, 100)]

    def test_kept_members_leave_equality_alone(self, golden_params):
        walked, _ = gap_length_cosets(golden_params)
        unwalked, _ = gap_length_cosets(golden_params)
        text = repr(unwalked)
        walked.enumerate(F(1, 64))
        assert walked == unwalked
        assert hash(walked) == hash(unwalked)
        assert repr(walked) == repr(unwalked) == text

    @pytest.mark.parametrize("coeff", [F(0), F(-1, 2)])
    def test_non_positive_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError,
                           match="coset coefficient must be positive"):
            GapCosets(((coeff, (F(1, 2),)),))

    def test_bad_generator_rejected(self):
        with pytest.raises(ValueError):
            GapCosets(((F(1, 2), (F(3, 2),)),))


class TestCondition2:
    def test_golden_passes_at_u(self, golden_ifs):
        report = condition2_check(golden_ifs, "u", ["u", "v"])
        assert report.ok
        assert report.max_gap_u == F(1, 4)
        assert report.level1_gaps_uniform is True

    def test_nested_passes_at_v(self, nested_ifs):
        report = condition2_check(nested_ifs, "v", ["u", "v"])
        assert report.ok
        assert report.max_gap_u == F(1, 8)

    def test_nested_fails_at_u(self, nested_ifs):
        report = condition2_check(nested_ifs, "u", ["u", "v"])
        assert not report.ok

    def test_large_gap_fails(self):
        # g_u > g_v forces failure when checked at u against v.
        p = DoubleLoopParams(F(1, 4), F(1, 2), F(1, 4),
                             F(2, 5), F(1, 5), F(2, 5))
        report = condition2_check(double_loop_ifs(p), "u", ["u", "v"])
        assert not report.ok

    @pytest.mark.parametrize("u, vset", [("u", ["u", "z"]), ("z", ["z"])])
    def test_unknown_vertex(self, golden_ifs, monkeypatch, u, vset):
        monkeypatch.setattr(gaps, "_level1_gap_lengths", _unreachable)
        monkeypatch.setattr(gaps, "max_gap", _unreachable)
        with pytest.raises(GraphStructureError, match="unknown vertex 'z'"):
            condition2_check(golden_ifs, u, vset)

    def test_requires_u_in_vset(self, golden_ifs):
        with pytest.raises(ValueError):
            condition2_check(golden_ifs, "u", ["v"])

    def test_pass_forces_uniform_level1_gaps(self):
        rng = random.Random(99)
        for _ in range(50):
            ifs = double_loop_ifs(random_double_loop_params(rng))
            for u in ifs.vertices:
                report = condition2_check(ifs, u, list(ifs.vertices))
                if report.ok:
                    assert report.level1_gaps_uniform is True


class TestEndpointCheckOnce:
    """endpoint_fixed_check is a fixed fact of a system: its cycle search
    runs once per system, whichever queries read it."""

    @pytest.fixture
    def checks(self, monkeypatch):
        checked = []
        real_check = model.endpoint_fixed_check

        def counted_check(ifs):
            checked.append(ifs)
            return real_check(ifs)

        monkeypatch.setattr(model, "endpoint_fixed_check", counted_check)
        return checked

    def test_max_gap_at_both_vertices(self, golden_params, checks):
        ifs = double_loop_ifs(golden_params)
        assert (max_gap(ifs, "u"), max_gap(ifs, "v")) == (F(1, 4), F(1, 4))
        assert checks == [ifs]

    def test_p2q_replay(self, golden_ifs, golden_params, checks):
        cert = classify_gap_condition(golden_ifs, "u", 8, reflected=True)
        assert cert.theorem == "p2q" and cert.refutations
        fresh = double_loop_ifs(golden_params)
        checks.clear()
        assert replay_certificate(fresh, cert)
        assert checks == [fresh]

    def test_copies_check_anew(self, golden_params, checks):
        # neither the endpoint check nor the path-count table is copied
        ifs = double_loop_ifs(golden_params)
        expected = ifs.fixed_endpoints
        counts = [model.path_count(ifs, "u", k) for k in range(6)]
        for other in (copy.copy(ifs), pickle.loads(pickle.dumps(ifs))):
            assert "_path_counts" not in vars(other)
            assert other.fixed_endpoints == expected
            assert [model.path_count(other, "u", k)
                    for k in range(6)] == counts
            assert len(other._path_counts) == 6
            assert other._path_counts is not ifs._path_counts
        assert len(checks) == 3

    def test_condition2_reads_level1_once(self, golden_ifs, monkeypatch):
        reads = []
        real_read = gaps._level1_gap_lengths

        def counted_read(ifs):
            reads.append(ifs)
            return real_read(ifs)

        monkeypatch.setattr(gaps, "_level1_gap_lengths", counted_read)
        assert condition2_check(golden_ifs, "u", ["u", "v"]).ok
        assert reads == [golden_ifs]


class TestLevelOneGaps:
    """Level 1, like every level, is read from the one LevelLadder that
    the system owns, and the ladder is freed with the system."""

    @pytest.fixture
    def ladders(self, monkeypatch):
        built = []
        real_init = attractor.LevelLadder.__init__

        def counted_init(ladder, *args):
            built.append(args)
            real_init(ladder, *args)

        monkeypatch.setattr(attractor.LevelLadder, "__init__", counted_init)
        return built

    def test_classify_builds_one_ladder(self, golden_ifs, ladders):
        classify_gap_condition(golden_ifs, "u", 8, reflected=True)
        assert ladders == [(golden_ifs,)]

    def test_classify_and_replay_build_one_ladder(self, golden_ifs, ladders):
        cert = classify_gap_condition(golden_ifs, "u", 8, reflected=True)
        assert replay_certificate(golden_ifs, cert)
        assert ladders == [(golden_ifs,)]

    def test_system_freed_by_reference_counting(self, golden_params):
        ifs = double_loop_ifs(golden_params)
        level_k_set(ifs, "u", 8)
        system = weakref.ref(ifs)
        gc.disable()
        try:
            del ifs
            assert system() is None
        finally:
            gc.enable()

    def test_kept_system_holds_only_integer_levels(self, golden_params):
        # A full collection before each reading empties CPython's free
        # lists: freed 2-tuples (up to 2,000, about 110 KB) otherwise stay
        # traced in whichever measurement made pairs last.
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ints = double_loop_ifs(golden_params)
            ints.ladder.endpoints("u", 14)
            gc.collect()
            levels = tracemalloc.get_traced_memory()[0] - start
            start = tracemalloc.get_traced_memory()[0]
            kept = double_loop_ifs(golden_params)
            kept_set = level_k_set(kept, "u", 14)  # shares the ladder's list
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held <= levels + 64 * 1024
        assert kept_set == level_k_set(kept, "u", 14)

    def test_copies_build_their_own_ladder(self, golden_params):
        ifs = double_loop_ifs(golden_params)
        expected = level_k_set(ifs, "u", 4)
        copies = [copy.copy(ifs), copy.deepcopy(ifs),
                  pickle.loads(pickle.dumps(ifs))]
        del ifs
        for other in copies:
            assert level_k_set(other, "u", 4) == expected
            assert len(level_k_set(other, "u", 5)) == 32

    def test_cli_gaps_builds_one_ladder(self, ladders, capsys):
        spec = str(SPEC_DIR / "golden_ratio.json")
        assert main(["gaps", spec, "--vertex", "u", "--depth", "10"]) == 0
        assert "max gap = 1/4" in capsys.readouterr().out
        assert len(ladders) == 1
