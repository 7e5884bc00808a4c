"""Level-k sets, separation check, and containment refutation."""

import dataclasses
from fractions import Fraction

import pytest

from graphifs import (
    DoubleLoopParams,
    Edge,
    GraphIFS,
    GraphStructureError,
    Path,
    ResourceCapError,
    Similarity,
    classify_gap_condition,
    components_equal,
    cssc_check,
    double_loop_ifs,
    endpoint_points,
    level_k_set,
    refute_subset,
    replay_refutation,
)
from graphifs import attractor, model
from graphifs.attractor import (
    IntervalSet,
    LevelLadder,
    SubsetRefutation,
    endpoint_witnesses,
)

F = Fraction


class TestIntervalSet:
    def test_sorting_and_merging(self):
        s = IntervalSet(((F(1, 2), F(3, 4)), (F(0), F(1, 4))))
        assert s.intervals == ((F(0), F(1, 4)), (F(1, 2), F(3, 4)))

    def test_gaps(self):
        s = IntervalSet(((F(0), F(1, 4)), (F(1, 2), F(1))))
        assert s.gaps() == ((F(1, 4), F(1, 2)),)

    def test_boundary_gaps(self):
        s = IntervalSet(((F(1, 4), F(1, 2)),))
        assert s.gaps() == ((F(0), F(1, 4)), (F(1, 2), F(1)))

    def test_contains(self):
        s = IntervalSet(((F(0), F(1, 4)), (F(1, 2), F(1))))
        assert s.contains(F(1, 4))
        assert s.contains(F(1, 2))
        assert not s.contains(F(3, 8))

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError,
                           match=r"interval \[1/2, 1/4\] is reversed"):
            IntervalSet([(F(1, 2), F(1, 4))])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet(((F(-1, 4), F(1, 2)),))

    def test_equal_and_hashed_across_denominators(self):
        # maps x/2 and x/4 from 0: F^k = [0, 1/2^k], over 4^k on the ladder
        ifs = GraphIFS(("u",), (
            Edge("e1", "u", "u", Similarity(F(1, 2), F(0))),
            Edge("e2", "u", "u", Similarity(F(1, 4), F(0))),
        ))
        for k, plain in ((1, IntervalSet(((0, F(1, 2)),))),
                         (2, IntervalSet(((0, F(1, 4)),)))):
            level = level_k_set(ifs, "u", k)
            assert level._den == 4 ** k and plain._den == 2 ** k
            assert level == plain and hash(level) == hash(plain)
        assert level_k_set(ifs, "u", 1) != level_k_set(ifs, "u", 2)
        assert IntervalSet(()) == IntervalSet([]) != IntervalSet(((0, 1),))


class TestLevelSets:
    def test_level0_full(self, golden_ifs):
        assert level_k_set(golden_ifs, "u", 0).intervals == ((F(0), F(1)),)

    def test_level1(self, golden_ifs):
        assert level_k_set(golden_ifs, "u", 1).intervals == (
            (F(0), F(1, 4)), (F(1, 2), F(1)))
        assert level_k_set(golden_ifs, "v", 1).intervals == (
            (F(0), F(1, 2)), (F(3, 4), F(1)))

    def test_level5_count_and_nesting(self, golden_ifs):
        lvl5 = level_k_set(golden_ifs, "u", 5)
        lvl4 = level_k_set(golden_ifs, "u", 4)
        assert len(lvl5) == 32
        for lo, hi in lvl5.intervals:
            assert any(a <= lo and hi <= b for a, b in lvl4.intervals)

    def test_recursion_consistency(self, golden_ifs):
        for u in golden_ifs.vertices:
            for k in range(0, 5):
                direct = level_k_set(golden_ifs, u, k + 1)
                rebuilt = IntervalSet(tuple(
                    pair
                    for e in golden_ifs.out_edges(u)
                    for pair in level_k_set(golden_ifs, e.dst, k)
                    .apply(e.map).intervals))
                assert direct == rebuilt

    def test_escaping_hull_rejected(self):
        ifs = GraphIFS(("u",), (
            Edge("e1", "u", "u", Similarity(F(1, 2), F(0))),
            Edge("e2", "u", "u", Similarity(F(1, 4), F(9, 10))),
        ))
        assert level_k_set(ifs, "u", 0).intervals == ((F(0), F(1)),)
        for k in (1, 3):
            with pytest.raises(ValueError,
                               match=r"interval \[9/10, 23/20\] escapes"):
                level_k_set(ifs, "u", k)

    def test_cap_reports_path_count(self, golden_ifs, monkeypatch):
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 31)
        with pytest.raises(ResourceCapError,
                           match="32 paths of length 5 from 'u' exceed "
                                 "cap 31") as info:
            level_k_set(golden_ifs, "u", 5)
        assert info.value.bound == 32
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 32)
        assert len(level_k_set(golden_ifs, "u", 5)) == 32

    @pytest.mark.parametrize("call", [
        lambda ifs: level_k_set(ifs, "z", 0),
        lambda ifs: level_k_set(ifs, "z", 2),
        lambda ifs: refute_subset(ifs, "u", "z"),
        lambda ifs: refute_subset(ifs, "u", "z", 0),
        lambda ifs: model.path_count(ifs, "z", 3),
        lambda ifs: ifs.out_edges("z"),
        lambda ifs: model.simple_path(ifs, "z", "u"),
    ], ids=["level0", "level2", "refute", "refute-depth0", "path_count",
            "out_edges", "simple_path"])
    def test_unknown_vertex_rejected(self, golden_ifs, call):
        with pytest.raises(GraphStructureError,
                           match="unknown vertex 'z'"):
            call(golden_ifs)

    @pytest.mark.parametrize("call, match", [
        (lambda ifs: ifs.ladder.endpoints("u", -1), "level k must be >= 0"),
        (lambda ifs: endpoint_witnesses(ifs, "u", -1), "depth must be >= 0"),
        (lambda ifs: refute_subset(ifs, "u", "v", -1), "depth must be >= 0"),
    ], ids=["ladder-level", "witness-depth", "refute-depth"])
    def test_negative_level_or_depth_rejected(self, golden_ifs, call, match):
        with pytest.raises(ValueError, match=match):
            call(golden_ifs)

    def test_ladder_makes_each_level_set_once(self, golden_ifs,
                                              monkeypatch):
        counts = []
        real = attractor._check_path_cap
        monkeypatch.setattr(attractor, "_check_path_cap",
                            lambda *args: counts.append(args) or real(*args))
        ladder = LevelLadder(golden_ifs)
        first = ladder.endpoints("u", 5)
        assert ladder.endpoints("u", 5) is first
        assert counts == [(golden_ifs, "u", 5)] * 2  # every read is capped
        iset = level_k_set(golden_ifs, "u", 5)
        assert iset == level_k_set(golden_ifs, "u", 5)
        den = ladder.scale ** 5
        assert [p for pair in iset.intervals for p in pair] == [
            F(p, den) for p in first]

    def test_level_set_shares_the_ladder_list(self, golden_ifs):
        iset = level_k_set(golden_ifs, "u", 12)
        assert iset._flat is golden_ifs.ladder.endpoints("u", 12)
        # every vertex keeps 3/4 of each interval, in 2 ** 12 intervals
        assert len(iset) == 2 ** 12 and iset.total_length == F(3, 4) ** 12
        assert iset.contains(F(0)) and not iset.contains(F(3, 8))
        assert "intervals" not in vars(iset)  # no Fraction pair built
        assert iset.intervals[0] == (F(0), F(1, 4) ** 12)  # S_e1^12
        assert "intervals" in vars(iset)

    def test_ladder_cap_holds_at_every_level(self, golden_ifs, monkeypatch):
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 16)
        ladder = LevelLadder(golden_ifs)
        assert len(ladder.endpoints("u", 4)) == 2 * 16
        with pytest.raises(ResourceCapError) as info:
            ladder.endpoints("u", 5)
        assert info.value.bound == 32

    def test_ladder_cap_holds_at_every_vertex_built(self, monkeypatch):
        # u: a 1/4 loop and a 1/4 edge to w; w: 29 loops of ratio 1/64 and
        # a 1/64 edge to u.  u has 26,224 paths of length 4, under the cap,
        # but level 4 is built for w too, with 29 * 25,320 + 904 intervals.
        edges = [Edge("a", "u", "u", Similarity(F(1, 4), F(0))),
                 Edge("b", "u", "w", Similarity(F(1, 4), F(1, 2))),
                 Edge("x", "w", "u", Similarity(F(1, 64), F(58, 64)))]
        edges += [Edge(f"w{i:02d}", "w", "w",
                       Similarity(F(1, 64), F(2 * i, 64))) for i in range(29)]
        ifs = GraphIFS(("u", "w"), tuple(edges))
        assert cssc_check(ifs).ok
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 30000)
        ladder = LevelLadder(ifs)
        assert len(ladder.endpoints("u", 3)) == 2 * 904
        assert len(ladder.endpoints("w", 3)) == 2 * 25320
        with pytest.raises(ResourceCapError,
                           match="735184 intervals of level 4 at 'w' exceed "
                                 "cap 30000") as info:
            ladder.endpoints("u", 4)
        assert info.value.bound == 735184
        assert len(ladder._levels) == 4  # nothing of level 4 was kept


class TestCSSC:
    def test_golden_passes(self, golden_ifs):
        assert cssc_check(golden_ifs).ok

    def test_spanning_system_passes(self, spanning_pair):
        assert cssc_check(spanning_pair[0]).ok

    def test_overlap_detected(self, golden_params):
        p = golden_params
        ifs = GraphIFS(("u", "v"), (
            Edge("e1", "u", "u", Similarity(p.a, F(0))),
            Edge("e2", "u", "v", Similarity(p.b, F(1, 5))),
            Edge("e3", "v", "v", Similarity(p.c, F(0))),
            Edge("e4", "v", "u", Similarity(p.d, p.c + p.g_v)),
        ))
        report = cssc_check(ifs)
        assert not report.ok
        assert ("u", "e1", "e2") in report.violations

    def test_pass_implies_total_length_below_one(self, golden_ifs):
        for u in golden_ifs.vertices:
            assert level_k_set(golden_ifs, u, 1).total_length < 1


class TestEndpointPoints:
    def test_depth0(self, golden_ifs):
        assert endpoint_points(golden_ifs, "u", 0) == [F(0), F(1)]

    def test_depth1(self, golden_ifs):
        assert endpoint_points(golden_ifs, "u", 1) == [
            F(0), F(1, 4), F(1, 2), F(1)]

    def test_depth3_contains_11_16(self, golden_ifs):
        assert F(11, 16) in endpoint_points(golden_ifs, "u", 3)

    def test_ends_only_when_members(self, twin_ifs):
        assert endpoint_points(twin_ifs, "u", 0) == [F(1)]
        # S_e1(0) = 1/4 and S_e2(0) = 3/4 are left out: 0 is in no component
        assert endpoint_points(twin_ifs, "u", 1) == [F(1, 2), F(1)]

    def test_points_are_interval_endpoints(self, golden_ifs):
        for d in range(4):
            ends = set()
            for j in range(d + 1):
                for lo, hi in level_k_set(golden_ifs, "u", j).intervals:
                    ends |= {lo, hi}
            assert set(endpoint_points(golden_ifs, "u", d)) <= ends


class TestRefuteSubset:
    def test_golden_u_not_in_v(self, golden_ifs):
        r = refute_subset(golden_ifs, "u", "v", depth=3)
        assert r is not None
        # first witness under (target level, then point value) ordering
        assert r.witness_point == F(5, 8)
        assert r.witness_path.edges == ("e2", "e3", "e3")
        assert r.gap == (F(1, 2), F(3, 4))
        assert r.depths == (3, 1)
        assert replay_refutation(golden_ifs, "u", "v", r)

    def test_golden_v_not_in_u(self, golden_ifs):
        r = refute_subset(golden_ifs, "v", "u", depth=3)
        assert r is not None
        assert replay_refutation(golden_ifs, "v", "u", r)

    def test_nested_containment_unrefutable(self, nested_ifs):
        assert refute_subset(nested_ifs, "u", "v", depth=6) is None

    def test_nested_reverse_refutable(self, nested_ifs):
        r = refute_subset(nested_ifs, "v", "u", depth=6)
        assert r is not None and replay_refutation(nested_ifs, "v", "u", r)

    def test_reflected_variant(self, golden_ifs):
        r = refute_subset(golden_ifs, "u", "v", depth=4, reflected=True)
        assert r is not None and r.reflected
        assert replay_refutation(golden_ifs, "u", "v", r)
        # tampering is caught
        assert not replay_refutation(golden_ifs, "v", "u", r)

    def test_same_vertex_rejected(self, golden_ifs):
        with pytest.raises(ValueError):
            refute_subset(golden_ifs, "u", "u", depth=2)

    @pytest.mark.parametrize("target, expected", [
        # 1/3 = S_e1(1) = S_e2(1) = S_e1 S_e3(1): the shortest path first
        ((F(1, 4), F(0), F(1, 4), F(3, 4)),
         (F(1, 3), ("e1",), F(1), (F(1, 4), F(3, 4)))),
        # 2/9 = S_e1 S_e3(0) = S_e2 S_e3(0): then edge-id order
        ((F(1, 5), F(0), F(7, 10), F(3, 10)),
         (F(2, 9), ("e1", "e3"), F(0), (F(1, 5), F(3, 10)))),
    ], ids=["shortest", "edge-id-order"])
    def test_preferred_witness_path(self, target, expected):
        r1, o1, r2, o2 = target
        ifs = GraphIFS(("u", "v"), (
            Edge("e1", "u", "u", Similarity(F(1, 3), F(0))),
            Edge("e2", "u", "u", Similarity(F(1, 3), F(0))),
            Edge("e3", "u", "u", Similarity(F(1, 3), F(2, 3))),
            Edge("e4", "v", "v", Similarity(r1, o1)),
            Edge("e5", "v", "v", Similarity(r2, o2)),
        ))
        r = refute_subset(ifs, "u", "v", depth=2)
        assert (r.witness_point, r.witness_path.edges, r.endpoint,
                r.gap) == expected
        assert r.depths == (len(expected[1]), 1)

    def test_preferred_witness_past_a_lower_hull(self):
        # 1/2 = S_e1(0) = S_e2(1): the hull of e2 starts lower, at 0, but
        # e1 comes first in edge-id order, so the search must go on to the
        # hull that starts at 1/2 itself
        ifs = GraphIFS(("u", "v"), (
            Edge("e1", "u", "u", Similarity(F(1, 2), F(1, 2))),
            Edge("e2", "u", "u", Similarity(F(1, 2), F(0))),
            Edge("e3", "v", "v", Similarity(F(1, 3), F(0))),
            Edge("e4", "v", "v", Similarity(F(1, 3), F(2, 3))),
        ))
        r = refute_subset(ifs, "u", "v", depth=2)
        assert (r.witness_point, r.witness_path.edges, r.endpoint,
                r.gap, r.depths) == (F(1, 2), ("e1",), F(0),
                                     (F(1, 3), F(2, 3)), (1, 1))

    def test_non_member_endpoint_is_no_witness(self, twin_ifs):
        for u, v in (("u", "v"), ("v", "u")):
            assert refute_subset(twin_ifs, u, v, depth=6) is None

    @pytest.mark.parametrize("cap, call, bound, where", [
        (31, lambda g, n: refute_subset(g, "u", "v", 8), 32,
         "length 5 from 'u'"),
        (1000, lambda g, n: refute_subset(n, "u", "v", 8), 1393,
         "length 8 from 'v'"),
        (255, lambda g, n: classify_gap_condition(g, "u", 8), 256,
         "length 8 from 'u'"),
        (100, lambda g, n: classify_gap_condition(n, "v", 8), 239,
         "length 6 from 'v'"),
    ], ids=["refute-source", "refute-target", "classify-golden",
            "classify-nested"])
    def test_cap_fires_at_the_same_bound(self, golden_ifs, nested_ifs,
                                         monkeypatch, cap, call, bound,
                                         where):
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", cap)
        with pytest.raises(ResourceCapError,
                           match=f"{bound} paths of {where}") as info:
            call(golden_ifs, nested_ifs)
        assert info.value.bound == bound


class TestReplayRefutation:
    """Each forgery below keeps every other check of golden's depth-3
    refutation of F_u in F_v: S_e2 S_e3 S_e3(1) = 5/8 lies in the gap
    (1/2, 3/4) of F_v^1.  Replay turns each down without raising."""

    @pytest.fixture
    def valid(self, golden_ifs):
        r = refute_subset(golden_ifs, "u", "v", depth=3)
        assert r == SubsetRefutation(F(5, 8), Path(("e2", "e3", "e3")), F(1),
                                     (F(1, 2), F(3, 4)), (3, 1))
        assert replay_refutation(golden_ifs, "u", "v", r)
        return r

    @pytest.mark.parametrize("u, changes", [
        # S_e2 S_e1 S_e3(1) = 9/16, but e1 leaves u, not v
        ("u", dict(witness_point=F(9, 16),
                   witness_path=Path(("e2", "e1", "e3")))),
        ("u", dict(witness_path=Path(("e2", "e9", "e3")))),
        ("v", {}),  # the path's first edge leaves u, not the source v
        ("z", {}),  # no vertex z, so no edge leaves it
        ("u", dict(endpoint=F(3, 2))),  # int(3/2) = 1 would match
        ("u", dict(witness_point=F(5, 8) + F(1, 10**9))),
        ("u", dict(gap=(F(1, 2), F(11, 16)))),  # inside the gap, not one
        ("u", dict(depths=(3, 0))),
    ], ids=["non-consecutive", "unknown-edge", "first-edge-not-from-u",
            "unknown-source", "endpoint-not-0-or-1", "moved-point",
            "not-a-ladder-gap", "target-level-0"])
    def test_forgery_fails_replay(self, golden_ifs, valid, u, changes):
        forged = dataclasses.replace(valid, **changes)
        assert not replay_refutation(golden_ifs, u, "v", forged)

    def test_witness_path_over_the_cap_raises(self, golden_ifs, valid,
                                              monkeypatch):
        # u has 2^3 paths of length 3, so a cap of 7 refuses the path
        # before replay composes it, as it would refuse to search it
        monkeypatch.setattr(model, "DEFAULT_PATH_CAP", 7)
        with pytest.raises(ResourceCapError,
                           match="8 paths of length 3 from 'u' exceed cap 7"):
            replay_refutation(golden_ifs, "u", "v", valid)
        with pytest.raises(ResourceCapError):
            refute_subset(golden_ifs, "u", "v", depth=3)


class TestComponentsEqual:
    def test_golden_distinct(self, golden_params):
        assert not components_equal(golden_params)

    def test_equal_case(self):
        p = DoubleLoopParams(F(1, 4), F(1, 4), F(1, 2),
                             F(1, 4), F(1, 4), F(1, 2))
        assert components_equal(p)

    def test_b_differs(self):
        p = DoubleLoopParams(F(1, 3), F(1, 3), F(1, 3),
                             F(1, 3), F(5, 12), F(1, 4))
        assert not components_equal(p)
