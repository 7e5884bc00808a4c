"""Moran matrix, spectral radius, dimension solvers."""

import collections
import itertools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_iv import MPIntervalContext

from graphifs import (
    DoubleLoopParams,
    Edge,
    GraphIFS,
    NumericError,
    Similarity,
    double_loop_char_root,
    double_loop_ifs,
    hausdorff_dimension,
    moran_matrix,
    no_loop_ifs,
    spectral_radius,
)
from graphifs import dimension
from graphifs.dimension import MoranMatrix
from conftest import double_loop_params, gen, random_double_loop_params

F = Fraction

GOLDEN_S = mpmath.log((mpmath.sqrt(5) - 1) / 2) / mpmath.log(mpmath.mpf(1) / 2)


class TestMoranMatrix:
    def test_t0_counts_edges(self, golden_ifs):
        m = moran_matrix(golden_ifs, 0)
        assert m.entries == ((1, 1), (1, 1))

    def test_t1_ratios(self, golden_ifs):
        m = moran_matrix(golden_ifs, 1)
        assert m.entries == ((mpmath.mpf(1) / 4, mpmath.mpf(1) / 2),
                             (mpmath.mpf(1) / 4, mpmath.mpf(1) / 2))

    def test_t2_squares(self, golden_ifs):
        m = moran_matrix(golden_ifs, 2)
        assert m.entries[0][0] == mpmath.mpf(1) / 16
        assert m.entries[1][1] == mpmath.mpf(1) / 4

    def test_t1_non_dyadic_ratios_exact(self):
        # 3/10 and 7/20 as in gap_spanning: exp(log(7/20)) in working
        # precision is one unit off 7/20, so A(1) must be built from r^1
        edges = [Edge(f"e{i}", u, v, Similarity(r, F(0)))
                 for i, (u, v, r) in enumerate([("u", "u", F(3, 10)),
                                                ("u", "v", F(7, 20)),
                                                ("v", "u", F(7, 20)),
                                                ("v", "v", F(3, 10))])]
        m = moran_matrix(GraphIFS(("u", "v"), tuple(edges)), 1)
        r, q = mpmath.mpf(3) / 10, mpmath.mpf(7) / 20
        assert m.entries == ((r, q), (q, r))

    def test_parallel_edges_summed(self, golden_params):
        m = moran_matrix(no_loop_ifs(golden_params), 1)
        assert m.entries[0][1] == mpmath.mpf(3) / 4  # a + b
        assert m.entries[0][0] == 0


class TestSpectralRadius:
    def test_rank_one(self):
        m = MoranMatrix(("u", "v"), ((mpmath.mpf(1), mpmath.mpf(1)),
                                     (mpmath.mpf(1), mpmath.mpf(1))))
        assert abs(spectral_radius(m) - 2) < 1e-25

    @pytest.mark.parametrize("rows", [((1, 1), (1, 1)),
                                      ((1, 1), (F(1, 2), F(3, 2)))])
    def test_row_sum_exact(self, rows):
        # every row sums to 2, so rho is 2 and the row sum comes back as is
        m = MoranMatrix(("u", "v"), tuple(
            tuple(dimension._to_mpf(x) for x in row) for row in rows))
        rho = spectral_radius(m)
        assert isinstance(rho, dimension.mpf) and rho == 2

    def test_one_by_one(self):
        m = MoranMatrix(("u",), ((mpmath.mpf(1) / 2,),))
        assert abs(spectral_radius(m) - mpmath.mpf(1) / 2) < 1e-25

    def test_periodic_matrix_converges(self):
        # Off-diagonal-only matrices make an unshifted power iteration
        # oscillate; the pivot test does not iterate on the matrix at all.
        m = MoranMatrix(("u", "v"), ((mpmath.mpf(0), mpmath.mpf(1) / 2),
                                     (mpmath.mpf(1) / 3, mpmath.mpf(0))))
        expected = mpmath.sqrt(mpmath.mpf(1) / 6)
        assert abs(spectral_radius(m) - expected) < 1e-25

    def test_reducible_defective_matrix(self):
        # A Jordan block: no positive eigenvector, so a power iteration
        # converges only like 1/k and never reaches working precision.
        m = MoranMatrix(("u", "v"), ((mpmath.mpf(1) / 2, mpmath.mpf(1)),
                                     (mpmath.mpf(0), mpmath.mpf(1) / 2)))
        assert abs(spectral_radius(m) - mpmath.mpf(1) / 2) < 1e-25

    def test_unity_at_dimension(self, golden_ifs):
        rho = spectral_radius(moran_matrix(golden_ifs, GOLDEN_S))
        assert abs(rho - 1) < 1e-9


def proven(ifs, bracket):
    """Whether Gaussian elimination of I - A(t) in a private 50-digit
    interval context, with outward rounding, proves rho(A(lo)) >= 1 (a
    pivot interval at or below 0) and rho(A(hi)) < 1 (every pivot interval
    above 0) for bracket (lo, hi)."""
    iv = MPIntervalContext()
    iv.dps = 50
    index = {v: i for i, v in enumerate(ifs.vertices)}

    def below(t):
        rows = [[iv.mpf(int(i == j)) for j in index] for i in index]
        for e in ifs.edges:
            r = iv.mpf(e.map.ratio.numerator) / e.map.ratio.denominator
            rows[index[e.src]][index[e.dst]] -= iv.exp(iv.mpf(t) * iv.log(r))
        for k, pivot_row in enumerate(rows):
            pivot = pivot_row[k]
            if not pivot > 0:
                return False if pivot <= 0 else None
            for row in rows[k + 1:]:
                factor = row[k] / pivot
                for j in range(k + 1, len(rows)):
                    row[j] -= factor * pivot_row[j]
        return True

    lo, hi = bracket
    return below(lo) is False and below(hi) is True


class TestHausdorffDimension:
    @pytest.mark.parametrize("tol", [1e-12, 1e-30, 1e-39])
    def test_golden(self, golden_ifs, tol):
        result = hausdorff_dimension(golden_ifs, tol)
        assert abs(result.s - GOLDEN_S) <= tol
        lo, hi = result.bracket
        assert hi - lo <= tol

    @pytest.mark.parametrize("tol", [1e-12, 1e-30])
    def test_half_dimension_instance(self, tol):
        # s = 1/2 exactly: a step that lands on the root itself, whose
        # last pivot is 0, ends the solve there (at tol 1e-30 the third
        # step does), and the proof moves both ends off it, instead of
        # halving down to tol.
        p = DoubleLoopParams(F(1, 4), F(1, 2), F(1, 4),
                             F(1, 4), F(1, 2), F(1, 4))
        result = hausdorff_dimension(double_loop_ifs(p), tol)
        assert abs(result.s - mpmath.mpf(1) / 2) < 1e-9
        lo, hi = result.bracket
        assert lo < mpmath.mpf(1) / 2 < hi
        assert hi - lo <= tol
        assert result.iterations <= 12

    def test_spanning_system_self_consistent(self, spanning_pair):
        ifs, _s = spanning_pair
        result = hausdorff_dimension(ifs)
        assert 0 < result.s < 1
        assert abs(spectral_radius(moran_matrix(ifs, result.s)) - 1) < 1e-9

    def test_no_loop_variant(self, golden_params):
        result = hausdorff_dimension(no_loop_ifs(golden_params))
        assert 0 < result.s < 1

    def test_iteration_count_scales_with_tol(self, golden_ifs):
        coarse = hausdorff_dimension(golden_ifs, tol=1e-6)
        fine = hausdorff_dimension(golden_ifs, tol=1e-12)
        assert fine.iterations <= 2 * coarse.iterations + 2

    def test_ratios_converted_once_per_solve(self, golden_ifs, monkeypatch):
        solves = []
        real_moran = dimension._moran

        def counted_moran(ifs):
            solves.append(ifs)
            return real_moran(ifs)

        monkeypatch.setattr(dimension, "_moran", counted_moran)
        result = hausdorff_dimension(golden_ifs)
        assert result.iterations <= 12
        assert solves == [golden_ifs]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generated_systems_proven_in_few_steps(self, n):
        rng = random.Random(f"dimension-{n}")
        for _ in range(5):
            ifs = gen.draw_cssc(rng, n)
            result = hausdorff_dimension(ifs)
            assert result.iterations <= 12
            lo, hi = result.bracket
            assert hi - lo <= 1e-12
            # re-prove by interval elimination, independent of the library
            assert proven(ifs, result.bracket)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_proof_bounds_hold_the_powers(self, n):
        # enclose's lower bounds of A(lo) and upper bounds of A(hi) lie on
        # their sides of the sums of r^t taken at 80 digits; below t = 0
        # the lower bound is A(0), the edge counts
        rng = random.Random(f"enclose-{n}")
        for _ in range(5):
            ifs = gen.draw_cssc(rng, n)
            lo, hi = hausdorff_dimension(ifs).bracket
            enclose = dimension._moran(ifs)[1]
            low, up = enclose(lo, hi)
            with mpmath.workdps(80):
                for bound, t, side in ((low, lo, 1), (up, hi, -1)):
                    exact = collections.Counter()
                    for e in ifs.edges:
                        r = mpmath.mpf(e.map.ratio.numerator)
                        r /= e.map.ratio.denominator
                        exact[e.src, e.dst] += r ** mpmath.mpf(t)
                    for i, u in enumerate(ifs.vertices):
                        for j, v in enumerate(ifs.vertices):
                            x = bound.entries[i][j]
                            x = mpmath.mpf(x.numerator) / x.denominator
                            assert side * (exact[u, v] - x) >= 0
                            assert abs(exact[u, v] - x) < 2**-150 * n
            counts = moran_matrix(ifs, 0).entries
            assert enclose(-lo, hi)[0].entries == counts

    @pytest.mark.parametrize("which", [0, -1])
    def test_unproven_bracket_raises(self, golden_ifs, monkeypatch, which):
        # Bounds of A(lo) divided by 4 have rho < 1, and bounds of A(hi)
        # times 4 have rho > 1: the exact proof of that end fails, before
        # and after the widening, so no bracket may come back.
        real_moran = dimension._moran

        def weakened(ifs):
            at, enclose, estimate = real_moran(ifs)

            def bad_enclose(lo, hi):
                bounds = list(enclose(lo, hi))
                m, scale = bounds[which], F(1, 4) if which == 0 else 4
                bounds[which] = MoranMatrix(m.vertices, tuple(
                    tuple(x * scale for x in row) for row in m.entries))
                return bounds

            return at, bad_enclose, estimate

        monkeypatch.setattr(dimension, "_moran", weakened)
        with pytest.raises(NumericError, match="could not prove"):
            hausdorff_dimension(golden_ifs)


@pytest.fixture
def eliminations(monkeypatch):
    """The matrices that _at_or_above eliminates, by entry type: float,
    the library's mpf or Fraction."""
    calls = collections.defaultdict(list)
    real = dimension._at_or_above

    def counted(m, lam):
        calls[type(m.entries[0][0])].append(m)
        return real(m, lam)

    monkeypatch.setattr(dimension, "_at_or_above", counted)
    return calls


class TestFloatStart:
    """The mpf Illinois steps start from the float estimate of s, itself
    found by Illinois steps in floats, widened by 2^-40 on each side,
    kept only when the mpf pivot test confirms that it holds s, and from
    [0, 1] otherwise."""

    def test_golden_builds_three_matrices(self, golden_ifs, eliminations):
        # the two ends of the start bracket and one Illinois step, where a
        # solve from [0, 1] builds 11; the float estimate takes Illinois
        # steps too, where halving to the last bit took 53
        result = hausdorff_dimension(golden_ifs, 1e-12)
        assert len(eliminations[dimension.mpf]) <= 3
        assert len(eliminations[float]) <= 16
        assert result.iterations == 1

    @pytest.mark.parametrize("offset", ["0.25", "-0.25", "1e-13", "-1e-13",
                                        "1e-20", "-1e-20"])
    def test_far_estimate_falls_back(self, golden_ifs, monkeypatch, offset):
        # 0.25 off, the pivot test rejects the start bracket, and the
        # solve builds A(0) and A(1) for [0, 1]; 1e-13 or 1e-20 off, the
        # start bracket still holds s
        expected = hausdorff_dimension(golden_ifs).bracket
        ts, real_moran = [], dimension._moran

        def recorded(ifs):
            at, enclose, estimate = real_moran(ifs)

            def at_t(t):
                ts.append(t)
                return at(t)

            return at_t, enclose, lambda: estimate() + float(offset)

        monkeypatch.setattr(dimension, "_moran", recorded)
        result = hausdorff_dimension(golden_ifs)
        assert (0 in ts and 1 in ts) == (abs(float(offset)) == 0.25)
        lo, hi = result.bracket
        assert hi - lo <= 1e-12
        assert proven(golden_ifs, result.bracket)
        assert max(lo, expected[0]) <= min(hi, expected[1])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_estimate_within_start_bracket(self, n, eliminations):
        # on generated systems the float estimate lies within 2^-40 of the
        # proven bracket, and no solve falls back to [0, 1]: the mpf
        # eliminations are the two start ends and one per Illinois step
        rng = random.Random(f"estimate-{n}")
        for _ in range(20):
            ifs = gen.draw_cssc(rng, n)
            e = dimension._moran(ifs)[2]()
            eliminations[dimension.mpf].clear()
            result = hausdorff_dimension(ifs)
            lo, hi = result.bracket
            assert lo - 2**-40 <= e <= hi + 2**-40
            assert len(eliminations[dimension.mpf]) == 2 + result.iterations

    @pytest.mark.parametrize("tol", [1e-12, 1e-30, *(
        pytest.param(tol, marks=pytest.mark.xfail(
            raises=NumericError, strict=True,
            reason="the exact proof of an end fails below 1e-30 (ROADMAP "
                   "item 17)")) for tol in (1e-31, 1e-39))])
    def test_near_edge_loop(self, tol):
        # a = c = 10^-12, b = d = 1 - 2*10^-12: the float pivot test loses
        # its sign to cancellation near s, and the solve must still come
        # back with a proven bracket
        q = 10**12
        p = DoubleLoopParams(F(1, q), F(1, q), F(q - 2, q),
                             F(1, q), F(1, q), F(q - 2, q))
        ifs = double_loop_ifs(p)
        lo, hi = hausdorff_dimension(ifs, tol).bracket
        assert hi - lo <= tol
        assert proven(ifs, (lo, hi))

    def test_nilpotent_at_zero_raises(self, eliminations):
        # u -> v and no way back: A(0) is nilpotent, so rho(A(0)) = 0, and
        # the float test at 0 sends the solve to [0, 1] at once, where
        # halving took 1,074 float steps down to 0.0
        ifs = GraphIFS(("u", "v"),
                       (Edge("e1", "u", "v", Similarity(F(1, 2), F(0))),))
        with pytest.raises(NumericError, match=r"rho\(A\(0\)\) < 1"):
            hausdorff_dimension(ifs)
        assert len(eliminations[float]) <= 2

    def test_overfull_at_one_raises(self):
        # two 3/4 loops at one vertex: A(1) = 3/2
        ifs = GraphIFS(("u",),
                       (Edge("e1", "u", "u", Similarity(F(3, 4), F(0))),
                        Edge("e2", "u", "u", Similarity(F(3, 4), F(1, 4)))))
        with pytest.raises(NumericError, match=r"rho\(A\(1\)\) >= 1"):
            hausdorff_dimension(ifs)


class TestCharacteristicRoot:
    def test_golden_agrees(self, golden_params, golden_ifs):
        root = double_loop_char_root(golden_params)
        assert abs(root - GOLDEN_S) < 2e-12
        assert abs(root - hausdorff_dimension(golden_ifs).s) <= 2e-12

    @pytest.mark.parametrize("tol", [1e-12, 1e-30])
    def test_golden_within_half_tol(self, golden_params, tol):
        root = double_loop_char_root(golden_params, tol)
        assert abs(root - GOLDEN_S) <= tol / 2

    def test_half(self):
        p = DoubleLoopParams(F(1, 4), F(1, 2), F(1, 4),
                             F(1, 4), F(1, 2), F(1, 4))
        assert abs(double_loop_char_root(p) - mpmath.mpf(1) / 2) < 2e-12

    def test_reduced_case_is_single_ifs_equation(self):
        # a=c, b=d: the root solves a^t + b^t = 1.
        p = DoubleLoopParams(F(1, 3), F(1, 3), F(1, 3),
                             F(1, 3), F(1, 3), F(1, 3))
        t = double_loop_char_root(p)
        third = mpmath.mpf(1) / 3
        assert abs(third**t + third**t - 1) < 1e-9

    def test_tiny_ratio(self):
        # math.log(Fraction(1, 10**400)) raises "math domain error"; the
        # estimate takes its logs in mpf
        q = 10**400
        p = DoubleLoopParams(F(1, q), F(1, 2) - F(1, q), F(1, 2),
                             F(1, 4), F(1, 2), F(1, 4))
        lo, hi = hausdorff_dimension(double_loop_ifs(p)).bracket
        assert lo - 1e-12 <= double_loop_char_root(p) <= hi + 1e-12

    def test_cross_check_on_random_instances(self):
        rng = random.Random(31415)
        for _ in range(10):
            params = random_double_loop_params(rng)
            s1 = hausdorff_dimension(double_loop_ifs(params)).s
            s2 = double_loop_char_root(params)
            assert abs(s1 - s2) <= 2e-12


def reference_char_root(params, tol):
    """The char root by halving [0, 1] on the sign of f, evaluating f at
    every step."""
    a, b, c, d = (dimension._to_mpf(r)
                  for r in (params.a, params.b, params.c, params.d))

    def f(t):
        return (a**t - 1) * (c**t - 1) - (b**t) * (d**t)

    steps = dimension._bracket(lambda t: (f(t) < 0, None), mpmath.mpf(0),
                               mpmath.mpf(1), dimension._to_mpf(tol))
    assert steps is not None  # f(0) < 0 <= f(1)
    return (steps[0] + steps[1]) / 2


TOLS = [1e-12, 1e-30, 1e-39]
HALF = DoubleLoopParams(F(1, 4), F(1, 2), F(1, 4), F(1, 4), F(1, 2), F(1, 4))


@pytest.fixture
def powers(monkeypatch):
    """A list that grows by one at each power of the library's mpf: f
    takes four, and the float estimate of the root takes none."""
    calls, power = [], dimension.mpf.__pow__

    def counted(x, y):
        calls.append(y)
        return power(x, y)

    monkeypatch.setattr(dimension.mpf, "__pow__", counted)
    return calls


class TestFencedHalving:
    """The char root's Illinois steps start inside a fence: the float
    halving's estimate of the root, widened by 2^-40 on each side, kept
    only when f changes sign across it.  Each root must lie within tol of
    the one that halving on f alone gives, as both lie within tol/2 of
    the root of the computed f."""

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("max_denominator", [64, 10**12])
    def test_matches_reference_on_seeded_loops(self, tol, max_denominator):
        rng = random.Random(f"fence-{max_denominator}")
        for _ in range(8):
            params = random_double_loop_params(rng, max_denominator)
            root = double_loop_char_root(params, tol)
            assert abs(root - reference_char_root(params, tol)) <= tol

    @pytest.mark.parametrize("tol", TOLS)
    def test_matches_reference_near_the_edges(self, tol):
        # rows with a ratio or the gap within 2 * 10^-12 of 1: a^t - 1
        # cancels, or b^t d^t is tiny, and f can be ill-conditioned.  On
        # a = c = 10^-12, 40-digit f is too flat to place the root closer
        # than about 1e-31, so 1e-39 is held to the 1e-30 bound.
        q = 10**12
        rows = [(F(q - 2, q), F(1, q), F(1, q)),
                (F(1, q), F(1, q), F(q - 2, q)),
                (F(1, q), F(q - 2, q), F(1, q))]
        for u, v in itertools.product(rows, repeat=2):
            params = DoubleLoopParams(*u, *v)
            root = double_loop_char_root(params, tol)
            assert (abs(root - reference_char_root(params, tol))
                    <= max(tol, 1e-30))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.one_of(double_loop_params(), double_loop_params(10**12)),
           st.sampled_from(TOLS))
    def test_matches_reference(self, params, tol):
        root = double_loop_char_root(params, tol)
        assert abs(root - reference_char_root(params, tol)) <= tol

    @pytest.mark.parametrize("tol", TOLS)
    def test_exact_root_at_half(self, tol):
        # every ratio 1/4: f(1/2) = (1/2 - 1)^2 - 1/4 is exactly 0
        half = mpmath.mpf(1) / 2
        quarter = mpmath.mpf(1) / 4
        assert (quarter**half - 1) ** 2 - quarter**half * quarter**half == 0
        assert abs(double_loop_char_root(HALF, tol) - half) <= tol / 2

    def test_golden_evaluates_f_four_times(self, golden_params, powers):
        reference_char_root(golden_params, 1e-12)
        assert len(powers) == 4 * 42
        powers.clear()
        double_loop_char_root(golden_params, 1e-12)
        assert len(powers) <= 4 * 4

    @pytest.mark.parametrize("offset", ["0.25", "-0.25", "1e-20", "-1e-20"])
    def test_far_estimate_drops_fence(self, golden_params, powers,
                                      monkeypatch, offset):
        # 0.25 off, f has one sign across the fence, which is dropped for
        # [0, 1]; 1e-20 off, the fence still holds the root
        estimate = dimension._char_root_estimate

        def far(*ratios):
            return estimate(*ratios) + float(offset)

        monkeypatch.setattr(dimension, "_char_root_estimate", far)
        root = double_loop_char_root(golden_params, 1e-12)
        assert (0 in powers) == (abs(float(offset)) == 0.25)
        assert abs(root - reference_char_root(golden_params, 1e-12)) <= 1e-12


def _unreachable(*_args):
    raise AssertionError("reached past the tolerance check")


class _UnreadParams:
    """Stands in for DoubleLoopParams and fails on any field read."""

    def __getattr__(self, name):
        _unreachable()


class TestTolerance:
    """A non-positive tol can never end a bisection, and a NaN tol or one of
    1 or more ends it before its first step, so all are rejected before any
    work; these tests fail at once, not by hanging, if the check goes
    missing."""

    @pytest.mark.parametrize("tol", [0, 0.0, -1e-12, -1, float("nan")])
    def test_hausdorff_dimension_rejects(self, golden_ifs, monkeypatch, tol):
        monkeypatch.setattr(dimension, "_moran", _unreachable)
        with pytest.raises(ValueError, match="tol must be positive"):
            hausdorff_dimension(golden_ifs, tol=tol)

    @pytest.mark.parametrize("tol", [0, 0.0, -1e-12, -1, float("nan")])
    def test_char_root_rejects(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            double_loop_char_root(_UnreadParams(), tol=tol)

    # a tol of 1 or more ends the solve before its first step, and s was
    # reported as 1/2, the midpoint of [0, 1]
    @pytest.mark.parametrize("tol", [1, 1.0, 2, F(3, 2), float("inf")])
    def test_hausdorff_dimension_rejects_tol_from_one(self, golden_ifs,
                                                      monkeypatch, tol):
        monkeypatch.setattr(dimension, "_moran", _unreachable)
        with pytest.raises(ValueError, match="tol must be below 1"):
            hausdorff_dimension(golden_ifs, tol=tol)

    @pytest.mark.parametrize("tol", [1, 1.0, 2, F(3, 2), float("inf")])
    def test_char_root_rejects_tol_from_one(self, tol):
        with pytest.raises(ValueError, match="tol must be below 1"):
            double_loop_char_root(_UnreadParams(), tol=tol)

    def test_tol_just_below_one_takes_a_step(self, golden_ifs, golden_params):
        # the float start bracket is already below tol, so the solve may
        # take no Illinois step, but it must not report 1/2, the midpoint
        # of [0, 1]
        result = hausdorff_dimension(golden_ifs, tol=0.99)
        lo, hi = result.bracket
        assert lo <= GOLDEN_S <= hi
        assert hi - lo <= 0.99
        assert result.s != mpmath.mpf(1) / 2
        s = double_loop_char_root(golden_params, 0.99)
        assert abs(s - GOLDEN_S) <= 0.99 / 2


class TestBracketing:
    @pytest.mark.parametrize("lo_holds, hi_holds",
                             [(False, False), (False, True), (True, True)])
    def test_unbracketed_start_returns_none(self, lo_holds, hi_holds):
        # both ends are decided, and no step is taken when either is wrong
        calls = []

        def decide(x):
            calls.append(x)
            return (lo_holds if x == 0 else hi_holds), None

        assert dimension._bracket(decide, mpmath.mpf(0), mpmath.mpf(1),
                                  mpmath.mpf(10) ** -12) is None
        assert calls == [0, 1]

    def test_random_instances_bracket(self):
        rng = random.Random(2718)
        for _ in range(10):
            ifs = double_loop_ifs(random_double_loop_params(rng))
            assert spectral_radius(moran_matrix(ifs, 0)) >= 2
            assert spectral_radius(moran_matrix(ifs, 1)) < 1

    def test_monotone_decreasing(self, golden_ifs):
        grid = [mpmath.mpf(i) / 10 for i in range(11)]
        values = [spectral_radius(moran_matrix(golden_ifs, t)) for t in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_t_rejected(self, golden_ifs):
        with pytest.raises(ValueError):
            moran_matrix(golden_ifs, -1)
