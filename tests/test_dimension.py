"""Moran matrix, spectral radius, dimension solvers."""

import itertools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from graphifs import (
    DoubleLoopParams,
    NumericError,
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

    def test_parallel_edges_summed(self, golden_params):
        m = moran_matrix(no_loop_ifs(golden_params), 1)
        assert m.entries[0][1] == mpmath.mpf(3) / 4  # a + b
        assert m.entries[0][0] == 0


class TestSpectralRadius:
    def test_rank_one(self):
        m = MoranMatrix(("u", "v"), ((mpmath.mpf(1), mpmath.mpf(1)),
                                     (mpmath.mpf(1), mpmath.mpf(1))))
        assert abs(spectral_radius(m) - 2) < 1e-25

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


class TestHausdorffDimension:
    @pytest.mark.parametrize("tol", [1e-12, 1e-30, 1e-39])
    def test_golden(self, golden_ifs, tol):
        result = hausdorff_dimension(golden_ifs, tol)
        assert abs(result.s - GOLDEN_S) <= tol
        lo, hi = result.bracket
        assert hi - lo <= tol

    @pytest.mark.parametrize("tol", [1e-12, 1e-30])
    def test_half_dimension_instance(self, tol):
        # s = 1/2 exactly: the first step lands on the root itself, whose
        # last pivot is 0, so the solve ends there and the proof moves
        # both ends off it, instead of halving down to tol.
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
            # re-prove at the precision the solve left the proof context at
            enclose = dimension._moran(ifs)[1]
            proofs = [dimension._below(m, 1) for m in enclose(lo, hi)]
            assert proofs == [False, True]

    @pytest.mark.parametrize("which", [0, -1])
    def test_unproven_bracket_raises(self, golden_ifs, monkeypatch, which):
        # An interval elimination whose first or last pivot straddles 0
        # proves neither end, so no bracket may come back.
        real_pivots = dimension._pivots

        def straddling(m, lam):
            if not isinstance(m.entries[0][0], dimension._IV.mpf):
                return real_pivots(m, lam)
            pivots = list(real_pivots(m, lam))
            pivots[which] = dimension._IV.mpf([-1, 1])
            return iter(pivots)

        monkeypatch.setattr(dimension, "_pivots", straddling)
        with pytest.raises(NumericError, match="could not prove"):
            hausdorff_dimension(golden_ifs)


class TestCharacteristicRoot:
    def test_golden_agrees(self, golden_params, golden_ifs):
        root = double_loop_char_root(golden_params)
        assert abs(root - GOLDEN_S) < 2e-12
        assert abs(root - hausdorff_dimension(golden_ifs).s) <= 2e-12

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

    def test_cross_check_on_random_instances(self):
        rng = random.Random(31415)
        for _ in range(10):
            params = random_double_loop_params(rng)
            s1 = hausdorff_dimension(double_loop_ifs(params)).s
            s2 = double_loop_char_root(params)
            assert abs(s1 - s2) <= 2e-12


def reference_char_root(params, tol):
    """double_loop_char_root before the fence: halve [0, 1] on the sign of
    f, evaluating f at every step."""
    a, b, c, d = (dimension._to_mpf(r)
                  for r in (params.a, params.b, params.c, params.d))

    def f(t):
        return (a**t - 1) * (c**t - 1) - (b**t) * (d**t)

    assert f(0) < 0 < f(1)
    lo, hi, _ = dimension._bracket(lambda t: (f(t) < 0, None), mpmath.mpf(0),
                                   mpmath.mpf(1), dimension._to_mpf(tol))
    return (lo + hi) / 2


TOLS = [1e-12, 1e-30, 1e-39]
HALF = DoubleLoopParams(F(1, 4), F(1, 2), F(1, 4), F(1, 4), F(1, 2), F(1, 4))


@pytest.fixture
def powers(monkeypatch):
    """A list that grows by one at each mpf power: f takes four, and the
    estimate behind the fence takes none."""
    calls, power = [], mpmath.mpf.__pow__

    def counted(x, y):
        calls.append(y)
        return power(x, y)

    monkeypatch.setattr(mpmath.mpf, "__pow__", counted)
    return calls


class TestFencedHalving:
    """The fence answers the halving's steps far from the root without f,
    and the root must come out as the mpf that halving on f alone gives."""

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("max_denominator", [64, 10**12])
    def test_matches_reference_on_seeded_loops(self, tol, max_denominator):
        rng = random.Random(f"fence-{max_denominator}")
        for _ in range(8):
            params = random_double_loop_params(rng, max_denominator)
            assert (double_loop_char_root(params, tol)
                    == reference_char_root(params, tol))

    @pytest.mark.parametrize("tol", TOLS)
    def test_matches_reference_near_the_edges(self, tol):
        # rows with a ratio or the gap within 2 * 10^-12 of 1: a^t - 1
        # cancels, or b^t d^t is tiny, and f can be ill-conditioned
        q = 10**12
        rows = [(F(q - 2, q), F(1, q), F(1, q)),
                (F(1, q), F(1, q), F(q - 2, q)),
                (F(1, q), F(q - 2, q), F(1, q))]
        for u, v in itertools.product(rows, repeat=2):
            params = DoubleLoopParams(*u, *v)
            assert (double_loop_char_root(params, tol)
                    == reference_char_root(params, tol))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.one_of(double_loop_params(), double_loop_params(10**12)),
           st.sampled_from(TOLS))
    def test_matches_reference(self, params, tol):
        assert (double_loop_char_root(params, tol)
                == reference_char_root(params, tol))

    @pytest.mark.parametrize("tol", TOLS)
    def test_exact_root_at_half(self, tol):
        # every ratio 1/4: f(1/2) = (1/2 - 1)^2 - 1/4 is exactly 0
        half = mpmath.mpf(1) / 2
        quarter = mpmath.mpf(1) / 4
        assert (quarter**half - 1) ** 2 - quarter**half * quarter**half == 0
        assert (double_loop_char_root(HALF, tol)
                == reference_char_root(HALF, tol))

    def test_golden_evaluates_f_four_times(self, golden_params, powers):
        reference_char_root(golden_params, 1e-12)
        assert len(powers) == 4 * 42
        powers.clear()
        double_loop_char_root(golden_params, 1e-12)
        assert len(powers) <= 4 * 4

    @pytest.mark.parametrize("offset", ["0.25", "-0.25", "1e-20", "-1e-20"])
    def test_far_estimate_drops_fence(self, golden_params, powers,
                                      monkeypatch, offset):
        estimate = dimension._char_root_estimate

        def far(*ratios):
            return estimate(*ratios) + mpmath.mpf(offset)

        monkeypatch.setattr(dimension, "_char_root_estimate", far)
        root = double_loop_char_root(golden_params, 1e-12)
        # f(0), f(1), one or two fence checks and every one of 40 steps
        assert len(powers) >= 4 * 43
        assert root == reference_char_root(golden_params, 1e-12)


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
        result = hausdorff_dimension(golden_ifs, tol=0.99)
        assert result.iterations >= 1
        assert result.bracket[0] <= GOLDEN_S <= result.bracket[1]
        s = double_loop_char_root(golden_params, 0.99)
        assert abs(s - GOLDEN_S) <= 0.99 / 2


class TestBracketing:
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
