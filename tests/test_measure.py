"""Hausdorff measure of double-loop components."""

import random
from fractions import Fraction

import mpmath
import pytest

from graphifs import (
    ConditionStatus,
    DoubleLoopParams,
    component_measures,
    double_loop_char_root,
    measure_conditions,
)
from graphifs import measure
from graphifs.dimension import _to_mpf
from conftest import random_double_loop_params

F = Fraction

PHI = (1 + mpmath.sqrt(5)) / 2


@pytest.fixture
def quarter_params():
    """a=b=c=d=1/4: dimension 1/2, both conditions determinable by hand."""
    return DoubleLoopParams(F(1, 4), F(1, 2), F(1, 4),
                            F(1, 4), F(1, 2), F(1, 4))


@pytest.fixture
def cond2_failing_params():
    """Instance engineered so a^s > 1 - b: condition (2) fails while
    condition (1) holds."""
    return DoubleLoopParams(F(2, 5), F(1, 10), F(1, 2),
                            F(1, 20), F(9, 10), F(1, 20))


class TestConditions:
    def test_golden_boundary_and_phi(self, golden_params):
        result = component_measures(golden_params)
        assert result.cond1.status is ConditionStatus.HOLDS_AT_BOUNDARY
        assert abs(result.cond1.value - 1) <= 1e-9
        assert result.cond2.status is ConditionStatus.HOLDS
        assert abs(result.cond2.value - PHI) <= 1e-9

    def test_quarter_instance(self, quarter_params):
        result = component_measures(quarter_params)
        assert abs(result.s - mpmath.mpf(1) / 2) < 1e-9
        assert result.cond1.status is ConditionStatus.HOLDS_AT_BOUNDARY
        assert abs(result.cond1.value - 1) <= 1e-9
        assert result.cond2.status is ConditionStatus.HOLDS
        assert abs(result.cond2.value - 3) <= 1e-9

    def test_cond2_failure(self, cond2_failing_params):
        result = component_measures(cond2_failing_params)
        assert result.cond2.status is ConditionStatus.FAILS
        assert result.cond1.status is ConditionStatus.HOLDS
        assert result.h_u is None and result.h_v is None

    def test_failing_side_within_eps_warns(self, golden_params):
        s = double_loop_char_root(golden_params)
        # nudge s so cond1's value lands just above 1
        cond1, _cond2 = measure_conditions(golden_params, s + 1e-11)
        assert cond1.status is ConditionStatus.HOLDS_AT_BOUNDARY
        assert cond1.warning

    def test_eps_must_be_positive(self, golden_params):
        # every comparison with NaN is False, so a NaN eps would classify
        # every condition Fails
        for eps in (0, float("nan")):
            with pytest.raises(ValueError, match="eps must be positive"):
                measure_conditions(golden_params, F(1, 2), eps=eps)

    @pytest.mark.parametrize("eps", [float("inf"), float("-inf")])
    def test_eps_must_be_finite(self, golden_params, eps):
        # an infinite eps classifies every value HoldsAtBoundary or Fails
        with pytest.raises(ValueError, match=r"eps must be (finite|positive)"):
            measure_conditions(golden_params, F(1, 2), eps=eps)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 2, float("inf")])
    def test_tol_must_be_below_eps(self, golden_params, monkeypatch, tol):
        # no s is solved for: at tol inf it would be the first midpoint 1/2
        def unreachable(*_args):
            raise AssertionError("solved for s")
        monkeypatch.setattr(measure, "double_loop_char_root", unreachable)
        with pytest.raises(ValueError, match="tol must be below eps"):
            component_measures(golden_params, tol=tol, eps=1e-9)


class TestMeasureValues:
    def test_golden_unit_measures(self, golden_params):
        result = component_measures(golden_params)
        assert result.h_u == 1
        assert abs(result.h_v - 1) <= 1e-9

    def test_quarter_unit_measures(self, quarter_params):
        result = component_measures(quarter_params)
        assert result.h_u == 1
        assert abs(result.h_v - 1) <= 1e-9

    def test_h_v_formula_consistency(self):
        rng = random.Random(424242)
        seen = 0
        for _ in range(40):
            params = random_double_loop_params(rng)
            result = component_measures(params)
            if result.h_v is None:
                continue
            seen += 1
            b_s = _to_mpf(params.b) ** result.s
            a_s = _to_mpf(params.a) ** result.s
            assert abs(result.h_v * b_s + a_s - 1) <= 1e-9
        assert seen > 0

    def test_swap_symmetry(self):
        rng = random.Random(5150)
        for _ in range(20):
            params = random_double_loop_params(rng)
            swapped = component_measures(params.swapped())
            original = component_measures(params)
            assert abs(swapped.s - original.s) <= 1e-9
            if swapped.h_v is not None:
                c_s = _to_mpf(params.c) ** swapped.s
                d_s = _to_mpf(params.d) ** swapped.s
                assert abs(swapped.h_v * d_s + c_s - 1) <= 1e-9

    def test_status_stable_under_tol_refinement(self):
        rng = random.Random(867)
        for _ in range(25):
            params = random_double_loop_params(rng)
            coarse = component_measures(params, tol=1e-12)
            fine = component_measures(params, tol=1e-13)
            for a, b in ((coarse.cond1, fine.cond1),
                         (coarse.cond2, fine.cond2)):
                flipped = {a.status, b.status} == {
                    ConditionStatus.HOLDS, ConditionStatus.FAILS}
                assert not flipped
