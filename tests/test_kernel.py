"""Tests for the Green's-function kernels and admissibility bounds.

Point values frozen below were generated with mpmath at 40 significant
digits from the defining formulas (independent Bessel evaluations, not
this package's).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corneafit.kernel import (
    LIPSCHITZ_M,
    AdmissibilityReport,
    DimensionalParams,
    KernelBounds,
    ModelParams,
    admissibility,
    bound_constants,
    dv0,
    dv1,
    lemma_b_max,
    theorem1_b_max,
    v0,
    v1,
)
from corneafit.special import bessel_i

PAPER_PAIRS = [(2.07883, 2.76741), (1.94398, 2.27534)]


class TestFrozenValues:
    # mpmath, 40 significant digits, at r = 0.3, a = 2
    def test_v0(self):
        assert v0(0.3, 2.0) == pytest.approx(1.045508788381971110912, rel=1e-13)

    def test_v1(self):
        assert v1(0.3, 2.0) == pytest.approx(1.415331428183992582854, rel=1e-13)

    def test_dv0(self):
        assert dv0(0.3, 2.0) == pytest.approx(0.3068008152715398471968, rel=1e-13)

    def test_dv1(self):
        assert dv1(0.3, 2.0) == pytest.approx(-4.577724883481637482259, rel=1e-13)

    def test_theorem1_b_max_at_two(self):
        assert theorem1_b_max(2.0) == pytest.approx(3.001117304972858358488, rel=1e-13)

    def test_lemma_b_max_at_two(self):
        assert lemma_b_max(2.0) == pytest.approx(4.056651946217634297643, rel=1e-13)

    def test_bound_constants_at_two_two(self):
        kb = bound_constants(ModelParams(a=2.0, b=2.0))
        assert kb.q_bound == pytest.approx(0.3614642104836817919756, rel=1e-13)
        assert kb.r_bound == pytest.approx(1.73140597140158274512, rel=1e-13)
        assert kb.lipschitz_m == pytest.approx(0.3849001794597505096728, rel=1e-15)
        assert kb.contraction == pytest.approx(0.6664184691101528572824, rel=1e-13)

    def test_lipschitz_constant(self):
        # max |P'| at x = 1/sqrt(2): P'(x) = -x (1+x^2)^(-3/2)
        x = 1.0 / math.sqrt(2.0)
        assert LIPSCHITZ_M == pytest.approx(x * (1.0 + x * x) ** -1.5, rel=1e-15)


class TestKernelShape:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
    def test_sign_and_monotonicity(self, a):
        r = np.linspace(0.0, 1.0, 1000)
        y0 = v0(r, a)
        assert np.all(y0 >= 1.0) and y0[0] == 1.0
        assert np.all(np.diff(y0) > 0.0)
        y1 = v1(r[1:], a)
        assert np.all(y1 >= 0.0)
        assert y1[-1] == pytest.approx(0.0, abs=1e-14)
        assert np.all(np.diff(y1) < 0.0)
        assert np.all(dv0(r, a) >= 0.0) and dv0(0.0, a) == 0.0
        assert np.all(dv1(r[1:], a) < 0.0)

    @pytest.mark.parametrize("a", [0.5, 2.0, 5.0])
    def test_flux_r_dv1_nonincreasing_with_origin_limit(self, a):
        # -r v1'(r) decreases from I0(sqrt(a)) at 0+ to I1-weighted value at 1
        r = np.geomspace(1e-6, 1.0, 800)
        flux = -r * dv1(r, a)
        assert np.all(np.diff(flux) < 0.0)
        assert flux[0] == pytest.approx(bessel_i(0, math.sqrt(a)), rel=1e-5)

    def test_derivatives_match_finite_differences(self):
        a, r, step = 2.0, 0.3, 1e-6
        fd0 = (v0(r + step, a) - v0(r - step, a)) / (2.0 * step)
        fd1 = (v1(r + step, a) - v1(r - step, a)) / (2.0 * step)
        assert dv0(r, a) == pytest.approx(fd0, rel=1e-8)
        assert dv1(r, a) == pytest.approx(fd1, rel=1e-8)

    def test_v1_refuses_origin(self):
        with pytest.raises(ValueError):
            v1(0.0, 2.0)
        with pytest.raises(ValueError):
            dv1(np.array([0.0, 0.5]), 2.0)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            v0(1.5, 2.0)
        with pytest.raises(ValueError):
            v0(-0.1, 2.0)
        with pytest.raises(ValueError):
            v0(0.5, -1.0)
        with pytest.raises(ValueError):
            v0(np.array([0.2, np.nan]), 2.0)

    def test_scalar_and_array_forms_agree(self):
        r = np.array([0.2, 0.7])
        assert v0(r, 2.0)[0] == v0(0.2, 2.0)
        assert isinstance(v1(0.5, 2.0), float)


class TestKernelMassBounds:
    """Row integrals of the discrete kernels stay within the closed forms.

    F(r,t) carries the solution values, G(r,t) the derivative; the
    solver's trapezoid weights reproduce int_0^1 |F| dt <= Q and
    int_0^1 |G| dt <= R at every node (1e-9 slack for quadrature).
    """

    @pytest.mark.parametrize("a", [1.0, 2.0, 5.0])
    def test_row_integrals_bounded(self, a):
        b = 1.0
        kb = bound_constants(ModelParams(a=a, b=b))
        n = 801
        r = np.linspace(0.0, 1.0, n)
        delta = r[1] - r[0]
        c = b / bessel_i(0, math.sqrt(a))
        v0v = v0(r, a)
        v1v = np.empty(n)
        v1v[0] = 0.0  # kernel column limit t v1(t) -> 0
        v1v[1:] = v1(r[1:], a)
        dv0v = dv0(r, a)
        dv1v = np.empty(n)
        dv1v[0] = 0.0
        dv1v[1:] = dv1(r[1:], a)

        jj = np.arange(n)
        lower = jj[None, :] < jj[:, None]  # t < r branch
        t_v0 = r * v0v
        t_v1 = r * v1v
        f_kernel = c * np.where(lower, np.outer(v1v, t_v0), np.outer(v0v, t_v1))
        g_kernel = c * np.where(lower, np.outer(dv1v, t_v0), np.outer(dv0v, t_v1))
        f_kernel[:, 0] = 0.0
        g_kernel[:, 0] = 0.0

        weights = np.full(n, delta)
        weights[0] = weights[-1] = 0.5 * delta
        assert np.max(np.abs(f_kernel) @ weights) <= kb.q_bound + 1e-9
        assert np.max(np.abs(g_kernel) @ weights) <= kb.r_bound + 1e-9


class TestBounds:
    def test_bounds_linear_in_b(self):
        one = bound_constants(ModelParams(a=2.0, b=1.0))
        three = bound_constants(ModelParams(a=2.0, b=3.0))
        assert three.q_bound == pytest.approx(3.0 * one.q_bound, rel=1e-14)
        assert three.r_bound == pytest.approx(3.0 * one.r_bound, rel=1e-14)
        assert three.contraction == pytest.approx(3.0 * one.contraction, rel=1e-14)

    @pytest.mark.parametrize("a,b", PAPER_PAIRS)
    def test_contraction_below_one_at_reference_pairs(self, a, b):
        assert bound_constants(ModelParams(a=a, b=b)).contraction < 1.0

    def test_theorem1_bound_is_the_contraction_unit_level(self):
        for a in (0.5, 1.0, 2.0, 5.0, 20.0):
            b = theorem1_b_max(a)
            kb = bound_constants(ModelParams(a=a, b=b))
            assert kb.contraction == pytest.approx(1.0, abs=1e-10)

    @given(st.floats(min_value=0.05, max_value=50.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_theorem1_consistency_property(self, a):
        kb = bound_constants(ModelParams(a=a, b=theorem1_b_max(a)))
        assert kb.contraction == pytest.approx(1.0, abs=1e-10)

    def test_lemma_bound_diverges_for_small_a(self):
        assert lemma_b_max(1e-4) > 1e3
        assert lemma_b_max(1e-6) > lemma_b_max(1e-4)

    def test_bounds_positive_on_range(self):
        for a in np.geomspace(0.01, 50.0, 30):
            assert theorem1_b_max(a) > 0.0
            assert lemma_b_max(a) > 0.0

    def test_bound_functions_reject_bad_a(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                theorem1_b_max(bad)
            with pytest.raises(ValueError):
                lemma_b_max(bad)


def scalar_theorem1_b_max(a):
    # theorem1_b_max as written before it accepted arrays
    sa = math.sqrt(a)
    i0, i1 = bessel_i(0, sa), bessel_i(1, sa)
    return (3.0 * math.sqrt(3.0) / 2.0) * sa * i0 / (i1 * (2.0 * i0 - 1.0))


def scalar_lemma_b_max(a):
    # lemma_b_max as written before it accepted arrays
    sa = math.sqrt(a)
    i0, i1 = bessel_i(0, sa), bessel_i(1, sa)
    return (sa / i1) * math.sqrt(2.0 * i0 - 1.0) / (i0 - 1.0)


BOUNDS = [(theorem1_b_max, scalar_theorem1_b_max), (lemma_b_max, scalar_lemma_b_max)]


class TestBoundsOnArrays:
    @pytest.mark.parametrize("bound,scalar", BOUNDS)
    @pytest.mark.parametrize("grid", [np.linspace(0.5, 5.0, 200), np.linspace(0.25, 8.0, 160),
                                      np.geomspace(1e-6, 1e4, 400)],
                             ids=["cli", "demo", "wide"])
    def test_array_equals_the_scalar_loop(self, bound, scalar, grid):
        np.testing.assert_array_equal(bound(grid), [scalar(float(a)) for a in grid])

    @pytest.mark.parametrize("bound,scalar", BOUNDS)
    def test_scalar_gives_float_and_arrays_keep_their_shape(self, bound, scalar):
        for a in (2.0, np.float64(2.0), np.array(2.0)):
            value = bound(a)
            assert type(value) is float and value == scalar(2.0)
        assert bound(np.full((2, 3), 2.0)).shape == (2, 3)

    @pytest.mark.parametrize("bound", [theorem1_b_max, lemma_b_max])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_array_with_a_bad_value_raises(self, bound, bad):
        with pytest.raises(ValueError):
            bound(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("table", [v0, v1, dv0, dv1])
    def test_kernel_tables_still_need_a_scalar_a(self, table):
        with pytest.raises(ValueError):
            table(0.5, np.array([1.0, 2.0]))


class TestAdmissibility:
    @pytest.mark.parametrize("a,b", PAPER_PAIRS)
    def test_reference_pairs_admissible(self, a, b):
        report = admissibility(ModelParams(a=a, b=b))
        assert report.theorem1_ok and report.lemma_ok

    def test_theorem1_strict_lemma_nonstrict(self):
        a = 2.0
        at_theorem1 = admissibility(ModelParams(a=a, b=theorem1_b_max(a)))
        assert not at_theorem1.theorem1_ok  # strict inequality required
        at_lemma = admissibility(ModelParams(a=a, b=lemma_b_max(a)))
        assert at_lemma.lemma_ok  # equality allowed

    def test_far_outside_both_bounds(self):
        report = admissibility(ModelParams(a=2.0, b=10.0 * lemma_b_max(2.0)))
        assert not report.theorem1_ok and not report.lemma_ok

    def test_report_echoes_inputs(self):
        params = ModelParams(a=1.5, b=0.5)
        report = admissibility(params)
        assert isinstance(report, AdmissibilityReport)
        assert report.params == params
        assert report.theorem1_b_max == pytest.approx(theorem1_b_max(1.5), rel=1e-15)
        assert report.lemma_b_max == pytest.approx(lemma_b_max(1.5), rel=1e-15)


class TestParams:
    def test_model_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(a=0.0, b=1.0)
        with pytest.raises(ValueError):
            ModelParams(a=-2.0, b=1.0)
        with pytest.raises(ValueError):
            ModelParams(a=2.0, b=-0.1)
        with pytest.raises(ValueError):
            ModelParams(a=math.nan, b=1.0)
        assert ModelParams(a=2.0, b=0.0).b == 0.0  # unloaded state allowed

    def test_dimensional_round_trip(self):
        # a = k R^2 / T, b = P R / T
        dims = DimensionalParams(tension=2.0, stiffness=4.0, pressure=3.0, scale_radius=0.5)
        nd = dims.nondimensional()
        assert nd.a == pytest.approx(4.0 * 0.25 / 2.0, rel=1e-15)
        assert nd.b == pytest.approx(3.0 * 0.5 / 2.0, rel=1e-15)

    def test_dimensional_validation(self):
        with pytest.raises(ValueError):
            DimensionalParams(tension=0.0, stiffness=1.0, pressure=1.0, scale_radius=1.0)
        with pytest.raises(ValueError):
            DimensionalParams(tension=1.0, stiffness=1.0, pressure=-1.0, scale_radius=1.0)

    def test_kernel_bounds_validation(self):
        with pytest.raises(ValueError):
            KernelBounds(q_bound=-1.0, r_bound=1.0, lipschitz_m=LIPSCHITZ_M, contraction=0.5)
