"""Tests for the modified Bessel evaluators.

Three independent oracles, none sharing code with the implementation:
exact rational arithmetic on the ascending series (I at z = 1),
adaptive quadrature of the integral representation (K at z = 1), and
mpmath at 30 significant digits (grids over the contract ranges).
Point values frozen below were generated with mpmath at 40 digits.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from corneafit.special import EULER_GAMMA, bessel_i, bessel_k, wronskian_defect


def series_i_at_one(nu, terms=30):
    """I_nu(1) = (1/2)^nu sum_k (1/4)^k / (k! (k+nu)!), summed exactly."""
    total = Fraction(0)
    for k in range(terms):
        total += Fraction(1, 4**k * math.factorial(k) * math.factorial(k + nu))
    return float(total / 2**nu)


class TestAgainstIndependentOracles:
    def test_i_at_one_matches_exact_series(self):
        # 30 terms of the exact series carry I_nu(1) beyond float64.
        for nu in (0, 1, 2):
            assert bessel_i(nu, 1.0) == pytest.approx(series_i_at_one(nu), rel=1e-14)

    def test_k_at_one_matches_integral_representation(self):
        # K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt
        for nu in (0, 1):
            oracle, err = quad(
                lambda t: math.exp(-math.cosh(t)) * math.cosh(nu * t), 0.0, 30.0,
                epsabs=1e-14, epsrel=1e-13, limit=200,
            )
            assert err < 1e-12
            assert bessel_k(nu, 1.0) == pytest.approx(oracle, rel=1e-12)

    def test_i_matches_mpmath_grid(self):
        mpmath.mp.dps = 30
        z = np.geomspace(1e-3, 100.0, 80)
        for nu in (0, 1, 2):
            oracle = np.array([float(mpmath.besseli(nu, t)) for t in z])
            np.testing.assert_allclose(bessel_i(nu, z), oracle, rtol=1e-12)

    def test_k_matches_mpmath_grid(self):
        mpmath.mp.dps = 30
        z = np.geomspace(1e-8, 100.0, 80)
        for nu in (0, 1):
            oracle = np.array([float(mpmath.besselk(nu, t)) for t in z])
            np.testing.assert_allclose(bessel_k(nu, z), oracle, rtol=1e-12)

    def test_regime_boundaries_are_seamless(self):
        # straddle each internal switch point; mpmath referees both sides
        mpmath.mp.dps = 30
        for z in (17.999999, 18.0, 18.000001):
            for nu in (0, 1, 2):
                assert bessel_i(nu, z) == pytest.approx(
                    float(mpmath.besseli(nu, z)), rel=1e-12
                )
        for z in (2.999999, 3.0, 3.000001, 15.999999, 16.0, 16.000001):
            for nu in (0, 1):
                assert bessel_k(nu, z) == pytest.approx(
                    float(mpmath.besselk(nu, z)), rel=1e-12
                )


class TestWholeContractRange:
    # the range solve and bounds reach: sqrt(a) r for a <= 1.25e5 is
    # below 354
    def test_i_matches_mpmath_up_to_360(self):
        mpmath.mp.dps = 30
        z = np.concatenate([[0.0], np.geomspace(1e-3, 360.0, 120), np.linspace(20.0, 360.0, 69)])
        for nu in (0, 1, 2):
            oracle = np.array([float(mpmath.besseli(nu, t)) for t in z])
            np.testing.assert_allclose(bessel_i(nu, z), oracle, rtol=1e-12)

    def test_k_matches_mpmath_up_to_360(self):
        mpmath.mp.dps = 30
        z = np.concatenate([np.geomspace(1e-8, 360.0, 120), np.linspace(2.0, 360.0, 73)])
        for nu in (0, 1):
            oracle = np.array([float(mpmath.besselk(nu, t)) for t in z])
            np.testing.assert_allclose(bessel_k(nu, z), oracle, rtol=1e-12)

    def test_i_switch_is_seamless(self):
        mpmath.mp.dps = 30
        for z in (29.999999, 30.0, 30.000001):
            for nu in (0, 1, 2):
                assert bessel_i(nu, z) == pytest.approx(
                    float(mpmath.besseli(nu, z)), rel=1e-12
                )

    # z mixed across both contract ranges, which every rule serves
    @given(st.lists(st.floats(min_value=1e-8, max_value=360.0), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_array_elements_carry_their_scalar_bits(self, values):
        z = np.array(values)
        for function, orders in ((bessel_i, (0, 1, 2)), (bessel_k, (0, 1))):
            for nu in orders:
                array = function(nu, z)
                scalars = np.array([function(nu, t) for t in values])
                np.testing.assert_array_equal(array.view(np.int64), scalars.view(np.int64))


def per_order_k_series(nu, z):
    """K_nu(z) for z <= 3 by the small-argument series with one loop per
    order, as bessel_k summed it before its loop became generic in nu."""
    i_z = bessel_i(nu, z)
    q = 0.25 * z * z
    log_half_z = np.log(0.5 * z)
    if nu == 0:
        term = np.ones_like(z)
        total = np.zeros_like(z)
        harmonic = 0.0
        for k in range(1, 200):
            term = term * q / (k * k)
            harmonic += 1.0 / k
            contrib = term * harmonic
            total = total + contrib
            if (contrib <= 1e-18 + 1e-17 * total).all():
                break
        return -(log_half_z + EULER_GAMMA) * i_z + total
    term = np.ones_like(z)
    harmonic_k = 0.0
    harmonic_k1 = 1.0
    total = (harmonic_k + harmonic_k1 - 2.0 * EULER_GAMMA) * term
    for k in range(1, 200):
        term = term * q / (k * (k + 1))
        harmonic_k += 1.0 / k
        harmonic_k1 += 1.0 / (k + 1)
        contrib = term * (harmonic_k + harmonic_k1 - 2.0 * EULER_GAMMA)
        total = total + contrib
        if (np.abs(contrib) <= 1e-18 + 1e-17 * np.abs(total)).all():
            break
    return 1.0 / z + log_half_z * i_z - 0.25 * z * total


class TestKSeriesBits:
    # the generic-order loop must keep the per-order loops' bits, from the
    # smallest normal double to the series' upper end
    @given(st.lists(st.floats(min_value=2.2250738585072014e-308, max_value=3.0),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_series_keeps_the_per_order_bits(self, values):
        z = np.array(values)
        for nu in (0, 1):
            expected = per_order_k_series(nu, z).view(np.int64)
            np.testing.assert_array_equal(bessel_k(nu, z).view(np.int64), expected)
            scalars = np.array([bessel_k(nu, t) for t in values])
            singles = np.concatenate([per_order_k_series(nu, np.array([t])) for t in values])
            np.testing.assert_array_equal(scalars.view(np.int64), singles.view(np.int64))

    def test_dense_sweep_keeps_the_per_order_bits(self):
        z = np.geomspace(np.finfo(float).tiny, 3.0, 20000)
        for nu in (0, 1):
            np.testing.assert_array_equal(bessel_k(nu, z).view(np.int64),
                                          per_order_k_series(nu, z).view(np.int64))


class TestFrozenValues:
    # mpmath, 40 significant digits
    CASES_I = [
        (0, 1.0, 1.266065877752008335598),
        (1, 1.0, 0.5651591039924850272077),
        (2, 1.0, 0.1357476697670382811829),
        (0, math.sqrt(2.0), 1.566082929756350537292),
        (1, math.sqrt(2.0), 0.8992442797523062660975),
    ]
    CASES_K = [
        (0, 1.0, 0.4210244382407083333356),
        (1, 1.0, 0.6019072301972345747375),
        (0, math.sqrt(2.0), 0.2391422107260811554609),
        (1, math.sqrt(2.0), 0.3141976116298978527931),
    ]

    @pytest.mark.parametrize("nu,z,expected", CASES_I)
    def test_i_point_values(self, nu, z, expected):
        assert bessel_i(nu, z) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("nu,z,expected", CASES_K)
    def test_k_point_values(self, nu, z, expected):
        assert bessel_k(nu, z) == pytest.approx(expected, rel=1e-13)

    def test_euler_gamma_constant(self):
        mpmath.mp.dps = 30
        assert EULER_GAMMA == pytest.approx(float(mpmath.euler), abs=1e-17)


class TestWronskian:
    def test_defect_small_on_contract_range(self):
        z = np.geomspace(0.05, 50.0, 200)
        assert np.max(np.abs(wronskian_defect(z))) <= 1e-10

    @given(st.floats(min_value=0.05, max_value=50.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_defect_small_everywhere(self, z):
        assert abs(wronskian_defect(z)) <= 1e-10

    def test_scalar_and_array_agree(self):
        z = np.array([0.3, 1.7, 24.0])
        vector = wronskian_defect(z)
        for i, t in enumerate(z):
            assert vector[i] == wronskian_defect(float(t))


class TestDerivativeIdentities:
    STEP = 1e-5

    def _central(self, f, z):
        return (f(z + self.STEP) - f(z - self.STEP)) / (2.0 * self.STEP)

    def test_i0_prime_is_i1(self):
        z = np.linspace(0.1, 20.0, 40)
        fd = self._central(lambda t: bessel_i(0, t), z)
        np.testing.assert_allclose(fd, bessel_i(1, z), rtol=1e-6)

    def test_k0_prime_is_minus_k1(self):
        z = np.linspace(0.1, 20.0, 40)
        fd = self._central(lambda t: bessel_k(0, t), z)
        np.testing.assert_allclose(fd, -bessel_k(1, z), rtol=1e-6)

    def test_two_i1_prime_is_i0_plus_i2(self):
        z = np.linspace(0.1, 20.0, 40)
        fd = self._central(lambda t: bessel_i(1, t), z)
        np.testing.assert_allclose(2.0 * fd, bessel_i(0, z) + bessel_i(2, z), rtol=1e-8)

    def test_z_k1_derivative_recurrence(self):
        # d/dz (z K1(z)) = -z K0(z)
        z = np.linspace(0.5, 10.0, 20)
        fd = self._central(lambda t: t * bessel_k(1, t), z)
        np.testing.assert_allclose(fd, -z * bessel_k(0, z), rtol=1e-6)

    def test_z_i1_derivative_recurrence(self):
        # d/dz (z I1(z)) = z I0(z)
        z = np.linspace(0.5, 10.0, 20)
        fd = self._central(lambda t: t * bessel_i(1, t), z)
        np.testing.assert_allclose(fd, z * bessel_i(0, z), rtol=1e-6)


class TestShapeAndLimits:
    def test_small_z_limits(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0
        assert bessel_i(2, 0.0) == 0.0
        # K0 ~ -ln(z/2) - gamma, K1 ~ 1/z as z -> 0+
        z = 1e-8
        assert bessel_k(0, z) == pytest.approx(-math.log(z / 2.0) - EULER_GAMMA, rel=1e-9)
        assert bessel_k(1, z) == pytest.approx(1.0 / z, rel=1e-9)

    def test_i_monotone_increasing_k_decreasing(self):
        z = np.linspace(0.05, 30.0, 400)
        for nu in (0, 1):
            assert np.all(np.diff(bessel_i(nu, z)) > 0.0)
            assert np.all(np.diff(bessel_k(nu, z)) < 0.0)

    def test_i0_dominates_i1_dominates_i2(self):
        z = np.geomspace(0.1, 80.0, 60)
        i0, i1, i2 = bessel_i(0, z), bessel_i(1, z), bessel_i(2, z)
        assert np.all(i0 > i1) and np.all(i1 > i2) and np.all(i2 > 0.0)

    def test_array_shape_preserved(self):
        z = np.linspace(0.1, 5.0, 6).reshape(2, 3)
        assert bessel_i(0, z).shape == (2, 3)
        assert bessel_k(0, z).shape == (2, 3)

    def test_scalar_in_scalar_out(self):
        assert isinstance(bessel_i(0, 1.0), float)
        assert isinstance(bessel_k(1, 2.5), float)
        assert isinstance(wronskian_defect(1.0), float)

    def test_empty_array(self):
        assert bessel_i(0, np.array([])).size == 0


class TestDomainErrors:
    def test_i_rejects_negative(self):
        with pytest.raises(ValueError):
            bessel_i(0, -0.5)

    def test_i_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            bessel_i(3, 1.0)

    def test_k_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            bessel_k(0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1, -1.0)

    def test_k_rejects_order_two(self):
        with pytest.raises(ValueError):
            bessel_k(2, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            bessel_i(0, np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            bessel_k(0, np.inf)


class TestKDomainEdge:
    # below the smallest normal double the K series overflows in 1/z and
    # log(z/2); those calls used to return inf or nan with numpy warnings
    @pytest.mark.parametrize("nu,z", [(0, 5e-324), (1, 5e-324), (1, 1e-310)])
    def test_subnormal_argument_raises(self, nu, z):
        with pytest.raises(ValueError, match=r"requires z >= 2\.2250738585072014e-308"):
            bessel_k(nu, z)
        with pytest.raises(ValueError):
            bessel_k(nu, np.array([1.0, z]))

    @pytest.mark.filterwarnings("error")
    def test_smallest_normal_double_is_finite(self):
        tiny = np.finfo(float).tiny
        k0, k1 = bessel_k(0, tiny), bessel_k(1, tiny)
        # mpmath at 40 digits
        assert k0 == pytest.approx(708.5123500479225186732, rel=1e-13)
        assert k1 == pytest.approx(4.494232837155789769323e307, rel=1e-13)
        np.testing.assert_array_equal(bessel_k(1, np.array([tiny, 1.0])), [k1, bessel_k(1, 1.0)])

    def test_wronskian_defect_shares_the_edge(self):
        with pytest.raises(ValueError):
            wronskian_defect(1e-310)
