"""Tests for the Picard solver, residuals, envelopes, and the FD oracle.

The one-step quadrature oracle value below was generated with mpmath at
40 significant digits by adaptive quadrature of the exact integrands
t v0(t) P(h0'(t)) and t v1(t) P(h0'(t)); the FD Newton route provides
the independent check for converged solutions.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from corneafit import cli, kernel, solver
from corneafit.errors import BoundViolation, HypothesisViolation, NoConvergence
from corneafit.kernel import (
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
from corneafit.solver import (
    RadialGrid,
    RadialProfile,
    envelope_check,
    fd_oracle,
    h0_profile,
    picard_step,
    residual_sup,
    solve,
)
from corneafit.special import bessel_i, bessel_k

TWO_TWO = ModelParams(a=2.0, b=2.0)
# (2, 2) and the two published operating points
REFERENCE_PAIRS = [(2.0, 2.0), (2.07883, 2.76741), (1.94398, 2.27534)]
# a in each Bessel branch of sqrt(a): the K series (<= 3), quadrature
# (3 to 16) and asymptotic (>= 16) ranges, the last also past the I
# series (> 18)
A_ACROSS_BESSEL_BRANCHES = st.one_of(
    st.floats(0.01, 9.0),
    st.floats(9.0, 256.0, exclude_min=True, exclude_max=True),
    st.floats(256.0, 324.0),
    st.floats(324.0, 1600.0, exclude_min=True),
)


class TestRadialGrid:
    def test_uniform_constructor(self):
        grid = RadialGrid.uniform(11)
        assert grid.n_nodes == 11
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
        assert grid.spacing == pytest.approx(0.1, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid.uniform(2)
        with pytest.raises(ValueError):
            RadialGrid(n_nodes=3, nodes=np.array([0.0, 0.4, 0.9]))  # endpoint
        with pytest.raises(ValueError):
            RadialGrid(n_nodes=3, nodes=np.array([0.0, 0.6, 0.5, 1.0]))  # size
        with pytest.raises(ValueError):
            RadialGrid(n_nodes=4, nodes=np.array([0.0, 0.6, 0.5, 1.0]))  # order
        with pytest.raises(ValueError):
            RadialGrid(n_nodes=4, nodes=np.array([0.0, 0.1, 0.6, 1.0]))  # spacing

    def test_profile_validation(self):
        grid = RadialGrid.uniform(5)
        good_h = np.array([1.0, 0.9, 0.7, 0.4, 0.0])
        good_dh = np.array([0.0, -0.2, -0.4, -0.6, -0.8])
        RadialProfile(grid=grid, h=good_h, dh=good_dh)
        with pytest.raises(ValueError):
            RadialProfile(grid=grid, h=good_h, dh=np.array([0.1, -0.2, -0.4, -0.6, -0.8]))
        with pytest.raises(ValueError):
            RadialProfile(grid=grid, h=np.array([1.0, 0.9, 0.7, 0.4, 0.1]), dh=good_dh)
        with pytest.raises(ValueError):
            RadialProfile(grid=grid, h=good_h[:-1], dh=good_dh)


class TestLinearizedProfile:
    def test_boundary_values_exact(self):
        profile = h0_profile(TWO_TWO, RadialGrid.uniform(101))
        assert profile.h[-1] == 0.0
        assert profile.dh[0] == 0.0

    def test_apex_value(self):
        # h0(0) = (b/a)(1 - 1/I0(sqrt(2))); mpmath, 40 digits
        profile = h0_profile(TWO_TWO, RadialGrid.uniform(101))
        assert profile.h[0] == pytest.approx(0.3614642104836817919756, rel=1e-13)

    def test_matches_closed_form_on_nodes(self):
        grid = RadialGrid.uniform(41)
        profile = h0_profile(TWO_TWO, grid)
        sa = math.sqrt(2.0)
        i0a = bessel_i(0, sa)
        expected_h = (2.0 / 2.0) * (1.0 - bessel_i(0, sa * grid.nodes) / i0a)
        expected_dh = -(2.0 / sa) * bessel_i(1, sa * grid.nodes) / i0a
        np.testing.assert_allclose(profile.h[:-1], expected_h[:-1], rtol=1e-14)
        np.testing.assert_allclose(profile.dh[1:], expected_dh[1:], rtol=1e-14)

    def test_zero_pressure_zero_profile(self):
        profile = h0_profile(ModelParams(a=2.0, b=0.0), RadialGrid.uniform(21))
        assert np.all(profile.h == 0.0) and np.all(profile.dh == 0.0)


class TestPicardStep:
    def test_zero_slope_input_reproduces_h0_exactly(self):
        # P(0) = 1 turns the fixed-point operator into the closed form;
        # the defect-corrected quadrature makes that exact, not approximate.
        grid = RadialGrid.uniform(201)
        base = h0_profile(TWO_TWO, grid)
        flat = RadialProfile(grid=grid, h=base.h.copy(), dh=np.zeros(grid.n_nodes))
        out = picard_step(TWO_TWO, flat)
        np.testing.assert_array_equal(out.h, base.h)
        np.testing.assert_array_equal(out.dh, base.dh)

    def test_one_step_value_against_quadrature_oracle(self):
        # h1(0.5) at a = b = 2; mpmath adaptive quadrature, 40 digits
        grid = RadialGrid.uniform(4001)
        first = picard_step(TWO_TWO, h0_profile(TWO_TWO, grid))
        mid = np.flatnonzero(grid.nodes == 0.5)[0]
        assert first.h[mid] == pytest.approx(0.2601692492645526144432, abs=1e-8)

    def test_one_step_against_scipy_quad(self):
        # same check with an in-process adaptive-quadrature oracle
        a, b = TWO_TWO.a, TWO_TWO.b
        sa = math.sqrt(a)
        i0a = bessel_i(0, sa)

        def pressure_of_slope(t):
            slope = -(b / sa) * bessel_i(1, sa * t) / i0a
            return 1.0 / math.sqrt(1.0 + slope * slope)

        inner, _ = quad(lambda t: t * v0(t, a) * pressure_of_slope(t), 0.0, 0.5,
                        epsabs=1e-13, epsrel=1e-13)
        outer, _ = quad(lambda t: t * v1(t, a) * pressure_of_slope(t), 0.5, 1.0,
                        epsabs=1e-13, epsrel=1e-13)
        oracle = (b / i0a) * (v0(0.5, a) * outer + v1(0.5, a) * inner)

        grid = RadialGrid.uniform(4001)
        first = picard_step(TWO_TWO, h0_profile(TWO_TWO, grid))
        mid = np.flatnonzero(grid.nodes == 0.5)[0]
        assert first.h[mid] == pytest.approx(oracle, abs=1e-8)

    def test_first_step_below_h0(self):
        grid = RadialGrid.uniform(401)
        base = h0_profile(TWO_TWO, grid)
        first = picard_step(TWO_TWO, base)
        assert np.all(first.h <= base.h + 1e-12)

    def test_boundary_conditions_preserved(self):
        grid = RadialGrid.uniform(101)
        out = picard_step(TWO_TWO, h0_profile(TWO_TWO, grid))
        assert out.h[-1] == 0.0 and out.dh[0] == 0.0

    def test_non_finite_slope_rejected(self):
        grid = RadialGrid.uniform(11)
        base = h0_profile(TWO_TWO, grid)
        bad_dh = base.dh.copy()
        bad_dh[5] = math.nan
        with pytest.raises(ValueError):
            picard_step(TWO_TWO, RadialProfile(grid=grid, h=base.h, dh=bad_dh))


class TestSolve:
    def test_converges_at_reference_parameters(self):
        report = solve(TWO_TWO, RadialGrid.uniform(401))
        assert report.final_sup_diff <= 1e-10
        assert 0.0 < report.envelope_constant_A <= 1.0
        assert report.envelope_ok

    def test_iteration_count_at_loose_tolerance(self):
        report = solve(TWO_TWO, RadialGrid.uniform(401), tol=1e-8)
        assert report.iterations <= 8

    def test_fourth_minus_third_iterate_magnitude(self):
        grid = RadialGrid.uniform(401)
        iterates = [h0_profile(TWO_TWO, grid)]
        for _ in range(4):
            iterates.append(picard_step(TWO_TWO, iterates[-1]))
        gap = np.max(np.abs(iterates[4].h - iterates[3].h))
        assert 1e-7 <= gap <= 1e-5

    def test_zero_pressure_converges_immediately(self):
        report = solve(ModelParams(a=2.0, b=0.0), RadialGrid.uniform(101))
        assert report.iterations == 1
        assert np.all(report.profile.h == 0.0)

    def test_agrees_with_fd_oracle(self):
        grid = RadialGrid.uniform(401)
        report = solve(TWO_TWO, grid)
        oracle = fd_oracle(TWO_TWO, grid)
        assert np.max(np.abs(report.profile.h - oracle.h)) <= 1e-6

    def test_enforce_bound_raises(self):
        params = ModelParams(a=2.0, b=1.01 * theorem1_b_max(2.0))
        with pytest.raises(BoundViolation):
            solve(params, RadialGrid.uniform(101), enforce_bound=True)

    def test_bound_violation_warns_and_proceeds_by_default(self):
        # the contraction condition is sufficient, not necessary: slightly
        # above the bound the iteration still converges in practice
        params = ModelParams(a=2.0, b=1.01 * theorem1_b_max(2.0))
        with pytest.warns(RuntimeWarning):
            report = solve(params, RadialGrid.uniform(101))
        assert report.final_sup_diff <= 1e-10

    def test_max_iter_exhaustion_raises(self):
        with pytest.raises(NoConvergence):
            solve(TWO_TWO, RadialGrid.uniform(101), max_iter=1)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            solve(TWO_TWO, RadialGrid.uniform(101), tol=0.0)

    def test_deterministic_bit_identical(self):
        grid = RadialGrid.uniform(201)
        first = solve(TWO_TWO, grid)
        second = solve(TWO_TWO, grid)
        np.testing.assert_array_equal(first.profile.h, second.profile.h)
        np.testing.assert_array_equal(first.profile.dh, second.profile.dh)
        assert first.iterations == second.iterations
        assert first.final_sup_diff == second.final_sup_diff

    def test_grid_refinement_convergence(self):
        # solutions on n and 2n-1 nodes share every other node; the gap
        # shrinks at the discretization order (about 4x per doubling)
        sizes = (101, 201, 401, 801)
        profiles = {n: solve(TWO_TWO, RadialGrid.uniform(n)).profile.h for n in sizes}
        gaps = [
            np.max(np.abs(profiles[2 * n - 1][::2] - profiles[n]))
            for n in sizes[:-1]
        ]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.0 <= coarse / fine <= 5.0

    @given(
        st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_solution_positive_and_nonincreasing(self, a, fraction):
        params = ModelParams(a=a, b=fraction * theorem1_b_max(a))
        report = solve(params, RadialGrid.uniform(101))
        assert np.all(report.profile.h >= 0.0)
        assert np.all(report.profile.dh <= 0.0)

    def test_derivative_contraction_invariant(self):
        # ||h'_n - h'_{n-1}|| <= contraction ||h'_{n-1} - h'_{n-2}|| + slack
        for a, b in [(2.0, 2.0), (2.07883, 2.76741), (1.94398, 2.27534)]:
            params = ModelParams(a=a, b=b)
            factor = bound_constants(params).contraction
            grid = RadialGrid.uniform(401)
            iterates = [h0_profile(params, grid)]
            for _ in range(5):
                iterates.append(picard_step(params, iterates[-1]))
            diffs = [
                np.max(np.abs(new.dh - old.dh))
                for old, new in zip(iterates, iterates[1:])
            ]
            for before, after in zip(diffs, diffs[1:]):
                assert after <= factor * before + 1e-12


def _count_calls(monkeypatch, names):
    """Count calls of the named corneafit.solver functions, through the
    solver's own bindings and the cli's."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(solver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (solver, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestSolverPlan:
    def test_each_kernel_table_built_once_per_solve(self, monkeypatch):
        calls = _count_calls(monkeypatch, ("v0", "v1", "dv0", "dv1"))
        report = solve(TWO_TWO, RadialGrid.uniform(401))
        assert report.iterations >= 9
        assert calls == {"v0": 1, "v1": 1, "dv0": 1, "dv1": 1}

    def test_solve_command_adds_no_picard_step_or_h0_profile(self, monkeypatch, tmp_path):
        # the CSV's h0 and A h1 columns come from the SolveReport; the only
        # h0_profile call is the one solve's plan makes
        calls = _count_calls(monkeypatch, ("picard_step", "h0_profile"))
        cli.cmd_solve(2.0, 2.0, out_path=str(tmp_path / "profile.csv"))
        assert calls == {"picard_step": 0, "h0_profile": 1}

    def test_report_carries_h0_and_first_iterate(self):
        grid = RadialGrid.uniform(401)
        report = solve(TWO_TWO, grid)
        base = h0_profile(TWO_TWO, grid)
        first = picard_step(TWO_TWO, base)
        np.testing.assert_array_equal(report.h0.h, base.h)
        np.testing.assert_array_equal(report.h0.dh, base.dh)
        np.testing.assert_array_equal(report.h1.h, first.h)
        np.testing.assert_array_equal(report.h1.dh, first.dh)

    @pytest.mark.parametrize("n", [401, 4001])
    @pytest.mark.parametrize("a,b", REFERENCE_PAIRS)
    def test_solve_equals_step_by_step_iteration(self, a, b, n):
        # the public one-step route, rebuilding everything per step, is the
        # reference the plan must reproduce bit for bit
        params = ModelParams(a=a, b=b)
        grid = RadialGrid.uniform(n)
        report = solve(params, grid)
        prev = h0_profile(params, grid)
        for iterations in range(1, 51):
            current = picard_step(params, prev)
            sup_diff = float(np.max(np.abs(current.h - prev.h)))
            prev = current
            if sup_diff <= 1e-10:
                break
        np.testing.assert_array_equal(report.profile.h, prev.h)
        np.testing.assert_array_equal(report.profile.dh, prev.dh)
        assert report.iterations == iterations
        assert report.final_sup_diff == sup_diff
        assert report.residual_sup == residual_sup(params, prev)
        assert (report.envelope_ok, report.envelope_constant_A) == envelope_check(params, prev)


class TestSharedBesselArrays:
    @pytest.mark.parametrize("n", [401, 4001, 40001])
    @pytest.mark.parametrize("a,b", REFERENCE_PAIRS)
    def test_plan_tables_equal_the_public_functions(self, a, b, n):
        # the plan shares I0(sqrt(a) r) and I1(sqrt(a) r) between its
        # tables; each must still equal its own public evaluation bit for bit
        params = ModelParams(a=a, b=b)
        grid = RadialGrid.uniform(n)
        r = grid.nodes
        plan = solver._SolverPlan.build(params, grid)
        base = h0_profile(params, grid)
        np.testing.assert_array_equal(plan.v0, v0(r, a))
        np.testing.assert_array_equal(plan.v1_pos, v1(r[1:], a))
        np.testing.assert_array_equal(plan.dv0, dv0(r, a))
        np.testing.assert_array_equal(plan.dv1_pos, dv1(r[1:], a))
        np.testing.assert_array_equal(plan.h0.h, base.h)
        np.testing.assert_array_equal(plan.h0.dh, base.dh)

    def test_one_solve_evaluates_two_bessel_i_arrays(self, monkeypatch):
        sizes = []

        def counted(nu, z):
            sizes.append(np.size(z))
            return bessel_i(nu, z)

        for module in (kernel, solver):
            monkeypatch.setattr(module, "bessel_i", counted)
        n = 401
        solve(TWO_TWO, RadialGrid.uniform(n))
        # I0(sqrt(a) r) and I1(sqrt(a) r) on the nodes; everything else is
        # a scalar such as I0(sqrt(a))
        assert sorted(size for size in sizes if size > 1) == [n, n]
        assert sum(sizes) == 2 * n + sum(1 for size in sizes if size == 1)

    def test_one_solve_makes_two_bessel_i_and_three_bessel_k_calls(self, monkeypatch):
        sizes = {"bessel_i": [], "bessel_k": []}
        for name, function in (("bessel_i", bessel_i), ("bessel_k", bessel_k)):
            def counted(nu, z, _sizes=sizes[name], _function=function, **kwargs):
                _sizes.append(np.size(z))
                return _function(nu, z, **kwargs)

            for module in (kernel, solver):
                monkeypatch.setattr(module, name, counted)
        n = 4001
        solve(TWO_TWO, RadialGrid.uniform(n))
        # I0(sqrt(a) r) and I1(sqrt(a) r); K0(sqrt(a) r), K1(sqrt(a) r) on
        # r > 0 and the scalar K0(sqrt(a))
        assert sorted(sizes["bessel_i"]) == [n, n]
        assert sorted(sizes["bessel_k"]) == [1, n - 1, n - 1]

    @settings(max_examples=40, deadline=None)
    @given(a=A_ACROSS_BESSEL_BRANCHES)
    def test_k_series_reuses_the_i_values_bit_for_bit(self, a):
        z = math.sqrt(a) * RadialGrid.uniform(4001).nodes[1:]
        for nu in (0, 1):
            np.testing.assert_array_equal(bessel_k(nu, z, _i_z=bessel_i(nu, z)), bessel_k(nu, z))
            assert bessel_k(nu, z[-1], _i_z=bessel_i(nu, z[-1])) == bessel_k(nu, z[-1])

    @settings(max_examples=40, deadline=None)
    @given(a=A_ACROSS_BESSEL_BRANCHES)
    def test_plan_values_at_sqrt_a_equal_the_scalar_calls(self, a):
        params = ModelParams(a=a, b=1.0)
        grid = RadialGrid.uniform(4001)
        r = grid.nodes
        sa = math.sqrt(a)
        k_results = []

        def recorded(nu, z, **kwargs):
            k_results.append(bessel_k(nu, z, **kwargs))
            return k_results[-1]

        with mock.patch.object(solver, "bessel_k", recorded):
            plan = solver._SolverPlan.build(params, grid)
        # I0(sqrt(a)) and I1(sqrt(a)) are read off the r = 1 nodes, and
        # K0(sqrt(a)) is the plan's one scalar K call
        assert bessel_i(0, sa * r)[-1] == plan.i0 == bessel_i(0, sa)
        assert bessel_i(1, sa * r)[-1] == bessel_i(1, sa)
        assert k_results == [bessel_k(0, sa)]
        assert plan.admissibility_report == admissibility(params)
        np.testing.assert_array_equal(plan.v1_pos, v1(r[1:], a))
        np.testing.assert_array_equal(plan.dv1_pos, dv1(r[1:], a))
        base = h0_profile(params, grid)
        np.testing.assert_array_equal(plan.h0.h, base.h)
        np.testing.assert_array_equal(plan.h0.dh, base.dh)


def inline_residual_sup(params, profile):
    # residual_sup as written before it shared fd_oracle's stencil; it
    # divides b by sqrt(1 + s^2) where the shared stencil multiplies b by P
    r = profile.grid.nodes
    h = profile.h
    delta = profile.grid.spacing
    a, b = params.a, params.b

    at_origin = abs(-4.0 * (h[1] - h[0]) / delta**2 + a * h[0] - b)
    r_mid_minus = 0.5 * (r[1:-1] + r[:-2])
    r_mid_plus = 0.5 * (r[1:-1] + r[2:])
    laplacian = (
        r_mid_plus * (h[2:] - h[1:-1]) - r_mid_minus * (h[1:-1] - h[:-2])
    ) / (r[1:-1] * delta**2)
    slope = (h[2:] - h[:-2]) / (2.0 * delta)
    interior = np.abs(-laplacian + a * h[1:-1] - b / np.sqrt(1.0 + slope * slope))
    return float(max(at_origin, interior.max(initial=0.0)))


class TestResidual:
    @pytest.mark.parametrize("a,b", REFERENCE_PAIRS)
    @pytest.mark.parametrize("n", [101, 401, 4001])
    def test_matches_the_inline_stencil(self, a, b, n):
        params = ModelParams(a=a, b=b)
        grid = RadialGrid.uniform(n)
        for profile in (solve(params, grid).profile, h0_profile(params, grid)):
            assert abs(residual_sup(params, profile) - inline_residual_sup(params, profile)) <= 1e-15

    def test_converged_residual_small(self):
        report = solve(TWO_TWO, RadialGrid.uniform(401))
        assert report.residual_sup <= 1e-3

    def test_residual_shrinks_second_order(self):
        values = [
            solve(TWO_TWO, RadialGrid.uniform(n)).residual_sup for n in (101, 201, 401)
        ]
        assert 3.0 <= values[0] / values[1] <= 5.0
        assert 3.0 <= values[1] / values[2] <= 5.0

    def test_zero_profile_zero_residual(self):
        params = ModelParams(a=2.0, b=0.0)
        grid = RadialGrid.uniform(101)
        assert residual_sup(params, h0_profile(params, grid)) == 0.0

    def test_h0_profile_has_nonlinear_residual(self):
        # h0 solves only the P == 1 linearization; against the full
        # equation its residual is O(b h0'^2), far above FD error
        grid = RadialGrid.uniform(401)
        value = residual_sup(TWO_TWO, h0_profile(TWO_TWO, grid))
        assert value > 1e-2


class TestEnvelope:
    def test_reference_envelope_holds(self):
        grid = RadialGrid.uniform(401)
        report = solve(TWO_TWO, grid)
        ok, constant = envelope_check(TWO_TWO, report.profile)
        assert ok
        # A = (1 + h0'(1)^2)/(1 + (2 - 1/I0(sqrt(2))) h0'(1)^2); mpmath, 40 digits
        assert constant == pytest.approx(0.8744030766967151658992, rel=1e-13)

    def test_two_sided_bounds_pointwise(self):
        grid = RadialGrid.uniform(401)
        report = solve(TWO_TWO, grid)
        base = h0_profile(TWO_TWO, grid)
        first = picard_step(TWO_TWO, base)
        h = report.profile.h
        assert np.all(report.envelope_constant_A * first.h - 1e-9 <= h)
        assert np.all(h <= base.h + 1e-9)
        assert np.all(h >= 0.0)
        assert np.all(report.profile.dh <= 0.0)

    def test_derivative_band(self):
        grid = RadialGrid.uniform(401)
        report = solve(TWO_TWO, grid)
        base = h0_profile(TWO_TWO, grid)
        factor = 2.0 - 1.0 / bessel_i(0, math.sqrt(2.0))
        assert np.all(factor * base.dh - 1e-9 <= report.profile.dh)

    def test_constant_approaches_one_for_small_pressure(self):
        grid = RadialGrid.uniform(101)
        params = ModelParams(a=2.0, b=1e-6)
        report = solve(params, grid)
        assert report.envelope_constant_A == pytest.approx(1.0, abs=1e-9)

    def test_hypothesis_violation_outside_lemma_bound(self):
        params = ModelParams(a=2.0, b=1.5 * lemma_b_max(2.0))
        grid = RadialGrid.uniform(101)
        profile = h0_profile(params, grid)
        with pytest.raises(HypothesisViolation):
            envelope_check(params, profile)


def reference_envelope_constant(params):
    # the scalar evaluation of A that solve made before the plan supplied
    # h0'(1) and I0(sqrt(a)): three more Bessel calls per solve
    s2 = float(solver._dh0_values(params, np.asarray(1.0))) ** 2
    factor = 2.0 - 1.0 / bessel_i(0, math.sqrt(params.a))
    return (1.0 + s2) / (1.0 + factor * s2)


class TestEnvelopeFromPlan:
    @pytest.mark.filterwarnings("ignore:parameters violate the contraction bound")
    @pytest.mark.parametrize("a,b,n", [
        (2.0, 2.0, 401), (2.0, 2.0, 4001), (2.07883, 2.76741, 401),
        (1.94398, 2.27534, 4001), (0.7, 2.5, 401), (2.0, 3.2, 401),
        (2.0, 1e-6, 101), (2.0, 0.0, 101), (2.0, 4.5, 401), (2.0, 4.5, 4001),
    ])
    def test_constant_equals_the_scalar_formula(self, a, b, n):
        params = ModelParams(a=a, b=b)
        report = solve(params, RadialGrid.uniform(n))
        assert report.envelope_constant_A == reference_envelope_constant(params)
        if b > lemma_b_max(a):  # (2, 4.5): no envelope is claimed there
            assert report.envelope_ok is False

    def test_envelope_evaluates_no_bessel_function(self, monkeypatch):
        plan = solver._SolverPlan.build(TWO_TWO, RadialGrid.uniform(401))
        first = plan.step(plan.h0)
        expected = reference_envelope_constant(TWO_TWO)
        calls = []
        monkeypatch.setattr(solver, "bessel_i", lambda *args: calls.append(args))
        _, constant = plan.envelope(first, first)
        assert calls == []
        assert constant == expected


class TestFdOracle:
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 2.0), (2.07883, 2.76741)])
    def test_agreement_with_picard(self, a, b):
        params = ModelParams(a=a, b=b)
        grid = RadialGrid.uniform(401)
        picard = solve(params, grid).profile
        newton = fd_oracle(params, grid)
        assert np.max(np.abs(picard.h - newton.h)) <= 1e-6

    def test_zero_pressure(self):
        profile = fd_oracle(ModelParams(a=2.0, b=0.0), RadialGrid.uniform(101))
        assert np.all(profile.h == 0.0)

    def test_linearized_matches_h0_at_discretization_rate(self):
        errors = []
        for n in (101, 201, 401):
            grid = RadialGrid.uniform(n)
            lin = fd_oracle(TWO_TWO, grid, linearize=True)
            errors.append(np.max(np.abs(lin.h - h0_profile(TWO_TWO, grid).h)))
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert 3.5 <= errors[1] / errors[2] <= 4.5

    def test_tolerance_below_noise_floor_raises(self):
        # the discrete residual cannot be driven below float64 noise
        with pytest.raises(NoConvergence):
            fd_oracle(TWO_TWO, RadialGrid.uniform(401), tol=1e-16)

    @pytest.mark.parametrize("a,b", REFERENCE_PAIRS)
    def test_default_tolerance_converges_on_fine_grid(self, a, b):
        # a fixed 1e-10 lies below the residual's float64 floor here (~1.6e-9)
        params = ModelParams(a=a, b=b)
        grid = RadialGrid.uniform(4001)
        newton = fd_oracle(params, grid)
        picard = solve(params, grid).profile
        assert np.max(np.abs(picard.h - newton.h)) <= 1e-8

    @pytest.mark.parametrize("a,b", REFERENCE_PAIRS)
    def test_default_tolerance_is_1e10_on_coarse_grid(self, a, b):
        params = ModelParams(a=a, b=b)
        grid = RadialGrid.uniform(401)
        np.testing.assert_array_equal(
            fd_oracle(params, grid).h, fd_oracle(params, grid, tol=1e-10).h
        )

    def test_boundary_conditions(self):
        profile = fd_oracle(TWO_TWO, RadialGrid.uniform(101))
        assert profile.h[-1] == 0.0 and profile.dh[0] == 0.0
