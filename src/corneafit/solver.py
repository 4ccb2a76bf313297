"""Picard iteration for the radial membrane boundary-value problem.

The nondimensional elevation h(r) on 0 <= r <= 1 satisfies

    -(1/r) (r h')' + a h = b P(h'),   P(x) = 1/sqrt(1 + x^2),
    h'(0) = 0,  h(1) = 0,

whose fixed-point form is

    h(r) = (b / I0(sqrt(a))) [ v0(r) int_r^1 t v1(t) P(h'(t)) dt
                             + v1(r) int_0^r t v0(t) P(h'(t)) dt ].

The iteration starts from the closed-form linearization

    h0(r) = (b/a) (1 - I0(sqrt(a) r) / I0(sqrt(a))),

which is exactly the fixed-point operator applied to P == 1. Below
a = 1e-6 the difference of the two I0 values is summed from its series
instead, since rounding leaves it no digits as a -> 0.

Quadrature note: the integrand t v1(t) behaves like t log t near the
origin, which costs composite trapezoid an O(delta^2 log delta) defect
concentrated in the first panel (it shows up as an O(1) equation
residual at r = 0). The step therefore splits P = 1 + (P - 1): the
P == 1 part is h0 in closed form, and trapezoid is applied only to the
integrands t v0 (P-1) and t v1 (P-1), which vanish like t^2 at the
origin because P(h') - 1 = O(h'^2) and h'(0) = 0. That restores clean
second-order convergence (residual shrinks ~4x per grid doubling) and
makes the zero-slope input reproduce h0 exactly.

Everything the step needs besides the previous slope depends only on
(params, grid): the kernel tables v0, v1, v0', v1', the quadrature
weights t v0 and t v1, h0 with its slope, c = b / I0(sqrt(a)) and the
admissibility report. A private solver plan evaluates them once; each
Picard step on the plan is then only the P - 1 integrand, two cumulative
sums and the recombination. The tables, h0 and the bounds read their
Bessel values from one kernel._Bessel record (its r > 0 slice for v1
and v1'). The plan fills it from the v0 table I0(sqrt(a) r), one
I1(sqrt(a) r) array, their r = 1 elements I0(sqrt(a)) and I1(sqrt(a))
(the grid ends exactly at 1, and bessel_i gives each element the bits
of its scalar call) and one scalar K0(sqrt(a)). The K0(sqrt(a) r) and
K1(sqrt(a) r) arrays reuse the two I arrays in their small-argument
series, so a solve makes 2 bessel_i and 3 bessel_k calls. The envelope
constant A and the slope factor 2 - 1/I0(sqrt(a)) come from the plan's
I0(sqrt(a)) and h0'(1), with no further Bessel call. solve builds one
plan per call, keeps the first iterate h1 and hands the plan's h0 and
that h1 to the envelope check and, through SolveReport, to its callers.
picard_step and envelope_check are thin wrappers that build a plan per
call. No plan is kept across calls.

fd_oracle solves the same problem by damped Newton on the conservative
finite-difference stencil that residual_sup evaluates; it shares no
quadrature with the Picard route and serves as its independent check. It
loads scipy on first use, so importing corneafit needs only numpy.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, HypothesisViolation, NoConvergence
from .kernel import (_SERIES_A_MAX, AdmissibilityReport, ModelParams, _Bessel,
                     _check_bounds_a, _i0_rise_over_a, admissibility, dv0, dv1, v0, v1)
from .special import bessel_i, bessel_k


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform nodes r_0 = 0 < r_1 < ... < r_{n-1} = 1."""

    n_nodes: int
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if self.n_nodes < 3 or nodes.ndim != 1 or nodes.size != self.n_nodes:
            raise ValueError("grid needs n_nodes >= 3 matching the node array")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("grid endpoints must be exactly 0 and 1")
        gaps = np.diff(nodes)
        if np.any(gaps <= 0.0):
            raise ValueError("grid nodes must increase strictly")
        if not np.allclose(gaps, gaps[0], rtol=1e-12, atol=1e-15):
            raise ValueError("grid must be uniformly spaced")

    @classmethod
    def uniform(cls, n_nodes):
        n_nodes = int(n_nodes)
        return cls(n_nodes=n_nodes, nodes=np.linspace(0.0, 1.0, n_nodes))

    @property
    def spacing(self):
        return float(self.nodes[1] - self.nodes[0])


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Sampled elevation h and slope dh on a radial grid.

    Boundary conditions are stored exactly: dh[0] == 0.0, h[-1] == 0.0.
    """

    grid: RadialGrid
    h: np.ndarray
    dh: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        dh = np.asarray(self.dh, dtype=float)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "dh", dh)
        n = self.grid.n_nodes
        if h.shape != (n,) or dh.shape != (n,):
            raise ValueError("profile arrays must match the grid size")
        if dh[0] != 0.0:
            raise ValueError("slope at r = 0 must be exactly 0")
        if h[-1] != 0.0:
            raise ValueError("elevation at r = 1 must be exactly 0")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Converged profile with its diagnostics.

    h0 is the closed-form linearized profile the iteration starts from
    and h1 the first Picard iterate; together with envelope_constant_A
    they are the envelope A h1 <= h <= h0.
    """

    profile: RadialProfile
    iterations: int
    final_sup_diff: float
    residual_sup: float
    envelope_ok: bool
    envelope_constant_A: float
    h0: RadialProfile
    h1: RadialProfile


def _h0_values(params, r, bessel=None):
    # h0(r) = (b/a)(1 - I0(sqrt(a) r)/I0(sqrt(a))); bessel is a _Bessel
    # record on r when the caller already holds one. Below a = 1e-6 the
    # difference loses its digits, so h0 = b ((I0(sqrt(a)) -
    # I0(sqrt(a) r))/a) / I0(sqrt(a)) with that ratio from its series.
    a = params.a
    if a < _SERIES_A_MAX:
        return params.b * _i0_rise_over_a(a, r) / (bessel or _Bessel(math.sqrt(a))).i0
    bv = bessel or _Bessel(math.sqrt(a), r)
    return (params.b / a) * (1.0 - bv.i0_r / bv.i0)


def _dh0_values(params, r, bessel=None):
    # h0'(r) = -(b/sqrt(a)) I1(sqrt(a) r)/I0(sqrt(a)); bessel likewise
    sa = math.sqrt(params.a)
    bv = bessel or _Bessel(sa, r)
    return -(params.b / sa) * bv.i1_r / bv.i0


def h0_profile(params, grid, *, _bessel=None):
    """Closed-form linearized solution on the grid (the P == 1 case).

    h0(1) = 0 and h0'(0) = 0 hold exactly; the slope is analytic, not
    differenced. _bessel is private to the solver plan: a _Bessel record
    on the nodes.
    """
    r = grid.nodes
    bv = _bessel or _Bessel(math.sqrt(params.a), r)
    h = _h0_values(params, r, bv)
    h[-1] = 0.0
    dh = _dh0_values(params, r, bv)
    dh[0] = 0.0
    return RadialProfile(grid=grid, h=h, dh=dh)


@dataclass(frozen=True, eq=False)
class _SolverPlan:
    """The Picard loop invariants for one (params, grid); see the module
    docstring. v1 and v1' diverge at r = 0, so their tables (and the t v1
    weight) cover r > 0 only."""

    params: ModelParams
    grid: RadialGrid
    admissibility_report: AdmissibilityReport
    i0: float  # I0(sqrt(a))
    c: float  # b / I0(sqrt(a))
    v0: np.ndarray
    v1_pos: np.ndarray
    dv0: np.ndarray
    dv1_pos: np.ndarray
    weight0: np.ndarray  # r v0
    weight1_pos: np.ndarray  # r v1 on r > 0
    h0: RadialProfile

    @classmethod
    def build(cls, params, grid):
        r = grid.nodes
        a = params.a
        # refuse an a past the bounds' limit before the tables overflow
        sa = math.sqrt(_check_bounds_a(a))
        # the record's values; see the module docstring
        v0_all = v0(r, a)
        i1_r = bessel_i(1, sa * r)
        i0 = float(v0_all[-1])  # r[-1] == 1.0
        at_sa = dict(i0=i0, i1=float(i1_r[-1]), k0=bessel_k(0, sa, _i_z=i0))
        bessel = _Bessel(sa, r, i0_r=v0_all, i1_r=i1_r, **at_sa)
        bessel_pos = _Bessel(sa, r[1:], i0_r=v0_all[1:], i1_r=i1_r[1:], **at_sa)
        v1_pos = v1(r[1:], a, _bessel=bessel_pos)
        return cls(
            params=params,
            grid=grid,
            admissibility_report=admissibility(params, _bessel=bessel),
            i0=i0,
            c=params.b / i0,
            v0=v0_all,
            v1_pos=v1_pos,
            dv0=dv0(r, a, _bessel=bessel),
            dv1_pos=dv1(r[1:], a, _bessel=bessel_pos),
            weight0=r * v0_all,
            weight1_pos=r[1:] * v1_pos,
            h0=h0_profile(params, grid, _bessel=bessel),
        )

    def step(self, prev):
        """One application of the fixed-point operator to prev's slope.

        Defect-corrected quadrature (see module docstring): returns
        h0 + c [v0 * int_r^1 t v1 (P-1) + v1 * int_0^r t v0 (P-1)]
        with composite trapezoid prefix/suffix sums, O(n) for all nodes.
        At r = 0 the v1-weighted term vanishes (r^2 log r); at r = 1 the
        elevation is pinned to 0. The slope uses the same integrals
        against v0', v1' (the boundary contributions of differentiating
        the limits cancel by construction).
        """
        n = self.grid.n_nodes
        delta = self.grid.spacing
        c = self.c

        excess = 1.0 / np.sqrt(1.0 + prev.dh * prev.dh) - 1.0  # P(h') - 1 in (-1, 0]
        if not np.all(np.isfinite(excess)):
            raise ValueError("non-finite integrand in Picard quadrature")

        g0 = self.weight0 * excess
        g1 = np.empty(n)
        g1[0] = 0.0  # t v1(t)(P-1) -> 0 as t -> 0
        g1[1:] = self.weight1_pos * excess[1:]

        panels0 = 0.5 * delta * (g0[:-1] + g0[1:])
        panels1 = 0.5 * delta * (g1[:-1] + g1[1:])
        inner = np.zeros(n)  # int_0^r t v0 (P-1)
        inner[1:] = np.cumsum(panels0)
        outer = np.zeros(n)  # int_r^1 t v1 (P-1)
        outer[:-1] = np.cumsum(panels1[::-1])[::-1]

        base = self.h0
        h = np.empty(n)
        h[0] = base.h[0] + c * outer[0]  # v0(0) = 1 and v1-term limit 0
        h[1:-1] = base.h[1:-1] + c * (
            self.v0[1:-1] * outer[1:-1] + self.v1_pos[:-1] * inner[1:-1]
        )
        h[-1] = 0.0

        dh = np.empty(n)
        dh[0] = 0.0
        dh[1:] = base.dh[1:] + c * (self.dv0[1:] * outer[1:] + self.dv1_pos * inner[1:])

        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(dh))):
            raise ValueError("non-finite result in Picard quadrature")
        return RadialProfile(grid=self.grid, h=h, dh=dh)

    def envelope(self, profile, first):
        """The envelope verdict and A for profile, given the first iterate
        h1 = step(h0); see envelope_check for the inequalities. The
        verdict is False when b > lemma_b_max(a), where they are not
        claimed."""
        slack = 1e-9
        base = self.h0
        lower_factor = 2.0 - 1.0 / self.i0
        slope_sq = float(base.dh[-1]) ** 2  # h0'(1)^2
        constant_a = (1.0 + slope_sq) / (1.0 + lower_factor * slope_sq)  # in (0, 1]
        if not self.admissibility_report.lemma_ok:
            return False, constant_a
        ok = bool(
            np.all(constant_a * first.h - slack <= profile.h)
            and np.all(profile.h <= base.h + slack)
            and np.all(profile.h >= 0.0)
            and np.all(profile.dh <= 0.0)
            and np.all(lower_factor * base.dh - slack <= profile.dh)
        )
        return ok, constant_a


def picard_step(params, prev):
    """One application of the fixed-point operator to prev's slope.

    Builds a solver plan for prev's grid and takes one step on it; see
    _SolverPlan.step for the quadrature. A loop should build the plan
    once instead, as solve does.
    """
    return _SolverPlan.build(params, prev.grid).step(prev)


def solve(params, grid, tol=1e-10, max_iter=50, enforce_bound=False):
    """Iterate the Picard step from h0 until the sup-norm update is <= tol.

    The kernel tables, h0 and the admissibility report are built once
    per call. With enforce_bound the contraction condition
    b < theorem1_b_max(a) is required and its violation raises
    BoundViolation; otherwise a violation only warns (the condition is
    sufficient, not necessary) and iteration proceeds. Raises
    NoConvergence when max_iter is exhausted; tol must be positive and
    finite, as an infinite one would accept the first iterate.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if tol == math.inf:
        raise ValueError("tol must be finite")
    plan = _SolverPlan.build(params, grid)
    report = plan.admissibility_report
    if not report.theorem1_ok:
        if enforce_bound:
            raise BoundViolation(
                f"b = {params.b:g} is not below theorem1_b_max(a) = "
                f"{report.theorem1_b_max:g}; convergence is not guaranteed"
            )
        warnings.warn(
            "parameters violate the contraction bound; iterating without a guarantee",
            RuntimeWarning,
            stacklevel=2,
        )

    prev = plan.h0
    sup_diff = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        current = plan.step(prev)
        if iterations == 1:
            first = current
        sup_diff = float(np.max(np.abs(current.h - prev.h)))
        prev = current
        if sup_diff <= tol:
            break
    else:
        raise NoConvergence(
            f"Picard iteration stalled at sup diff {sup_diff:g} after {max_iter} steps (tol {tol:g})"
        )

    residual = residual_sup(params, prev)
    envelope_ok, constant_a = plan.envelope(prev, first)
    return SolveReport(
        profile=prev,
        iterations=iterations,
        final_sup_diff=sup_diff,
        residual_sup=residual,
        envelope_ok=envelope_ok,
        envelope_constant_A=constant_a,
        h0=plan.h0,
        h1=first,
    )


def _flux_nodes(r):
    # interior nodes and the flux midpoints below and above each
    r_interior = r[1:-1]
    return r_interior, 0.5 * (r_interior + r[:-2]), 0.5 * (r_interior + r[2:])


def _stencil_residual(params, grid, h, linearize=False):
    """Residual of the conservative finite-difference equation at the nodes
    with r < 1, and the centered slopes at the interior nodes. The radial
    Laplacian uses the flux form; r = 0 uses its regularized limit
    -2 h''(0) + a h(0) = b (the slope there is 0, so P = 1). With
    linearize the pressure projection is frozen at P == 1."""
    r_interior, r_mid_minus, r_mid_plus = _flux_nodes(grid.nodes)
    delta = grid.spacing
    delta2 = delta * delta
    a, b = params.a, params.b
    slope = (h[2:] - h[:-2]) / (2.0 * delta)
    pressure = np.ones_like(slope) if linearize else 1.0 / np.sqrt(1.0 + slope * slope)
    f = np.empty(grid.n_nodes - 1)
    f[0] = -4.0 * (h[1] - h[0]) / delta2 + a * h[0] - b
    f[1:] = (
        -(r_mid_plus * (h[2:] - h[1:-1]) - r_mid_minus * (h[1:-1] - h[:-2]))
        / (r_interior * delta2)
        + a * h[1:-1]
        - b * pressure
    )
    return f, slope


def residual_sup(params, profile):
    """Sup over nodes with r < 1 of the residual of the stencil that
    fd_oracle solves (see _stencil_residual)."""
    f, _ = _stencil_residual(params, profile.grid, profile.h)
    return float(np.max(np.abs(f)))


def envelope_check(params, profile):
    """Verify the two-sided envelope around a converged profile.

    Checks pointwise, with 1e-9 slack on the inequalities that carry
    quadrature error:

        A h1 - slack <= h <= h0 + slack,       h >= 0,
        (2 - 1/I0(sqrt(a))) h0' - slack <= h' <= 0,

    where h1 is one Picard step from h0 and
    A = (1 + h0'(1)^2)/(1 + (2 - 1/I0(sqrt(a))) h0'(1)^2).
    Requires b <= lemma_b_max(a); otherwise the inequalities are not
    claimed and HypothesisViolation is raised. solve runs the same check
    on its own plan and first iterate.
    """
    plan = _SolverPlan.build(params, profile.grid)
    report = plan.admissibility_report
    if not report.lemma_ok:
        raise HypothesisViolation(
            f"b = {params.b:g} exceeds lemma_b_max(a) = {report.lemma_b_max:g}"
        )
    return plan.envelope(profile, plan.step(plan.h0))


# fd_oracle's default tol over its noise floor eps max|h0| / delta^2.
_FD_FLOOR_FACTOR = 4.0


def fd_oracle(params, grid, tol=None, *, linearize=False):
    """Independent finite-difference solution by damped Newton.

    Discretizes the equation with the conservative stencil of
    residual_sup (both evaluate it with _stencil_residual), unknowns
    h_0 .. h_{n-2} (h_{n-1} = 0 fixed), and a tridiagonal Jacobian; the
    step is halved (up to 30 times) while the residual sup-norm fails to
    decrease. Shares nothing with the Picard route beyond the closed-form
    initial guess. With linearize=True the pressure projection is frozen
    at P == 1 (a self-check: the result must approach h0 at the
    discretization rate).

    The residual cannot be driven below the float64 noise floor of its
    own evaluation, eps max|h0| / delta^2 up to a factor near 1
    (measured 0.8-1.5 on n = 201 .. 16001; the floor is 1.6e-9 at
    n = 4001). The default tol is max(1e-10, 4 eps max|h0| / delta^2):
    1e-10 on coarse grids (n <= 401 at the paper's parameters), and a
    margin of about 3x over the floor on fine ones. Newton converges
    quadratically, so digits below the floor would cost a stall, not
    accuracy. An explicit tol must be finite and is used as given, even
    below the floor.
    """
    if tol is not None and not math.isfinite(tol):
        raise ValueError("tol must be finite")
    # fd_oracle is scipy's only user and no CLI command calls it; a module
    # import would double every command's start-up time and memory
    from scipy.linalg import solve_banded

    r = grid.nodes
    n = grid.n_nodes
    delta = grid.spacing
    delta2 = delta * delta
    a, b = params.a, params.b
    r_interior, r_mid_minus, r_mid_plus = _flux_nodes(r)

    h = _h0_values(params, r)
    h[-1] = 0.0
    if tol is None:
        floor = np.finfo(float).eps * float(np.max(np.abs(h))) / delta2
        tol = max(1e-10, _FD_FLOOR_FACTOR * floor)
    f, slope = _stencil_residual(params, grid, h, linearize)
    sup = float(np.max(np.abs(f)))
    for _ in range(50):
        if sup <= tol:
            break
        if linearize:
            dp = np.zeros_like(slope)
        else:
            dp = -slope * (1.0 + slope * slope) ** -1.5
        m = n - 1
        diag = np.empty(m)
        diag[0] = 4.0 / delta2 + a
        diag[1:] = (r_mid_plus + r_mid_minus) / (r_interior * delta2) + a
        upper = np.empty(m - 1)
        upper[0] = -4.0 / delta2
        upper[1:] = (-r_mid_plus / (r_interior * delta2) - b * dp / (2.0 * delta))[:-1]
        lower = -r_mid_minus / (r_interior * delta2) + b * dp / (2.0 * delta)
        banded = np.zeros((3, m))
        banded[0, 1:] = upper
        banded[1, :] = diag
        banded[2, :-1] = lower
        step = solve_banded((1, 1), banded, -f)

        scale = 1.0
        for _ in range(30):
            trial = h.copy()
            trial[:-1] = h[:-1] + scale * step
            f_trial, slope_trial = _stencil_residual(params, grid, trial, linearize)
            sup_trial = float(np.max(np.abs(f_trial)))
            if sup_trial < sup:
                break
            scale *= 0.5
        h, f, slope, sup = trial, f_trial, slope_trial, sup_trial
    else:
        raise NoConvergence(f"Newton stalled at residual {sup:g} (tol {tol:g})")

    dh = np.empty(n)
    dh[0] = 0.0
    dh[1:-1] = (h[2:] - h[:-2]) / (2.0 * delta)
    dh[-1] = (3.0 * h[-1] - 4.0 * h[-2] + h[-3]) / (2.0 * delta)
    return RadialProfile(grid=grid, h=h, dh=dh)
