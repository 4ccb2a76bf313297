"""Green's-function ingredients and admissibility bounds.

The radial membrane operator -(1/r)(r h')' + a h with h'(0) = h(1) = 0
is inverted by a kernel built from two homogeneous solutions,

    v0(r) = I0(sqrt(a) r)
    v1(r) = I0(sqrt(a)) K0(sqrt(a) r) - I0(sqrt(a) r) K0(sqrt(a)),

whose signs and monotonicity make the solution positive and
nonincreasing.  This module evaluates v0, v1 and their derivatives, the
kernel mass bounds Q and R, the Lipschitz constant of the pressure
projection P(x) = 1/sqrt(1+x^2), and the two admissibility curves that
delimit the (a, b) parameter region: the contraction bound (strict) and
the envelope bound (non-strict).

v1 diverges logarithmically at r = 0 and is refused there; the solver
owns the origin limits (the enclosing integrals stay finite).
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import bessel_i, bessel_k

# Lipschitz constant of P(x) = 1/sqrt(1+x^2): max |P'| = 2/(3 sqrt(3)).
LIPSCHITZ_M = 2.0 / (3.0 * math.sqrt(3.0))


@dataclass(frozen=True)
class ModelParams:
    """Nondimensional parameters: a = k R^2 / T (stiffness), b = P R / T
    (pressure).

    b = 0 is admitted as the degenerate unloaded state (zero profile);
    everything else must be strictly positive.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"a must be positive and finite, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError(f"b must be nonnegative and finite, got {self.b!r}")


@dataclass(frozen=True)
class DimensionalParams:
    """Physical constants: tension T [N/m], stiffness k [N/m^3],
    pressure P [N/m^2], scale_radius R [m]."""

    tension: float
    stiffness: float
    pressure: float
    scale_radius: float

    def __post_init__(self):
        for name in ("tension", "stiffness", "pressure", "scale_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def nondimensional(self):
        """Rescale by the typical radius: a = k R^2 / T, b = P R / T."""
        r2 = self.scale_radius * self.scale_radius
        return ModelParams(
            a=self.stiffness * r2 / self.tension,
            b=self.pressure * self.scale_radius / self.tension,
        )


@dataclass(frozen=True)
class KernelBounds:
    """Mass bounds of the solution and derivative kernels.

    q_bound bounds int_0^1 |F(r,t)| dt, r_bound bounds int_0^1 |G(r,t)| dt,
    contraction = lipschitz_m * r_bound is the Picard contraction factor.
    """

    q_bound: float
    r_bound: float
    lipschitz_m: float
    contraction: float

    def __post_init__(self):
        if self.q_bound < 0.0 or self.r_bound < 0.0:
            raise ValueError("kernel bounds must be nonnegative")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Both parameter bounds evaluated at (a, b).

    theorem1_ok uses the strict inequality b < theorem1_b_max (the
    contraction argument needs room); lemma_ok uses b <= lemma_b_max.
    """

    params: ModelParams
    theorem1_b_max: float
    lemma_b_max: float
    theorem1_ok: bool
    lemma_ok: bool


def _check_r(r, name, exclude_zero):
    arr = np.asarray(r, dtype=float)
    low = ~(arr > 0.0) if exclude_zero else (arr < 0.0)
    if np.any(low) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        lo = "(0, 1]" if exclude_zero else "[0, 1]"
        raise ValueError(f"{name} requires r in {lo}")
    return arr


def _check_a_values(a):
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise ValueError(f"a must be positive and finite, got {a!r}")
    return arr


def _check_a(a):
    if np.ndim(a) != 0:
        raise ValueError(f"a must be a positive finite scalar, got {a!r}")
    return float(_check_a_values(a))


def _scalar_like(out, r):
    if np.ndim(r) == 0:
        return float(out)
    return out


def v0(r, a):
    """I0(sqrt(a) r) on [0, 1]; positive, nondecreasing, v0(0) = 1."""
    arr = _check_r(r, "v0", exclude_zero=False)
    a = _check_a(a)
    return _scalar_like(bessel_i(0, math.sqrt(a) * arr), r)


def v1(r, a, *, _i0_r=None, _i0=None, _k0=None):
    """I0(sqrt(a)) K0(sqrt(a) r) - I0(sqrt(a) r) K0(sqrt(a)) on (0, 1].

    Nonnegative, nonincreasing, v1(1) = 0; diverges logarithmically as
    r -> 0+, so r = 0 is a domain error (see module docstring). _i0_r,
    _i0 and _k0 are private to the solver plan: I0(sqrt(a) r) already
    evaluated on r, I0(sqrt(a)) and K0(sqrt(a)).
    """
    arr = _check_r(r, "v1", exclude_zero=True)
    a = _check_a(a)
    sa = math.sqrt(a)
    i0_r = bessel_i(0, sa * arr) if _i0_r is None else _i0_r
    i0 = bessel_i(0, sa) if _i0 is None else _i0
    k0 = bessel_k(0, sa) if _k0 is None else _k0
    out = i0 * bessel_k(0, sa * arr, _i_z=i0_r) - i0_r * k0
    return _scalar_like(out, r)


def dv0(r, a, *, _i1_r=None):
    """v0'(r) = sqrt(a) I1(sqrt(a) r); nonnegative on [0, 1].

    _i1_r is private to the solver plan: I1(sqrt(a) r) already evaluated
    on r.
    """
    arr = _check_r(r, "dv0", exclude_zero=False)
    a = _check_a(a)
    sa = math.sqrt(a)
    i1_r = bessel_i(1, sa * arr) if _i1_r is None else _i1_r
    return _scalar_like(sa * i1_r, r)


def dv1(r, a, *, _i1_r=None, _i0=None, _k0=None):
    """v1'(r) = -sqrt(a) (I0(sqrt(a)) K1(sqrt(a) r) + I1(sqrt(a) r) K0(sqrt(a))).

    Nonpositive on (0, 1]; -r * dv1(r) is nonincreasing with limit
    I0(sqrt(a)) as r -> 0+. _i1_r, _i0 and _k0 are private to the solver
    plan: I1(sqrt(a) r) already evaluated on r, I0(sqrt(a)) and
    K0(sqrt(a)).
    """
    arr = _check_r(r, "dv1", exclude_zero=True)
    a = _check_a(a)
    sa = math.sqrt(a)
    i1_r = bessel_i(1, sa * arr) if _i1_r is None else _i1_r
    i0 = bessel_i(0, sa) if _i0 is None else _i0
    k0 = bessel_k(0, sa) if _k0 is None else _k0
    out = -sa * (i0 * bessel_k(1, sa * arr, _i_z=i1_r) + i1_r * k0)
    return _scalar_like(out, r)


def bound_constants(params):
    """Closed-form kernel mass bounds Q, R and the contraction M*R.

    Q = (b/a)(1 - 1/I0(sqrt(a)));
    R = (b/sqrt(a)) (I1(sqrt(a))/I0(sqrt(a))) (2 I0(sqrt(a)) - 1).
    Both are linear in b.
    """
    a, b = params.a, params.b
    sa = math.sqrt(a)
    i0 = bessel_i(0, sa)
    i1 = bessel_i(1, sa)
    q = (b / a) * (1.0 - 1.0 / i0)
    r = (b / sa) * (i1 / i0) * (2.0 * i0 - 1.0)
    return KernelBounds(q_bound=q, r_bound=r, lipschitz_m=LIPSCHITZ_M, contraction=LIPSCHITZ_M * r)


def theorem1_b_max(a, *, _i0=None, _i1=None):
    """Largest pressure with a guaranteed contraction at stiffness a.

    (3 sqrt(3) / 2) sqrt(a) I0(sqrt(a)) / (I1(sqrt(a)) (2 I0(sqrt(a)) - 1));
    equivalently the b at which bound_constants(...).contraction = 1.
    The existence guarantee requires b strictly below this value. a may
    be an array; a scalar a gives a float. _i0 and _i1 are private to
    the solver plan: I0(sqrt(a)) and I1(sqrt(a)) already evaluated.
    """
    sa = np.sqrt(_check_a_values(a))
    i0 = bessel_i(0, sa) if _i0 is None else _i0
    i1 = bessel_i(1, sa) if _i1 is None else _i1
    return _scalar_like((3.0 * math.sqrt(3.0) / 2.0) * sa * i0 / (i1 * (2.0 * i0 - 1.0)), a)


def lemma_b_max(a, *, _i0=None, _i1=None):
    """Largest pressure for which the envelope estimates are certified.

    (sqrt(a)/I1(sqrt(a))) * sqrt(2 I0(sqrt(a)) - 1) / (I0(sqrt(a)) - 1);
    diverges as a -> 0+ (the denominator vanishes). Non-strict bound. a
    may be an array; a scalar a gives a float. _i0 and _i1 as in
    theorem1_b_max.
    """
    sa = np.sqrt(_check_a_values(a))
    i0 = bessel_i(0, sa) if _i0 is None else _i0
    i1 = bessel_i(1, sa) if _i1 is None else _i1
    return _scalar_like((sa / i1) * np.sqrt(2.0 * i0 - 1.0) / (i0 - 1.0), a)


def admissibility(params, *, _i0=None, _i1=None):
    """Evaluate both bounds at params and report the two verdicts.

    _i0 and _i1 are private to the solver plan: I0(sqrt(a)) and
    I1(sqrt(a)) already evaluated.
    """
    t1 = theorem1_b_max(params.a, _i0=_i0, _i1=_i1)
    lm = lemma_b_max(params.a, _i0=_i0, _i1=_i1)
    return AdmissibilityReport(
        params=params,
        theorem1_b_max=t1,
        lemma_b_max=lm,
        theorem1_ok=params.b < t1,
        lemma_ok=params.b <= lm,
    )
