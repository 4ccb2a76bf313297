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

# Largest a the admissibility bounds accept. Past a ~ 1.28e5 the product
# I1(sqrt(a)) (2 I0(sqrt(a)) - 1) overflows and theorem1_b_max reads 0;
# past a ~ 5.04e5 I0(sqrt(a)) itself overflows and both bounds read NaN.
_BOUNDS_A_MAX = 1.25e5
# Smallest a they accept: lemma_b_max ~ 8/a overflows below about 4.45e-308.
_BOUNDS_A_MIN = 4.5e-308
# Below this a, I0(sqrt(a)) - I0(sqrt(a) r) comes from its series
# (_i0_rise_over_a): the difference of two I0 values near 1 has a size
# of about a/4 but a rounding error of about 2e-16, and is 0 below
# a ~ 4.4e-16.
_SERIES_A_MAX = 1e-6


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


def _check_bounds_a(a):
    arr = _check_a_values(a)
    if not np.all(arr <= _BOUNDS_A_MAX):
        raise ValueError(
            f"the admissibility bounds need a <= {_BOUNDS_A_MAX:g}, got {float(arr.max())!r}"
        )
    if not np.all(arr >= _BOUNDS_A_MIN):
        raise ValueError(
            f"the admissibility bounds need a >= {_BOUNDS_A_MIN:g}, got {float(arr.min())!r}"
        )
    return arr


def _check_a(a):
    if np.ndim(a) != 0:
        raise ValueError(f"a must be a positive finite scalar, got {a!r}")
    return float(_check_a_values(a))


def _i0_rise_over_a(a, r):
    """(I0(sqrt(a)) - I0(sqrt(a) r)) / a for a < _SERIES_A_MAX, by its series

    sum_{k>=1} a^(k-1) (1 - r^(2k)) / (4^k (k!)^2),

    whose fifth term is below rounding there. 1 - r^(2k) is taken as
    (1 - r)(1 + r)(1 + r^2 + ... + r^(2k-2)), exact where r is near 1.
    """
    r_sq = r * r
    power = partial = 1.0  # r^(2k-2) and 1 + r^2 + ... + r^(2k-2)
    coef = total = 0.25  # a^(k-1) / (4^k (k!)^2) and the sum, at k = 1
    for k in range(2, 5):
        power = power * r_sq
        partial = partial + power
        coef = coef * a / (4 * k * k)
        total = total + coef * partial
    return (1.0 - r) * (1.0 + r) * total


def _scalar_like(out, r):
    if np.ndim(r) == 0:
        return float(out)
    return out


class _Bessel:
    """I0 and I1 of sqrt(a) r on the nodes r (i0_r, i1_r) and I0, I1 and
    K0 of sqrt(a) (i0, i1, k0). A value given to the constructor is kept;
    any other is evaluated on first use, so a public function that builds
    its own record evaluates only what it reads. The solver plan fills
    one from the values it already holds."""

    def __init__(self, sa, r=None, **values):
        self.sa, self.r = sa, r
        vars(self).update(values)

    def __getattr__(self, name):
        # reached only for a value not stored yet
        if name not in ("i0_r", "i1_r", "i0", "i1", "k0"):
            raise AttributeError(name)
        z = self.sa * self.r if name.endswith("_r") else self.sa
        value = (bessel_k if name == "k0" else bessel_i)(int(name[1]), z)
        setattr(self, name, value)
        return value


def v0(r, a):
    """I0(sqrt(a) r) on [0, 1]; positive, nondecreasing, v0(0) = 1."""
    arr = _check_r(r, "v0", exclude_zero=False)
    a = _check_a(a)
    return _scalar_like(bessel_i(0, math.sqrt(a) * arr), r)


def v1(r, a, *, _bessel=None):
    """I0(sqrt(a)) K0(sqrt(a) r) - I0(sqrt(a) r) K0(sqrt(a)) on (0, 1].

    Nonnegative, nonincreasing, v1(1) = 0; diverges logarithmically as
    r -> 0+, so r = 0 is a domain error (see module docstring). _bessel
    is private to the solver plan: a _Bessel record on r.
    """
    arr = _check_r(r, "v1", exclude_zero=True)
    sa = math.sqrt(_check_a(a))
    bv = _bessel or _Bessel(sa, arr)
    out = bv.i0 * bessel_k(0, sa * arr, _i_z=bv.i0_r) - bv.i0_r * bv.k0
    return _scalar_like(out, r)


def dv0(r, a, *, _bessel=None):
    """v0'(r) = sqrt(a) I1(sqrt(a) r); nonnegative on [0, 1].

    _bessel is private to the solver plan: a _Bessel record on r.
    """
    arr = _check_r(r, "dv0", exclude_zero=False)
    sa = math.sqrt(_check_a(a))
    return _scalar_like(sa * (_bessel or _Bessel(sa, arr)).i1_r, r)


def dv1(r, a, *, _bessel=None):
    """v1'(r) = -sqrt(a) (I0(sqrt(a)) K1(sqrt(a) r) + I1(sqrt(a) r) K0(sqrt(a))).

    Nonpositive on (0, 1]; -r * dv1(r) is nonincreasing with limit
    I0(sqrt(a)) as r -> 0+. _bessel is private to the solver plan: a
    _Bessel record on r.
    """
    arr = _check_r(r, "dv1", exclude_zero=True)
    sa = math.sqrt(_check_a(a))
    bv = _bessel or _Bessel(sa, arr)
    out = -sa * (bv.i0 * bessel_k(1, sa * arr, _i_z=bv.i1_r) + bv.i1_r * bv.k0)
    return _scalar_like(out, r)


def bound_constants(params):
    """Closed-form kernel mass bounds Q, R and the contraction M*R.

    Q = (b/a)(1 - 1/I0(sqrt(a)));
    R = (b/sqrt(a)) (I1(sqrt(a))/I0(sqrt(a))) (2 I0(sqrt(a)) - 1).
    Both are linear in b. Below a = 1e-6, Q is b ((I0(sqrt(a)) - 1)/a)
    / I0(sqrt(a)) with the ratio from its series.
    """
    a, b = params.a, params.b
    sa = math.sqrt(a)
    i0 = bessel_i(0, sa)
    i1 = bessel_i(1, sa)
    if a < _SERIES_A_MAX:
        q = b * _i0_rise_over_a(a, 0.0) / i0
    else:
        q = (b / a) * (1.0 - 1.0 / i0)
    r = (b / sa) * (i1 / i0) * (2.0 * i0 - 1.0)
    return KernelBounds(q_bound=q, r_bound=r, lipschitz_m=LIPSCHITZ_M, contraction=LIPSCHITZ_M * r)


def theorem1_b_max(a, *, _bessel=None):
    """Largest pressure with a guaranteed contraction at stiffness a.

    (3 sqrt(3) / 2) sqrt(a) I0(sqrt(a)) / (I1(sqrt(a)) (2 I0(sqrt(a)) - 1));
    equivalently the b at which bound_constants(...).contraction = 1.
    The existence guarantee requires b strictly below this value. a may
    be an array; a scalar a gives a float. An a above 1.25e5 raises
    ValueError before any Bessel call: the formula overflows there. So
    does an a below 4.5e-308, where lemma_b_max overflows.
    _bessel is private to the solver plan: a _Bessel record at sqrt(a).
    """
    sa = np.sqrt(_check_bounds_a(a))
    bv = _bessel or _Bessel(sa)
    return _scalar_like(1.5 * math.sqrt(3.0) * sa * bv.i0 / (bv.i1 * (2.0 * bv.i0 - 1.0)), a)


def lemma_b_max(a, *, _bessel=None):
    """Largest pressure for which the envelope estimates are certified.

    (sqrt(a)/I1(sqrt(a))) * sqrt(2 I0(sqrt(a)) - 1) / (I0(sqrt(a)) - 1);
    diverges like 8/a as a -> 0+ (the denominator vanishes), so below
    a = 1e-6 the denominator comes from its series, and an a below
    4.5e-308, where 8/a overflows, raises ValueError. Non-strict bound.
    a may be an array; a scalar a gives a float. a and _bessel as in
    theorem1_b_max.
    """
    arr = _check_bounds_a(a)
    sa = np.sqrt(arr)
    bv = _bessel or _Bessel(sa)
    # selected per element before the one division
    rise = np.where(arr < _SERIES_A_MAX, arr * _i0_rise_over_a(arr, 0.0), bv.i0 - 1.0)
    return _scalar_like((sa / bv.i1) * np.sqrt(2.0 * bv.i0 - 1.0) / rise, a)


def admissibility(params, *, _bessel=None):
    """Evaluate both bounds at params and report the two verdicts.

    _bessel is private to the solver plan: a _Bessel record at sqrt(a).
    """
    t1 = theorem1_b_max(params.a, _bessel=_bessel)
    lm = lemma_b_max(params.a, _bessel=_bessel)
    return AdmissibilityReport(
        params=params,
        theorem1_b_max=t1,
        lemma_b_max=lm,
        theorem1_ok=params.b < t1,
        lemma_ok=params.b <= lm,
    )
