"""From-scratch modified Bessel functions I0, I1, I2 and K0, K1.

No external special-function library is used anywhere in this package;
everything downstream (Green's-function kernels, closed-form profiles,
calibration) evaluates through these routines.

Evaluation regimes, tuned so that the relative error stays at or below
1e-12 on the contract ranges (I: z in [0, 100], K: z in [1e-8, 100]):

* I_nu: ascending power series for z <= 18, large-argument asymptotic
  series above (truncated at its smallest term).
* K_nu: small-argument log series for z <= 3; for 3 < z < 16 a
  fixed-step trapezoid of the integral representation
  K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt, which converges
  superexponentially in the step because the integrand is analytic,
  even in t, and decays like exp(-z cosh t); asymptotic series for
  z >= 16.  A pure series/asymptotic split cannot reach 1e-12 in float64:
  near the crossover the log series loses ~exp(2z)*eps to cancellation
  while the asymptotic floor is still above target, so the integral
  bridges the gap.

All functions accept scalars or numpy arrays elementwise and return the
matching kind. Domain violations raise ValueError.
"""

import numpy as np

# Euler-Mascheroni constant, needed by the K small-argument series.
EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992

_I_SERIES_MAX = 18.0
_K_SERIES_MAX = 3.0
_K_ASYMPTOTIC_MIN = 16.0

_FACTORIAL = (1.0, 1.0, 2.0)


def _prepare(z, name, minimum_exclusive):
    """Flatten to 1-D float64, validating finiteness and the domain edge."""
    arr = np.asarray(z, dtype=float)
    flat = arr.ravel()
    if flat.size and not np.isfinite(flat).all():
        raise ValueError(f"{name} requires finite arguments")
    if minimum_exclusive:
        if flat.size and (flat <= 0.0).any():
            raise ValueError(f"{name} requires z > 0")
    else:
        if flat.size and (flat < 0.0).any():
            raise ValueError(f"{name} requires z >= 0")
    return arr, flat


def _restore(out, arr):
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _i_series(nu, z):
    # I_nu(z) = sum_k (z/2)^(2k+nu) / (k! (k+nu)!); all terms nonnegative.
    q = 0.25 * z * z
    term = np.power(0.5 * z, nu) / _FACTORIAL[nu]
    total = term.copy()
    for k in range(1, 200):
        term = term * q / (k * (k + nu))
        total = total + term
        if (term <= 1e-17 * total).all():
            break
    return total


def _asymptotic_tail(mu, z, sign):
    # sum_k t_k with t_0 = 1, t_k = t_{k-1} * sign * (mu - (2k-1)^2)/(8 z k).
    # The series is divergent; each element stops at its smallest term.
    inv8z = 1.0 / (8.0 * z)
    term = np.ones_like(z)
    total = np.ones_like(z)
    prev_mag = np.full_like(z, np.inf)
    active = np.ones(z.shape, dtype=bool)
    for k in range(1, 80):
        term = term * (sign * (mu - (2 * k - 1) ** 2)) * inv8z / k
        mag = np.abs(term)
        active &= mag < prev_mag
        total = np.where(active, total + term, total)
        active &= mag > 1e-17 * np.abs(total)
        prev_mag = mag
        if not active.any():
            break
    return total


def _i_asymptotic(nu, z):
    tail = _asymptotic_tail(4.0 * nu * nu, z, -1.0)
    return np.exp(z) / np.sqrt(2.0 * np.pi * z) * tail


def _k_asymptotic(nu, z):
    tail = _asymptotic_tail(4.0 * nu * nu, z, +1.0)
    return np.sqrt(np.pi / (2.0 * z)) * np.exp(-z) * tail


def _k_series(nu, z, i_z):
    # i_z is I_nu(z) on the same elements
    q = 0.25 * z * z
    log_half_z = np.log(0.5 * z)
    if nu == 0:
        # K0 = -(ln(z/2) + gamma) I0 + sum_{k>=1} q^k/(k!)^2 H_k
        term = np.ones_like(z)
        total = np.zeros_like(z)
        harmonic = 0.0
        for k in range(1, 200):
            term = term * q / (k * k)
            harmonic += 1.0 / k
            contrib = term * harmonic
            total = total + contrib
            # absolute cutoff: K0 >= K0(3) ~ 0.035 on this branch
            if (contrib <= 1e-18 + 1e-17 * total).all():
                break
        return -(log_half_z + EULER_GAMMA) * i_z + total
    # K1 = 1/z + ln(z/2) I1 - (z/4) sum_{k>=0} (H_k + H_{k+1} - 2 gamma) q^k/(k!(k+1)!)
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


def _k_quadrature(nu, z):
    # Trapezoid of exp(-z cosh t) cosh(nu t) on [0, T]; the tail beyond
    # z cosh T = z + 45 is below exp(-45) relative to the z-scale.
    step = 0.125
    horizon = float(np.arccosh(1.0 + 45.0 / np.min(z)))
    n = int(np.ceil(horizon / step))
    t = step * np.arange(n + 1)
    weights = np.full(n + 1, step)
    weights[0] = 0.5 * step
    weights[-1] = 0.5 * step
    integrand = np.exp(-np.outer(z, np.cosh(t))) * np.cosh(nu * t)
    return integrand @ weights


def bessel_i(nu, z):
    """Modified Bessel function of the first kind, order nu in {0, 1, 2}.

    Requires z >= 0 and finite. Relative error <= 1e-12 on [0, 100].
    """
    if nu not in (0, 1, 2):
        raise ValueError(f"bessel_i supports orders 0, 1, 2, got {nu!r}")
    arr, flat = _prepare(z, "bessel_i", minimum_exclusive=False)
    out = np.empty_like(flat)
    small = flat <= _I_SERIES_MAX
    if small.any():
        out[small] = _i_series(nu, flat[small])
    large = ~small
    if large.any():
        out[large] = _i_asymptotic(nu, flat[large])
    return _restore(out, arr)


def bessel_k(nu, z, *, _i_z=None):
    """Modified Bessel function of the second kind, order nu in {0, 1}.

    Requires z > 0 and finite. Relative error <= 1e-12 on [1e-8, 100].
    Order 2 is rejected: nothing in the model needs it. _i_z is private
    to the solver plan: bessel_i(nu, z) already evaluated, which the
    small-argument series reuses instead of summing I_nu again.
    """
    if nu not in (0, 1):
        raise ValueError(f"bessel_k supports orders 0 and 1 only, got {nu!r}")
    arr, flat = _prepare(z, "bessel_k", minimum_exclusive=True)
    out = np.empty_like(flat)
    small = flat <= _K_SERIES_MAX
    large = flat >= _K_ASYMPTOTIC_MIN
    middle = ~small & ~large
    if small.any():
        z_small = flat[small]
        if _i_z is None:
            i_small = _i_series(nu, z_small)
        else:
            i_small = np.asarray(_i_z, dtype=float).ravel()[small]
        out[small] = _k_series(nu, z_small, i_small)
    if middle.any():
        out[middle] = _k_quadrature(nu, flat[middle])
    if large.any():
        out[large] = _k_asymptotic(nu, flat[large])
    return _restore(out, arr)


def wronskian_defect(z):
    """I0(z) K1(z) + I1(z) K0(z) - 1/z, which is identically zero.

    The magnitude of the returned value measures the joint accuracy of
    the four evaluators; it stays within 1e-10 on [0.05, 50].
    """
    arr, flat = _prepare(z, "wronskian_defect", minimum_exclusive=True)
    out = (
        bessel_i(0, flat) * bessel_k(1, flat)
        + bessel_i(1, flat) * bessel_k(0, flat)
        - 1.0 / flat
    )
    return _restore(out, arr)
