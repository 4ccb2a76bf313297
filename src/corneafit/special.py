"""From-scratch modified Bessel functions I0, I1, I2 and K0, K1.

No external special-function library is used anywhere in this package;
everything downstream (Green's-function kernels, closed-form profiles,
calibration) evaluates through these routines.

Each function has two rules, and the relative error stays at or below
1e-12 on the contract ranges (I: z in [0, 360], K: z in [1e-8, 360]):

* I_nu: ascending power series for z <= 30.
* K_nu: small-argument log series for z <= 3.
* Above those points both use one trapezoid rule on fixed nodes
  w_j = 0.35 j, j = 0..20. With w = sqrt(2z) sin(theta/2) in
  pi I_nu(z) = int_0^pi exp(z cos theta) cos(nu theta) dtheta, and
  w = sqrt(2z) sinh(t/2) in K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt,
  both become exp(-s z) int_0^inf exp(-w^2) 2 T_nu(1 + s w^2/z)
  / sqrt(2z + s w^2) dw with s = -1 for pi I and s = +1 for K
  (Trefethen & Weideman, SIAM Review 56, 2014). The integrand is even
  and analytic near the real axis with Gaussian decay, so the trapezoid
  rule converges exponentially and these 21 nodes reach rounding error;
  the I rule needs 2z above the largest w^2 = 49, which z > 30 keeps.

All functions accept scalars or numpy arrays elementwise and return the
matching kind; every element of an array call carries the bits of its
scalar call. Domain violations raise ValueError. K's domain starts at
the smallest normal double, where K0 ~ 708.5 and K1 ~ 4.5e307 are finite.
"""

import numpy as np

# Euler-Mascheroni constant, needed by the K small-argument series.
EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992

_I_SERIES_MAX = 30.0
_K_SERIES_MAX = 3.0
# smallest normal double: below it K's 1/z overflows and log(z/2) can be -inf
_K_MIN = float(np.finfo(float).tiny)

# trapezoid nodes w_j and weights 2 h exp(-w_j^2) (halved at w = 0) of
# the large-argument rule
_STEP = 0.35
_NODES_SQ = (_STEP * np.arange(21)) ** 2
_WEIGHTS = 2.0 * _STEP * np.exp(-_NODES_SQ)
_WEIGHTS[0] *= 0.5

_FACTORIAL = (1.0, 1.0, 2.0)


def _prepare(z, name, minimum):
    """Flatten to 1-D float64, validating finiteness and z >= minimum."""
    arr = np.asarray(z, dtype=float)
    flat = arr.ravel()
    if flat.size and not np.isfinite(flat).all():
        raise ValueError(f"{name} requires finite arguments")
    if flat.size and (flat < minimum).any():
        raise ValueError(f"{name} requires z >= {minimum!r}")
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


def _k_series(nu, z, i_z):
    # i_z is I_nu(z) on the same elements. With H_k the harmonic numbers,
    # total = sum_{k>=0} (H_k + nu H_{k+nu} - 2 nu gamma) q^k / (k! (k+nu)!)
    # (DLMF 10.31.1-2), so K0 = -(ln(z/2) + gamma) I0 + total and
    # K1 = 1/z + ln(z/2) I1 - (z/4) total. For k >= 1 every contrib is
    # nonnegative, so the stop test needs no abs on it; its absolute
    # cutoff is safe because K0 >= K0(3) ~ 0.035 on this branch.
    q = 0.25 * z * z
    term = np.ones_like(z)
    harmonic_k, harmonic_kn = 0.0, float(nu)  # H_0 and H_nu
    total = (harmonic_k + nu * harmonic_kn - 2.0 * nu * EULER_GAMMA) * term
    for k in range(1, 200):
        term = term * q / (k * (k + nu))
        harmonic_k += 1.0 / k
        harmonic_kn += 1.0 / (k + nu)
        contrib = term * (harmonic_k + nu * harmonic_kn - 2.0 * nu * EULER_GAMMA)
        total = total + contrib
        if (contrib <= 1e-18 + 1e-17 * np.abs(total)).all():
            break
    log_half_z = np.log(0.5 * z)
    if nu == 0:
        return -(log_half_z + EULER_GAMMA) * i_z + total
    return 1.0 / z + log_half_z * i_z - 0.25 * z * total


def _large_argument(nu, z, sign):
    # exp(-sign z) int_0^inf exp(-w^2) 2 T_nu(1 + sign w^2/z) / sqrt(2z + sign w^2) dw
    # by the trapezoid rule on the fixed nodes: pi I_nu(z) for sign = -1,
    # K_nu(z) for sign = +1. The sum runs node by node in elementwise
    # operations, so no element depends on the rest of its batch.
    half_over_z = 0.5 * sign / z
    total = np.zeros_like(z)
    for node_sq, weight in zip(_NODES_SQ, _WEIGHTS):
        h = half_over_z * node_sq  # sign w^2 / (2z); T_nu's argument is 1 + 2h
        term = weight / np.sqrt(1.0 + h)
        if nu == 1:
            term = term * (1.0 + 2.0 * h)
        elif nu == 2:
            term = term * (1.0 + 8.0 * h * (1.0 + h))
        total = total + term
    return np.exp(-sign * z) / np.sqrt(2.0 * z) * total


def bessel_i(nu, z):
    """Modified Bessel function of the first kind, order nu in {0, 1, 2}.

    Requires z >= 0 and finite. Relative error <= 1e-12 on [0, 360]:
    the ascending series for z <= 30, the fixed-node trapezoid rule
    above. Each array element carries the bits of its scalar call.
    """
    if nu not in (0, 1, 2):
        raise ValueError(f"bessel_i supports orders 0, 1, 2, got {nu!r}")
    arr, flat = _prepare(z, "bessel_i", 0.0)
    out = np.empty_like(flat)
    small = flat <= _I_SERIES_MAX
    if small.any():
        out[small] = _i_series(nu, flat[small])
    large = ~small
    if large.any():
        out[large] = _large_argument(nu, flat[large], -1.0) / np.pi
    return _restore(out, arr)


def bessel_k(nu, z, *, _i_z=None):
    """Modified Bessel function of the second kind, order nu in {0, 1}.

    Requires finite z >= 2.2250738585072014e-308, the smallest normal
    double (see _K_MIN). Relative error <= 1e-12 on [1e-8, 360]: the
    log series for z <= 3, the fixed-node trapezoid rule above. Each
    array element carries the bits of its scalar call. Order 2 is
    rejected: nothing in the model needs it. _i_z is private to the
    solver plan: bessel_i(nu, z) already evaluated, which the
    small-argument series reuses instead of summing I_nu again.
    """
    if nu not in (0, 1):
        raise ValueError(f"bessel_k supports orders 0 and 1 only, got {nu!r}")
    arr, flat = _prepare(z, "bessel_k", _K_MIN)
    out = np.empty_like(flat)
    small = flat <= _K_SERIES_MAX
    if small.any():
        z_small = flat[small]
        if _i_z is None:
            i_small = _i_series(nu, z_small)
        else:
            i_small = np.asarray(_i_z, dtype=float).ravel()[small]
        out[small] = _k_series(nu, z_small, i_small)
    large = ~small
    if large.any():
        out[large] = _large_argument(nu, flat[large], +1.0)
    return _restore(out, arr)


def wronskian_defect(z):
    """I0(z) K1(z) + I1(z) K0(z) - 1/z, which is identically zero.

    The magnitude of the returned value measures the joint accuracy of
    the four evaluators; it stays within 1e-10 on [0.05, 50].
    """
    arr, flat = _prepare(z, "wronskian_defect", _K_MIN)
    out = (
        bessel_i(0, flat) * bessel_k(1, flat)
        + bessel_i(1, flat) * bessel_k(0, flat)
        - 1.0 / flat
    )
    return _restore(out, arr)
