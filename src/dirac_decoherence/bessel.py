"""Bessel functions J0 and J1 for nonnegative real arguments.

Two branches with a switch at x = 14:

* x <= 14: truncated power series in q = x^2/4.  The largest term at the
  switch point is ~3e4, so alternating-series cancellation costs at most a few
  ulps times that, keeping the absolute error near 1e-12.
* x > 14: Hankel asymptotic expansion
  J_nu(x) ~ sqrt(2/(pi x)) (P cos w - Q sin w), w = x - nu*pi/2 - pi/4,
  truncated at 28 coefficient terms, close to the optimal truncation at the
  switch point where the smallest term is ~e^(-2x) ~ 7e-13.

Both branches stay well inside the 1e-10 absolute-error budget on [0, 200].
"""

from __future__ import annotations

import numpy as np

SERIES_SWITCH = 14.0
_SERIES_TERMS = 42
_ASYMPTOTIC_TERMS = 28

# Stated absolute error of each branch of j0 and j1.
_SERIES_ABS_ERROR = 5e-12
_ASYMPTOTIC_ABS_ERROR = 2e-12


def _hankel_coeffs(nu: float, count: int) -> np.ndarray:
    """Coefficients A_j = prod_{i<=j} (4 nu^2 - (2i-1)^2) / (8^j j!)."""
    mu = 4.0 * nu * nu
    a = np.empty(count)
    a[0] = 1.0
    for j in range(1, count):
        a[j] = a[j - 1] * (mu - (2 * j - 1) ** 2) / (8.0 * j)
    return a


_A0 = _hankel_coeffs(0.0, _ASYMPTOTIC_TERMS)
_A1 = _hankel_coeffs(1.0, _ASYMPTOTIC_TERMS)


def _series_j0(x: np.ndarray) -> np.ndarray:
    q = -(x * x) / 4.0
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, _SERIES_TERMS):
        term = term * q / (k * k)
        acc = acc + term
    return acc


def _series_j1_over_x(x: np.ndarray) -> np.ndarray:
    # J1(x)/x = (1/2) sum_k (-x^2/4)^k / (k! (k+1)!); finite limit 1/2 at x = 0.
    q = -(x * x) / 4.0
    term = np.full_like(x, 0.5)
    acc = np.full_like(x, 0.5)
    for k in range(1, _SERIES_TERMS):
        term = term * q / (k * (k + 1))
        acc = acc + term
    return acc


def _asymptotic(x: np.ndarray, nu: int) -> np.ndarray:
    coeffs = _A0 if nu == 0 else _A1
    # P + iQ = sum_j A_j (i/x)^j, evaluated by Horner.
    z = 1j / x
    pq = np.full_like(z, coeffs[-1])
    for a in coeffs[-2::-1]:
        pq = pq * z + a
    omega = x - nu * (np.pi / 2.0) - np.pi / 4.0
    return np.sqrt(2.0 / (np.pi * x)) * (
        pq.real * np.cos(omega) - pq.imag * np.sin(omega)
    )


def _check_nonnegative(x: np.ndarray, name: str) -> None:
    if np.any(x < 0):
        raise ValueError(f"{name} requires a nonnegative argument")


def _blend(x, small_branch, large_branch):
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    out = np.empty_like(xv)
    small = xv <= SERIES_SWITCH
    if np.any(small):
        out[small] = small_branch(xv[small])
    if np.any(~small):
        out[~small] = large_branch(xv[~small])
    return float(out[0]) if scalar else out


def j0(x):
    """Bessel function of the first kind, order 0, for x >= 0 (scalar or array)."""
    _check_nonnegative(np.asarray(x), "j0")
    return _blend(x, _series_j0, lambda v: _asymptotic(v, 0))


def j1(x):
    """Bessel function of the first kind, order 1, for x >= 0 (scalar or array)."""
    _check_nonnegative(np.asarray(x), "j1")
    return _blend(x, lambda v: v * _series_j1_over_x(v), lambda v: _asymptotic(v, 1))


def j1_over_x(x):
    """J1(x)/x with the analytic value 1/2 at x = 0; continuous, no cancellation."""
    _check_nonnegative(np.asarray(x), "j1_over_x")
    return _blend(x, _series_j1_over_x, lambda v: _asymptotic(v, 1) / v)
