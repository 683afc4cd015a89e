"""Bessel functions J0 and J1 for finite nonnegative real arguments.

Two branches with a switch at x = 14:

* x <= 14: truncated power series in q = x^2/4.  The largest term at the
  switch point is ~3e4, so alternating-series cancellation costs at most a few
  ulps times that, keeping the absolute error near 1e-12.  The sum runs term
  by term, term_k = term_(k-1) * q / denom(k), for at most 42 terms, and stops
  before term k once a bound on max|term_k| is below 2^-55 times both the
  first term and min|sum|.  The first makes max q / denom(k) < 1, so no later
  term is larger; the second puts each under half an ulp of the sum, so
  round-to-nearest leaves the sum unchanged: the early stop is exact, bit for
  bit the 42-term sum.  Kernel-scale arguments (below 0.25) take 5 to 7
  terms, x near 14 about 33; near a zero, where the sum is tiny, all 42 run.
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

# The series stops once every later term is below _NO_CHANGE times the sum,
# half the half-ulp 2^-54, for margin; _ROUNDING covers the roundoff of one
# term update and of the bound itself.
_NO_CHANGE = 2.0**-55
_ROUNDING = 1.0 + 2.0**-50


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


def _series(x: np.ndarray, first: float, denom) -> np.ndarray:
    """sum_k term_k, term_0 = first, term_k = term_{k-1} * q / denom(k), q = -x^2/4.

    Stops once no later term can change a bit of the sum (module docstring),
    so the result is bitwise the full _SERIES_TERMS-term sum.  qmax is max|q|
    exactly, since squaring rounds monotonically.
    """
    q = -(x * x) / 4.0
    xmax = float(x.max(initial=0.0))
    qmax = xmax * xmax / 4.0
    term = np.full_like(x, first)
    acc = term.copy()
    bound = first  # bounds max|term_k|, rounding included
    for k in range(1, _SERIES_TERMS):
        bound *= qmax / denom(k) * _ROUNDING
        # The cheap first test also makes later terms shrink; min|acc| only after it.
        if bound < _NO_CHANGE * first and bound < _NO_CHANGE * np.abs(acc).min(initial=np.inf):
            break
        term *= q
        term /= denom(k)
        acc += term
    return acc


def _series_j0(x: np.ndarray) -> np.ndarray:
    return _series(x, 1.0, lambda k: k * k)


def _series_j1_over_x(x: np.ndarray) -> np.ndarray:
    # J1(x)/x = (1/2) sum_k (-x^2/4)^k / (k! (k+1)!); finite limit 1/2 at x = 0.
    return _series(x, 0.5, lambda k: k * (k + 1))


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


def _blend(x, name, small_branch, large_branch):
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    xmin, xmax = xv.min(initial=np.inf), xv.max(initial=0.0)
    if not (xmin >= 0 and xmax < np.inf):  # also rejects NaN
        raise ValueError(f"{name} requires a finite nonnegative argument")
    if xmax <= SERIES_SWITCH:
        out = small_branch(xv)
    else:
        out = np.empty_like(xv)
        small = xv <= SERIES_SWITCH
        out[small] = small_branch(xv[small])
        out[~small] = large_branch(xv[~small])
    return float(out[0]) if scalar else out


def j0(x):
    """Bessel function of the first kind, order 0, for x >= 0 (scalar or array)."""
    return _blend(x, "j0", _series_j0, lambda v: _asymptotic(v, 0))


def j1(x):
    """Bessel function of the first kind, order 1, for x >= 0 (scalar or array)."""
    return _blend(x, "j1", lambda v: v * _series_j1_over_x(v), lambda v: _asymptotic(v, 1))


def j1_over_x(x):
    """J1(x)/x with the analytic value 1/2 at x = 0; continuous, no cancellation."""
    return _blend(x, "j1_over_x", _series_j1_over_x, lambda v: _asymptotic(v, 1) / v)
