"""Bessel functions J0 and J1 for real arguments in [0, 200], by Bessel's integrals.

    J0(x)   = (1/pi) int_0^pi cos(x sin theta) d theta
    J1(x)/x = (1/pi) int_0^pi cos^2 theta cos(x sin theta) d theta

Both integrands are smooth and pi-periodic, so the M-point trapezoid rule on
[0, pi), nodes theta_k = k pi / M, converges geometrically (Trefethen and
Weideman, SIAM Review 56 (2014) 385): its aliasing error is about
|J_{2M-2}(x)|.  M = ceil(0.75 x_max) + 12, x_max the call's largest argument,
puts that below roundoff on the whole domain, so the rule has no knob.
j0 and j1_over_x are within 4e-15 of the 60-digit power series on [0, 200],
and j1 = x * j1_over_x within x * 4e-15.  Each divides its weighted sum by
the weights' own sum, so j0(0) = 1, j1_over_x(0) = 0.5 and j1(0) = 0 exactly.

Because M comes from the call's largest argument, an argument's last bit can
depend on the others in its call; within a call it depends only on the
argument, so equal arguments give equal bits.  kernel_engine._smooth_taps
passes one array to all its calls, so its chirality mirror stays bitwise.
The domain ends at 200 because the rule takes about 0.75 x nodes per
argument; a larger, negative or non-finite argument is rejected by name.
"""

from __future__ import annotations

import math

import numpy as np

# The largest argument: the end of the range tested against the 60-digit series.
LARGEST = 200.0


def _trapezoid(x, name, power):
    """sum_k w_k cos(x sin theta_k) / sum_k w_k, w_k = cos(theta_k)^power, over
    the M nodes of [0, pi) (module docstring), for scalar or array x."""
    x = np.asarray(x, dtype=np.float64)
    xv = np.atleast_1d(x)
    lo, hi = float(xv.min(initial=np.inf)), float(xv.max(initial=-np.inf))
    if not (lo >= 0 and hi <= LARGEST):  # also rejects NaN
        raise ValueError(f"{name} requires finite nonnegative arguments up to {LARGEST}; "
                         f"got arguments from {lo!r} to {hi!r}")
    m = math.ceil(0.75 * max(hi, 0.0)) + 12
    theta = np.arange(m) * (np.pi / m)
    w = np.cos(theta) ** power
    terms = xv[..., None] * np.sin(theta)
    np.cos(terms, out=terms)
    terms *= w
    out = terms.sum(axis=-1) / w.sum()
    return float(out[0]) if x.ndim == 0 else out


def j0(x):
    """Bessel function of the first kind, order 0, for x in [0, 200] (scalar or array)."""
    return _trapezoid(x, "j0", 0)


def j1_over_x(x):
    """J1(x)/x for x in [0, 200], with the analytic value 1/2 at x = 0."""
    return 0.5 * _trapezoid(x, "j1_over_x", 2)


def j1(x):
    """Bessel function of the first kind, order 1, for x in [0, 200] (scalar or array)."""
    x = np.asarray(x, dtype=np.float64)
    out = x * (0.5 * _trapezoid(x, "j1", 2))
    return float(out) if x.ndim == 0 else out
