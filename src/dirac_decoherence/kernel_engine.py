"""Real-space evolution by direct convolution with the exact Dirac propagator.

For a step dt the propagator splits into a delta part riding the lightcone,
which translates chirality alpha by alpha*dt, and a smooth Bessel part filling
the cone interior:

    same chirality alpha:  -(dt + alpha*dx) m J1(m tau) / (2 tau)
    opposite chirality:    i m J0(m tau) / 2

with tau = sqrt(dt^2 - dx^2).  Requiring dt to be an integer multiple of the
grid spacing makes the delta term an exact cyclic shift; the smooth part is a
trapezoidal sum over the cone, so each step carries an O(dx^2) quadrature
error.  The propagator is exact in time, so that error depends on dx and not
on how a time is split into steps.  The quadrature is not exactly unitary
(at dx = 0.04 the norm is off by 5e-6 to 9e-5 at t = 1 for m from 0.5 to
2), so evolve_to renormalizes the field it returns.  This engine serves as
the independent validator of the spectral engine, which is exact in time.

Each cone sum is one cyclic FFT convolution, O(N log N) at any cone width; it
differs from the direct O(N j) sum by roundoff only, at most 2e-15 times
sum|taps| * max|psi| as measured for N from 64 to 65536.  A correlation
holds two length-N temporaries: the taps' spectrum and the field's, which is
multiplied and inverted in place and returned.
"""

from __future__ import annotations

import numpy as np

from . import bessel
from .grid import Grid1D, SpinorField, norm

# The correlation below is the only implementation, an FFT convolution in
# numpy; the name is kept for callers that report which one ran.
BACKEND_NAME = "numpy"

# evolve_to walks in steps of about this much time, snapped to whole cells.
WALK_STEP = 0.1


def cone_correlate(psi: np.ndarray, taps: np.ndarray, half_width: int) -> np.ndarray:
    """out[i] = sum_d taps[d + j] * psi[(i - d) mod N] for d in [-j, j], by FFT.

    The 2j + 1 taps must fit in N cells, or wrapped taps would share an index.
    psi and taps are only read, so read-only views are fine.
    """
    n = len(psi)
    if len(taps) != 2 * half_width + 1 or len(taps) > n:
        raise ValueError(f"need 2*half_width + 1 taps, at most len(psi) = {n}; "
                         f"got half_width = {half_width} and {len(taps)} taps")
    # h[d mod N] = taps[d + j]; both spectra are transformed in place.
    h = np.zeros(n, dtype=np.complex128)
    h[:half_width + 1] = taps[half_width:]
    h[n - half_width:] = taps[:half_width]
    out = np.fft.fft(psi)
    out *= np.fft.fft(h, out=h)
    return np.fft.ifft(out, out=out)


def _step_count(dt: float, dx: float) -> int:
    ratio = dt / dx
    j = int(round(ratio))
    if abs(ratio - j) > 1e-9 or j < 0:
        raise ValueError(
            f"dt = {dt} is not a nonnegative integer multiple of dx = {dx}; "
            f"nearest commensurate value is {max(j, 0) * dx}"
        )
    return j


def _smooth_taps(j: int, dx: float, m: float):
    """Trapezoid-weighted taps of the step dt = j*dx over offsets d in [-j, j], times dx.

    The equal-chirality taps are written with J1(x)/x so the lightcone edge
    tau = 0 takes its finite analytic value.
    """
    dt = j * dx
    d = np.arange(-j, j + 1)
    sep = d * dx
    tau = dx * np.sqrt(np.maximum(j * j - d * d, 0).astype(np.float64))
    weights = np.ones(2 * j + 1)
    weights[0] = weights[-1] = 0.5
    cross = 1j * (m / 2.0) * bessel.j0(m * tau) * weights * dx
    same = {
        alpha: -(dt + alpha * sep) * (m * m / 2.0) * bessel.j1_over_x(m * tau) * weights * dx
        for alpha in (-1, 1)
    }
    return same, cross


def _check_cone(dt: float, grid: Grid1D) -> None:
    if dt > grid.half_extent / 4.0:
        raise ValueError(
            f"dt = {dt} exceeds L/4 = {grid.half_extent / 4.0}; the lightcone "
            f"would wrap around the periodic domain"
        )


def walk(t: float, grid: Grid1D) -> list[int]:
    """The cells of each step evolve_to takes to reach t: whole steps of
    round(WALK_STEP / dx) cells, the remainder last; none for t = 0.

    Rejects a t that is not a whole number of cells, and a first (longest)
    step whose lightcone would wrap around the periodic domain.
    """
    per_step = max(int(round(WALK_STEP / grid.dx)), 1)
    whole, rest = divmod(_step_count(t, grid.dx), per_step)
    steps = [per_step] * whole + ([rest] if rest else [])
    if steps:
        _check_cone(steps[0] * grid.dx, grid)
    return steps


def evolve_step(field: SpinorField, m: float, dt: float) -> SpinorField:
    """One propagator application: cyclic shift plus cone convolution.

    dt must be a nonnegative integer multiple of the grid spacing and small
    enough that the lightcone stays well inside the periodic domain.
    """
    grid = field.grid
    j = _step_count(dt, grid.dx)
    if j == 0:
        return field
    _check_cone(dt, grid)
    # Delta term: component alpha translated by alpha*dt.  np.roll returns a
    # fresh complex128 array, so the cone sums can be added in place.
    out_minus = np.roll(field.minus, -j)
    out_plus = np.roll(field.plus, j)
    if m != 0:
        same, cross = _smooth_taps(j, grid.dx, m)
        out_minus += cone_correlate(field.minus, same[-1], j)
        out_minus += cone_correlate(field.plus, cross, j)
        out_plus += cone_correlate(field.plus, same[1], j)
        out_plus += cone_correlate(field.minus, cross, j)
    return SpinorField(grid, np.stack([out_minus, out_plus]))


def evolve_to(field: SpinorField, m: float, t: float) -> SpinorField:
    """Evolve to time t along walk(t, grid), then renormalize; t = 0 returns the field."""
    steps = walk(t, field.grid)
    out = field
    for cells in steps:
        out = evolve_step(out, m, cells * field.grid.dx)
    return SpinorField(out.grid, out.values / np.sqrt(norm(out))) if steps else field
