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
sum|taps| * max|psi| as measured for N from 64 to 65536.  A step transforms
each field row once.  A walk lays each run of equal steps' three tap sets
(same chirality -1, cross, same chirality +1) into the rows of one (3, N)
block and transforms each row once; a correlation then multiplies a row
spectrum by a tap spectrum into one fresh length-N array, inverts it in
place and returns it.  A step costs 6 length-N FFTs (2 row transforms, 4
inverses), plus 3 per distinct step length of the walk.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import bessel
from .grid import Grid1D, SpinorField, norm

# The correlation below is the only implementation, an FFT convolution in
# numpy; the name is kept for callers that report which one ran.
BACKEND_NAME = "numpy"

# evolve_to walks in steps of about this much time, snapped to whole cells.
WALK_STEP = 0.1


def cone_correlate(psi_hat: np.ndarray, taps_hat: np.ndarray, half_width: int) -> np.ndarray:
    """out[i] = sum_d taps[d + j] * psi[(i - d) mod N] for d in [-j, j], by FFT,
    from psi_hat = fft(psi) and taps_hat, a row of the _tap_spectra block.

    Both spectra are only read.  The product does not need half_width; it is
    the cone's j, which sets the N (2j + 1) multiply-adds of the direct sum
    this replaces, so a profiler wrapping the call can count them.
    """
    out = psi_hat * taps_hat
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


def _tap_spectra(j: int, grid: Grid1D, m: float) -> np.ndarray:
    """The spectra of a j-cell step's tap sets as the rows of one read-only
    (3, N) block: same chirality -1, cross, same chirality +1.

    Row r is fft(h) of its taps laid out cyclically, h[d mod N] = taps[d + j];
    _check_cone caps j at N/8, so no two taps share a cell.
    """
    same, cross = _smooth_taps(j, grid.dx, m)
    n = grid.n_points
    block = np.zeros((3, n), dtype=np.complex128)
    for row, taps in zip(block, (same[-1], cross, same[1])):
        row[:j + 1] = taps[j:]
        row[n - j:] = taps[:j]
        np.fft.fft(row, out=row)
    block.flags.writeable = False  # a walk shares it between steps
    return block


def evolve_step(field: SpinorField, m: float, dt: float, spectra: np.ndarray | None = None) -> SpinorField:
    """One propagator application: cyclic shift plus cone convolution.

    dt must be a nonnegative integer multiple of the grid spacing and small
    enough that the lightcone stays well inside the periodic domain.
    spectra, if given, must be _tap_spectra of this step's cells, grid and
    mass; without it the step builds its own.
    """
    grid = field.grid
    j = _step_count(dt, grid.dx)
    if j == 0:
        return field
    _check_cone(dt, grid)
    # Delta term: component alpha translated by alpha*dt, stacked into the
    # fresh array the new field adopts; the cone sums are added to its rows.
    values = np.stack([np.roll(field.minus, -j), np.roll(field.plus, j)])
    out_minus, out_plus = values
    if m != 0:
        same_minus, cross, same_plus = _tap_spectra(j, grid, m) if spectra is None else spectra
        minus_hat = np.fft.fft(field.minus)
        plus_hat = np.fft.fft(field.plus)
        out_minus += cone_correlate(minus_hat, same_minus, j)
        out_minus += cone_correlate(plus_hat, cross, j)
        out_plus += cone_correlate(plus_hat, same_plus, j)
        out_plus += cone_correlate(minus_hat, cross, j)
    values.flags.writeable = False  # so the field adopts it without a copy
    return SpinorField(grid, values)


def evolve_to(field: SpinorField, m: float, t: float) -> SpinorField:
    """Evolve to time t along walk(t, grid), then renormalize; t = 0 returns the field.

    Each run of equal steps shares one build of its tap spectra (none at m = 0).
    """
    grid = field.grid
    steps = walk(t, grid)
    if not steps:
        return field
    out = field
    for cells, run in itertools.groupby(steps):
        spectra = _tap_spectra(cells, grid, m) if m != 0 else None
        for _ in run:
            out = evolve_step(out, m, cells * grid.dx, spectra=spectra)
    values = out.values / np.sqrt(norm(out))
    values.flags.writeable = False  # adopted, as in evolve_step
    return SpinorField(out.grid, values)
