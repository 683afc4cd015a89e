"""Real-space evolution by direct convolution with the exact Dirac propagator.

For a step dt the propagator splits into a delta part riding the lightcone,
which translates chirality alpha by alpha*dt, and a smooth Bessel part filling
the cone interior:

    same chirality alpha:  -(dt + alpha*dx) m J1(m tau) / (2 tau)
    opposite chirality:    i m J0(m tau) / 2

with tau = sqrt(dt^2 - dx^2).  Requiring dt to be an integer multiple of the
grid spacing makes the delta term an exact cyclic shift; the smooth part is a
trapezoidal sum over the cone, so each step carries an O(dx^2) quadrature
error.  The propagator is exact in time, but how a time is split into steps
still moves that error.  On the figure grid (dx = 0.039), for the equal-weight
packet against the spectral engine with both renormalized, one step and the
walk below agree within a factor of 3 for m <= 1 up to t = 5 (at m = 1 and
t = 1.99: 1.7e-4 for one 51-cell step, 2.2e-4 for the 17-step walk); at m = 2
the one long step is the worse, 1.4e-3 against 8.2e-4 at t = 1.99 and 6.8e-3
against 2.0e-3 at t = 5.  The quadrature is not exactly unitary (at
dx = 0.04 the norm is off by 5e-6 to 9e-5 at t = 1 for m from 0.5 to
2), so evolve_to renormalizes the field it returns.  This engine serves as
the independent validator of the spectral engine, which is exact in time.

Each cone sum is one cyclic FFT convolution, O(N log N) at any cone width.  A
step transforms each field row once.  A walk lays each run of equal steps'
three tap sets (same chirality -1, cross, same chirality +1) into the rows
of one (3, N) block and transforms each row once; a correlation then
multiplies a row spectrum by a tap spectrum into one fresh length-N array,
the spectrum of its cone sum.  The step adds each new row's two cone spectra
(same chirality and cross) into the array its new field adopts, inverts it
in place and adds the two lightcone shifts to its rows.  A row's two cone
sums, so added, differ from the two direct O(N j) sums by roundoff only: at
most 1.5e-16 times (sum|S| + sum|C|) * max|psi|, S and C the row's tap sets,
as measured for N from 64 to 65536 and j from 1 to N/8.  A step costs 4
length-N FFTs (2 row transforms, 2 inverses), plus 3 per distinct step
length of the walk.  Rows are transformed by grid._fft_rows, the rule
spectral uses too: at N <= 8192 the rows of an array go in one numpy call,
so a step makes 2 calls and a tap build 1; past it a step makes 4 and a tap
build 3.
"""

from __future__ import annotations

import numpy as np

from . import bessel
from .grid import Grid1D, SpinorField, _fft_rows, check_mass, norm

# The correlation below is the only implementation, an FFT convolution in
# numpy; the name is kept for callers that report which one ran.
BACKEND_NAME = "numpy"

# evolve_to walks in steps of about this much time, snapped to whole cells.
WALK_STEP = 0.1


def cone_correlate(psi_hat: np.ndarray, taps_hat: np.ndarray, half_width: int) -> np.ndarray:
    """The spectrum of out[i] = sum_d taps[d + j] * psi[(i - d) mod N] for d in
    [-j, j], from psi_hat = fft(psi) and taps_hat, a row of the _tap_spectra
    block: psi_hat * taps_hat, in a fresh array, by the correlation theorem.
    ifft of it is the cone sum; evolve_step adds two before it inverts.

    Both spectra are only read.  The product does not need half_width; it is
    the cone's j, which sets the N (2j + 1) multiply-adds of the direct sum
    this replaces, so a profiler wrapping the call can count them.
    """
    return psi_hat * taps_hat


def _step_count(dt: float, dx: float) -> int:
    """dt in whole cells of dx, below 2**53 (where every float is whole)."""
    ratio = dt / dx
    if not abs(ratio) < 2.0**53:
        raise ValueError(f"dt = {dt} is not below 2**53 cells of dx = {dx}")
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


def walk(t: float, grid: Grid1D) -> list[tuple[int, int]]:
    """The steps evolve_to takes to reach t as (cells, count) runs, longest first:
    whole steps of round(WALK_STEP / dx) cells, then one of the remainder; no
    empty run, so none for t = 0.  Rejects, at a cost that does not grow with t,
    a t that is not a whole number of cells below 2**53, and a first (longest)
    step whose lightcone would wrap around the periodic domain.
    """
    per_step = max(int(round(WALK_STEP / grid.dx)), 1)
    whole, rest = divmod(_step_count(t, grid.dx), per_step)
    runs = [(cells, count) for cells, count in ((per_step, whole), (rest, 1)) if cells and count]
    if runs:
        _check_cone(runs[0][0] * grid.dx, grid)
    return runs


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
    _fft_rows(block, out=block)
    block.flags.writeable = False  # a walk shares it between steps
    return block


def evolve_step(field: SpinorField, m: float, dt: float, spectra: np.ndarray | None = None) -> SpinorField:
    """One propagator application: cyclic shift plus cone convolution.

    m must be nonnegative and finite.  dt must be a nonnegative integer
    multiple of the grid spacing and small enough that the lightcone stays
    well inside the periodic domain.
    spectra, if given, must be _tap_spectra of this step's cells, grid and
    mass; without it the step builds its own.
    """
    check_mass(m)
    grid = field.grid
    j = _step_count(dt, grid.dx)
    if j == 0:
        return field
    _check_cone(dt, grid)
    if m == 0:
        # -0.0 is the exact identity of +, so adding the shifts below gives
        # them bit for bit.
        values = np.full((2, grid.n_points), complex(-0.0, -0.0))
    else:
        same_minus, cross, same_plus = _tap_spectra(j, grid, m) if spectra is None else spectra
        minus_hat, plus_hat = _fft_rows(field.values)
        # Each new row's two cone sums are added as spectra in the fresh array
        # the new field adopts, row by row so that one product at a time is
        # held beside it, and inverted in place once the field spectra are
        # dropped.
        values = np.empty((2, grid.n_points), dtype=np.complex128)
        values[0] = cone_correlate(minus_hat, same_minus, j)
        values[0] += cone_correlate(plus_hat, cross, j)
        values[1] = cone_correlate(plus_hat, same_plus, j)
        values[1] += cone_correlate(minus_hat, cross, j)
        del minus_hat, plus_hat
        _fft_rows(values, inverse=True, out=values)
    # Delta term: component alpha translated by alpha*dt, that is np.roll by
    # alpha*j, added to the rows.
    minus, plus = field.values
    out_minus, out_plus = values
    out_minus[:-j] += minus[j:]
    out_minus[-j:] += minus[:j]
    out_plus[j:] += plus[:-j]
    out_plus[:j] += plus[-j:]
    values.flags.writeable = False  # so the field adopts it without a copy
    return SpinorField(grid, values)


def evolve_to(field: SpinorField, m: float, t: float) -> SpinorField:
    """Evolve to time t along walk(t, grid), then renormalize; t = 0 returns the field.

    Each run of equal steps shares one build of its tap spectra (none at m = 0).
    """
    check_mass(m)
    grid = field.grid
    runs = walk(t, grid)
    if not runs:
        return field
    out = field
    for cells, count in runs:
        spectra = _tap_spectra(cells, grid, m) if m != 0 else None
        for _ in range(count):
            out = evolve_step(out, m, cells * grid.dx, spectra=spectra)
    values = out.values / np.sqrt(norm(out))
    values.flags.writeable = False  # adopted, as in evolve_step
    return SpinorField(out.grid, values)
