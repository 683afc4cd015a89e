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
still moves that error, and the quadrature is not exactly unitary, so
evolve_to renormalizes the field it returns.  This engine serves as the
independent validator of the spectral engine, which is exact in time.

Each cone sum is one cyclic FFT convolution, O(N log N) at any cone width,
and a j-cell step is diagonal in the FFT index n: it multiplies the field's
row spectra by the 2x2 symbol

    K_j(n) = [[e^{i theta} + S-(n), C(n)], [C(n), e^{-i theta} + S+(n)]],
    theta = 2 pi n j / N.

S-, C and S+ are the spectra of the tap sets (same chirality -1, cross, same
chirality +1) laid out cyclically, and the phases are the spectra of the
lightcone deltas, weight 1 at offset -j and +j.  _tap_spectra adds each delta
to its same-chirality taps, so the rows of the (3, N) block it returns are
the symbol's entries, and it makes them from one transform: the same-
chirality taps are real and the cross taps purely imaginary, so one complex
row carries S- and C, and chirality +1 mirrors chirality -1, so
S+(n) = S-(-n).  A step at m > 0 then reads its field's spectrum, writes the
four cone_correlate products, row by row, into the spectrum of the field it
returns, and makes no FFT: that field computes its values only when they are
read (grid.SpinorField).  A walk costs 1 forward transform of its first
field's two rows (kept on the field, so a second walk from it pays none), 1
row per distinct step length for the tap spectra, and 1 inverse of two rows
when evolve_to reads the last field's values to renormalize.  At m = 0 a
step has no taps and shifts the rows in position space, bit for bit.  Each
of these transforms is one numpy call over its array's last axis.

Stepping spectra moves the result by roundoff only.  The tests hold one
step within 2e-15 max|psi| of a step that inverts each row's two cone
spectra and adds the shifts in position space (N from 1000 to 32768, j from
1 to N/8, m from 0.5 to 2), each symbol row within 2e-15 max|K_j| of its
own transform (N from 1000 to 16384, j from 1 to N/8, m from 0 to 50), and
a cone sum within 1e-12 of the direct O(N j) sum on unit-scale random rows
(N from 64 to 1024, j from 1 to N/8).
"""

from __future__ import annotations

import numpy as np

from . import bessel
from .grid import Grid1D, SpinorField, check_mass, normalized

# The correlation below is the only implementation, an FFT convolution in
# numpy; the name is kept for callers that report which one ran.
BACKEND_NAME = "numpy"

# evolve_to walks in steps of about this much time per 20 units of L, snapped
# to whole cells: the same cells at any unit of length.
WALK_STEP = 0.1


def cone_correlate(psi_hat: np.ndarray, taps_hat: np.ndarray, half_width: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The spectrum of out[i] = sum_d taps[d + j] * psi[(i - d) mod N] for d in
    [-j, j], from psi_hat = fft(psi) and taps_hat, a row of the _tap_spectra
    block: psi_hat * taps_hat by the correlation theorem, written into out if
    given and into a fresh array if not.  A same-chirality row carries its
    lightcone delta, so its product is the spectrum of the shift and the cone
    sum together; evolve_step adds two products per new row and inverts none.

    Both spectra are only read.  The product does not need half_width; it is
    the cone's j, which sets the N (2j + 1) multiply-adds of the direct sum
    this replaces, so a profiler wrapping the call can count them.
    """
    return np.multiply(psi_hat, taps_hat, out=out)


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
    whole steps of round(WALK_STEP (L / 20) / dx) cells, then one of the remainder; no
    empty run, so none for t = 0.  Rejects, at a cost that does not grow with t,
    a t that is not a whole number of cells below 2**53, and a first (longest)
    step whose lightcone would wrap around the periodic domain.
    """
    per_step = max(int(round(WALK_STEP * (grid.half_extent / 20.0) / grid.dx)), 1)
    whole, rest = divmod(_step_count(t, grid.dx), per_step)
    runs = [(cells, count) for cells, count in ((per_step, whole), (rest, 1)) if cells and count]
    if runs:
        _check_cone(runs[0][0] * grid.dx, grid)
    return runs


def _tap_spectra(j: int, grid: Grid1D, m: float) -> np.ndarray:
    """The entries of a j-cell step's symbol K_j as the rows of one read-only
    (3, N) block: same chirality -1, cross, same chirality +1, from one
    N-point transform.

    Row r is fft(h) of its taps laid out cyclically, h[d mod N] = taps[d + j],
    with the lightcone delta, weight 1 at offset -j in row 0 and at +j in
    row 2, added in; _check_cone caps j at N/8, so no two taps share a cell.
    The same-chirality -1 row h- is real and the cross row c purely
    imaginary, so Z = fft(h- + c) carries both: fft(h-) is the part with
    Z(-n) = conj Z(n), (Z(n) + conj Z(-n))/2, and fft(c) = Z - fft(h-).
    The chirality +1 taps and delta are those of -1 mirrored, d to -d, bit
    for bit, so row 2 is row 0 at index -n mod N.
    """
    same, cross = _smooth_taps(j, grid.dx, m)
    n = grid.n_points
    block = np.zeros((3, n), dtype=np.complex128)
    same_minus, cross_hat, same_plus = block
    # z = h- + c goes in the middle row and is transformed to Z in place;
    # the outer rows are scratch until the unpack fills them.
    np.add(same[-1][j:], cross[j:], out=cross_hat[:j + 1])
    np.add(same[-1][:j], cross[:j], out=cross_hat[n - j:])
    cross_hat[n - j] += 1.0
    np.fft.fft(cross_hat, out=cross_hat)
    # conj Z(-n) into row 2, then fft(h-) into row 0 and fft(c) into row 1.
    np.conjugate(cross_hat[:1], out=same_plus[:1])
    np.conjugate(cross_hat[:0:-1], out=same_plus[1:])
    np.add(cross_hat, same_plus, out=same_minus)
    same_minus /= 2
    cross_hat -= same_minus
    # Row 2 is row 0 at index -n mod N.
    same_plus[0] = same_minus[0]
    same_plus[1:] = same_minus[:0:-1]
    block.flags.writeable = False  # a walk shares it between steps
    return block


def evolve_step(field: SpinorField, m: float, dt: float, spectra: np.ndarray | None = None) -> SpinorField:
    """One propagator application: lightcone shift plus cone convolution.

    At m > 0 the step multiplies the field's spectrum by the symbol K_j
    (module docstring), with no FFT: its four cone_correlate products go row
    by row into the spectrum of the field it returns.  The input's spectrum
    is computed once if it was made from values; a field a step made has it.
    At m = 0 the step shifts the rows in position space, signed zeros and all.

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
    n = grid.n_points
    if m == 0:
        # Component alpha translated by alpha*dt, that is np.roll by alpha*j.
        values = np.stack([np.roll(field.minus, -j), np.roll(field.plus, j)])
        values.flags.writeable = False  # so the field adopts it without a copy
        return SpinorField(grid, values)
    same_minus, cross, same_plus = _tap_spectra(j, grid, m) if spectra is None else spectra
    minus_hat, plus_hat = field.spectrum
    spectrum = np.empty((2, n), dtype=np.complex128)
    new_minus, new_plus = spectrum
    # Each new row is its same-chirality product plus its cross product, the
    # second made in one scratch row.
    scratch = np.empty(n, dtype=np.complex128)
    cone_correlate(minus_hat, same_minus, j, out=new_minus)
    new_minus += cone_correlate(plus_hat, cross, j, out=scratch)
    cone_correlate(plus_hat, same_plus, j, out=new_plus)
    new_plus += cone_correlate(minus_hat, cross, j, out=scratch)
    spectrum.flags.writeable = False  # adopted, as values are
    return SpinorField.from_spectrum(grid, spectrum)


def evolve_to(field: SpinorField, m: float, t: float) -> SpinorField:
    """Evolve to time t along walk(t, grid), then renormalize; t = 0 returns the field.

    Each run of equal steps shares one build of its tap spectra (none at
    m = 0), dropped before the next run's.  At m > 0 the walk steps spectra,
    and only the last field's values are computed, to renormalize.  A step
    whose m * dt passes 200 is rejected by name by the bessel functions, and
    a walk whose norm is not finite and positive (its taps overflow over many
    steps at a large mass) by grid.normalized, naming the walk, each with no
    numpy warning before it.
    """
    check_mass(m)
    grid = field.grid
    runs = walk(t, grid)
    if not runs:
        return field
    out = field
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends as an inf or NaN norm
        for cells, count in runs:
            spectra = _tap_spectra(cells, grid, m) if m != 0 else None
            for _ in range(count):
                out = evolve_step(out, m, cells * grid.dx, spectra=spectra)
            del spectra
        return normalized(out, f"the kernel walk to t = {t} at mass = {m}")
