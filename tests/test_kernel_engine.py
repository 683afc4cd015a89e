import math
import re
import warnings

import numpy as np
import pytest

from dirac_decoherence import bessel, kernel_engine, spectral
from dirac_decoherence.grid import Grid1D, SpinorField, make_gaussian_packet, norm

from oracles import (
    kernel_step_four_inverses_reference,
    kernel_step_position_reference,
    kernel_step_reference,
    symbol_rows_reference,
    symbol_rows_three_transform_reference,
)


def rel_l2(a, b):
    return np.linalg.norm(a.values - b.values) / np.linalg.norm(b.values)


def compose(field, m, t, n_steps):
    """n_steps equal propagator steps reaching time t, without renormalizing."""
    for _ in range(n_steps):
        field = kernel_engine.evolve_step(field, m, t / n_steps)
    return field


def test_smooth_taps_vanish_massless():
    same, cross = kernel_engine._smooth_taps(4, 0.025, 0.0)
    for taps in (same[-1], same[1], cross):
        assert np.abs(taps).max() == 0.0


def test_smooth_taps_cross_small_time_limit():
    # One cell of width dx = 1e-9: the centre cross tap, divided by dx, is i m / 2.
    dx = 1e-9
    _, cross = kernel_engine._smooth_taps(1, dx, 1.0)
    assert cross[1] / dx == pytest.approx(0.5j, abs=1e-12)


def test_smooth_taps_backward_edge_zero():
    # Chirality alpha has no smooth weight at separation -alpha*dt.
    j, dx = 8, 0.025
    same, _ = kernel_engine._smooth_taps(j, dx, 1.0)
    assert same[1][0] == 0.0
    assert same[-1][-1] == 0.0


def test_smooth_taps_component_structure():
    # Equal-chirality taps real, cross taps purely imaginary.
    same, cross = kernel_engine._smooth_taps(8, 0.025, 1.5)
    for alpha in (-1, 1):
        assert np.isrealobj(same[alpha])
    assert np.abs(cross.real).max() == 0.0


# The grid of each step length: j = 128 on 1024 points and j = 125 on 1000
# are the longest steps evolve_step accepts there (dt = L/4, j = N/8); j = 41
# on 32768 points is a step on a grid past desk scale.
STEP_GRIDS = {1: 1024, 2: 1024, 3: 1024, 7: 1024, 128: 1024, 125: 1000, 41: 32768}


def random_values(n_points, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(2, n_points)) + 1j * rng.normal(size=(2, n_points))


@pytest.mark.parametrize("j", list(STEP_GRIDS))
@pytest.mark.parametrize("m", [0.5, 1.3, 2.0])
def test_step_bitwise_equal_to_reference(j, m):
    # The out-of-place trapezoid rule for the Bessel values, index-array tap
    # layout with the lightcone deltas and out-of-place FFTs give the same
    # bits as the in-place rule, the sliced tap block and in-place
    # transforms: the step's spectrum, and its values when they are read.
    grid = Grid1D(20.0, STEP_GRIDS[j])
    values = random_values(grid.n_points, j)
    out = kernel_engine.evolve_step(SpinorField(grid, values), m, j * grid.dx)
    expected = kernel_step_reference(np.fft.fft(values, axis=1), grid.dx, m, j)
    assert out.spectrum.tobytes() == expected.tobytes()
    assert out.values.tobytes() == np.fft.ifft(expected, axis=1).tobytes()


@pytest.mark.parametrize("j", list(STEP_GRIDS))
@pytest.mark.parametrize("m", [0.5, 1.3, 2.0])
def test_step_within_roundoff_of_position_step(j, m):
    # Stepping the spectrum moves the step by roundoff only from adding the
    # lightcone shifts in position space to each row's inverted cone sums
    # (at most 6.0e-16 max|psi| over these cases).
    grid = Grid1D(20.0, STEP_GRIDS[j])
    values = random_values(grid.n_points, j)
    out = kernel_engine.evolve_step(SpinorField(grid, values), m, j * grid.dx)
    position = kernel_step_position_reference(values, grid.dx, m, j)
    assert np.abs(out.values - position).max() <= 2e-15 * np.abs(values).max()


@pytest.mark.parametrize("j", list(STEP_GRIDS))
@pytest.mark.parametrize("m", [0.5, 1.3, 2.0])
def test_step_within_roundoff_of_four_inverses(j, m):
    # Nor does it move by more than roundoff from inverting each of the four
    # cone sums on its own.
    grid = Grid1D(20.0, STEP_GRIDS[j])
    values = random_values(grid.n_points, j)
    out = kernel_engine.evolve_step(SpinorField(grid, values), m, j * grid.dx)
    four = kernel_step_four_inverses_reference(values, grid.dx, m, j)
    assert np.abs(out.values - four).max() <= 1e-15 * np.abs(values).max()


# (N, j, m) of the symbol tests: one to N/8 cells, N up to 16384, the
# massless taps and a mass far past m dx = 1.
SYMBOL_CASES = [(1024, 1, 1.0), (1024, 3, 2.0), (1024, 128, 1.0), (1000, 125, 0.7), (16384, 41, 1.3),
                (1024, 3, 0.0), (1024, 13, 50.0)]


@pytest.mark.parametrize("n_points,j,m", SYMBOL_CASES)
def test_step_is_diagonal_in_the_fft_index(n_points, j, m):
    # A j-cell step multiplies fft(psi) at each index n by the 2x2 symbol
    # [[e^{i theta} + S-, C], [C, e^{-i theta} + S+]], theta = 2 pi n j / N,
    # whose entries are the rows of _tap_spectra: the spectra of the taps
    # laid at offsets d mod N, with the lightcone deltas at -j and +j giving
    # the phases (the taps are all zero at m = 0, where a step shifts the
    # rows in position space).  The rows are unpacked from one transform of
    # the real chirality -1 row plus the imaginary cross row, bit for bit.
    grid = Grid1D(20.0, n_points)
    spectra = kernel_engine._tap_spectra(j, grid, m)
    same, cross_taps = kernel_engine._smooth_taps(j, grid.dx, m)
    assert np.array_equal(spectra, symbol_rows_reference(same, cross_taps, j, n_points))
    laid = np.zeros((3, n_points), dtype=np.complex128)
    laid[:, np.arange(-j, j + 1) % n_points] = [same[-1], cross_taps, same[1]]
    taps_hat = np.fft.fft(laid, axis=1)
    shift = np.exp(2j * np.pi * np.arange(n_points) * j / n_points)
    assert np.abs(spectra - taps_hat - [shift, np.zeros_like(shift), shift.conj()]).max() < 1e-12
    values = random_values(n_points, n_points + j)
    out = kernel_engine.evolve_step(SpinorField(grid, values), m, j * grid.dx)
    minus_hat, plus_hat = np.fft.fft(values, axis=1)
    same_minus, cross, same_plus = spectra
    expected = np.array([
        same_minus * minus_hat + cross * plus_hat,
        cross * minus_hat + same_plus * plus_hat,
    ])
    tol = 1e-12 * np.abs([minus_hat, plus_hat]).max()
    assert np.abs(out.spectrum - expected).max() < tol


@pytest.mark.parametrize("n_points,j,m", SYMBOL_CASES)
def test_tap_spectra_within_roundoff_of_three_transforms(n_points, j, m):
    # Unpacking the one transform moves each row by roundoff only from
    # transforming each tap set, with its delta, on its own.
    grid = Grid1D(20.0, n_points)
    spectra = kernel_engine._tap_spectra(j, grid, m)
    three = symbol_rows_three_transform_reference(*kernel_engine._smooth_taps(j, grid.dx, m), j, n_points)
    for row, expected in zip(spectra, three):
        assert np.abs(row - expected).max() <= 2e-15 * np.abs(three).max()


@pytest.mark.parametrize("n_points,j,m", SYMBOL_CASES)
def test_tap_spectra_chirality_plus_row_is_the_minus_row_mirrored(n_points, j, m):
    # Row 2 is row 0 at index -n mod N, bit for bit.
    spectra = kernel_engine._tap_spectra(j, Grid1D(20.0, n_points), m)
    assert spectra[2].tobytes() == spectra[0][-np.arange(n_points) % n_points].tobytes()


@pytest.mark.parametrize("j,dx,m", [(1, 0.039, 1.0), (13, 0.039, 50.0), (41, 20 / 8192, 1.3),
                                    (164, 40 / 65536, 1.3), (8, 0.025, 0.0), (125, 0.04, 40.0)])
def test_smooth_taps_chirality_plus_is_the_minus_taps_reversed(j, dx, m):
    # Offset d of chirality +1 is offset -d of chirality -1, bit for bit, up
    # to the largest Bessel argument, m * dt = 200 in the last case: what
    # lets _tap_spectra mirror its row 0.
    same, _ = kernel_engine._smooth_taps(j, dx, m)
    assert same[1].tobytes() == same[-1][::-1].tobytes()


@pytest.mark.parametrize("n_points,cells", [(1024, 10), (16384, 100), (32768, 100), (65536, 400)],
                         ids=["n1024", "n16384", "n32768", "n65536"])
def test_numpy_transform_calls_per_step(n_points, cells, fft_calls):
    # A field's two rows go in one numpy call at every N, and a tap build
    # transforms one row, in one call.  A step from a field a step made
    # multiplies spectra and makes no call; reading its values inverts its
    # rows, once.  A walk (10 cells: 3 + 3 + 3 + 1; 100 cells: 41 + 41 + 18
    # at 16384 points, 82 + 18 at 32768; 400 cells at 65536: 164 + 164 + 72)
    # transforms its first field, builds taps once per step length and
    # inverts its last field, two step lengths each; the first field keeps
    # its spectrum, so a second walk from it makes no forward call for it.
    grid = Grid1D(20.0, n_points)
    spectra = kernel_engine._tap_spectra(3, grid, 1.0)
    stepped = kernel_engine.evolve_step(make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0)), 1.0, 3 * grid.dx,
                                        spectra=spectra)
    fft_calls.zero()
    twice = kernel_engine.evolve_step(stepped, 1.0, 3 * grid.dx, spectra=spectra)
    assert fft_calls == {"fft": 0, "ifft": 0, "fft_rows": 0, "ifft_rows": 0}
    assert twice.values is twice.values
    assert fft_calls == {"fft": 0, "ifft": 1, "fft_rows": 0, "ifft_rows": 2}
    fft_calls.zero()
    kernel_engine._tap_spectra(3, grid, 1.0)
    assert fft_calls == {"fft": 1, "ifft": 0, "fft_rows": 1, "ifft_rows": 0}
    fresh = make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0))
    for forward_calls, forward_rows in ((3, 4), (2, 2)):
        fft_calls.zero()
        kernel_engine.evolve_to(fresh, 1.0, cells * grid.dx)
        assert fft_calls == {"fft": forward_calls, "ifft": 1, "fft_rows": forward_rows, "ifft_rows": 2}


@pytest.mark.parametrize("m", [-1.0, np.nan, np.inf])
def test_kernel_rejects_a_mass_it_cannot_use(equal_packet, m, monkeypatch):
    # Named as the mass, before any tap is built, not as a Bessel argument.
    def no_taps(*args):
        raise AssertionError("taps built for a rejected mass")

    monkeypatch.setattr(kernel_engine, "_smooth_taps", no_taps)
    message = f"mass must be nonnegative and finite, got {m}"
    dt = 3 * equal_packet.grid.dx
    with pytest.raises(ValueError, match=message):
        kernel_engine.evolve_step(equal_packet, m, dt)
    with pytest.raises(ValueError, match=message):
        kernel_engine.evolve_to(equal_packet, m, dt)


@pytest.mark.parametrize("m,total", [(1000.0, "inf"), (1700.0, "nan"), (1e20, None)])
def test_evolve_to_rejects_a_norm_that_is_not_finite(equal_packet, m, total):
    # The taps overflow at these masses over 100 steps of 3 cells: the walk
    # ends with an infinite or NaN norm, and is rejected by name where it used
    # to be divided out to an all-zero or all-NaN field, with no numpy warning
    # before it.  At m = 1e20 a step needs J past 200 and is rejected first,
    # by the walk.
    t = 300 * equal_packet.grid.dx
    message = (f"the kernel walk to t = {t} at mass = {m} ends with norm {total}, not finite and "
               f"positive, so it cannot be renormalized")
    if total is None:
        message = ("mass = 1e+20 is too large for the kernel engine: its longest step, dt = 0.1171875, "
                   "needs Bessel arguments up to m * dt = 1.171875e+19, past 200.0; the largest mass "
                   "for this step is 1706.6666666666667")
    with warnings.catch_warnings(), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        warnings.simplefilter("error")
        kernel_engine.evolve_to(equal_packet, m, t)


def test_a_mass_past_the_bessel_domain_is_rejected_before_any_bessel_call(equal_packet, monkeypatch):
    # evolve_to and evolve_step refuse m * dt past 200 by the mass, through
    # _check_step, before any tap is built: j0 is never called.
    calls = []
    j0 = bessel.j0

    def counting_j0(x):
        calls.append(x)
        return j0(x)

    monkeypatch.setattr(bessel, "j0", counting_j0)
    dt = 3 * equal_packet.grid.dx
    message = re.escape("mass = 1e+20 is too large for the kernel engine: its longest step, dt = 0.1171875")
    with pytest.raises(ValueError, match=message):
        kernel_engine.evolve_to(equal_packet, 1e20, 10 * dt)
    with pytest.raises(ValueError, match=message):
        kernel_engine.evolve_step(equal_packet, 1e20, dt)
    assert calls == []


# At L = 20 and N = 424, 536, 848 or 952, 200/dt is itself refused; 1024 is
# the figure grid.  Then 40 seeded even N from 8 to 69998 on each of ten boxes.
_NAMED_MASS_GRIDS = [Grid1D(20.0, n) for n in (424, 536, 848, 952, 1024)] + [
    Grid1D(half_extent, int(n))
    for half_extent in (20.0, 16.0, 12.8, 10.0, 7.3, 33.3, 1.0, 0.2, 100.0, math.pi)
    for n in 2 * np.random.default_rng(35).integers(4, 35000, size=40)
]


def test_walk_names_the_largest_mass_it_accepts():
    # Over a spread of grids, the largest mass a walk's refusal names passes
    # the same walk and the next float up does not.
    for grid in _NAMED_MASS_GRIDS:
        # One whole walk step, the longest step of any walk on the grid.
        t = max(round(kernel_engine.WALK_STEP * (grid.half_extent / 20.0) / grid.dx), 1) * grid.dx
        with pytest.raises(ValueError, match="too large for the kernel engine") as refused:
            kernel_engine.walk(t, grid, 1e150)
        named = float(str(refused.value).rsplit(" ", 1)[1])
        kernel_engine.walk(t, grid, named)
        with pytest.raises(ValueError, match=f"the largest mass for this step is {named}$"):
            kernel_engine.walk(t, grid, math.nextafter(named, math.inf))


@pytest.mark.parametrize("n_points,cells", [(1024, 13), (65536, 200)])
def test_walk_at_unit_m_dx_stays_inside_the_bessel_domain(n_points, cells):
    # m * dx = 1 is the edge of the kernel's valid range; the longest step's
    # m * dt (3 cells at 1024 points, 164 at 65536) stays below 200.
    grid = Grid1D(20.0, n_points)
    out = kernel_engine.evolve_to(make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0)), 1 / grid.dx, cells * grid.dx)
    assert norm(out) == pytest.approx(1.0, abs=1e-12)


def test_massless_step_is_pure_translation(equal_packet):
    dt = 4 * equal_packet.grid.dx
    out = kernel_engine.evolve_step(equal_packet, 0.0, dt)
    assert np.abs(out.minus - np.roll(equal_packet.minus, -4)).max() == 0.0
    assert np.abs(out.plus - np.roll(equal_packet.plus, 4)).max() == 0.0


def test_massless_step_keeps_signed_zeros(grid):
    # The shifts are added to negative zeros, the exact identity of +, so a
    # massless step moves -0.0 and +0.0 parts as they are.
    values = np.zeros((2, grid.n_points), dtype=complex)
    values[:, ::3] = complex(-0.0, 0.0)
    values[:, 1::3] = complex(0.0, -0.0)
    values[:, 5] = 1.0
    out = kernel_engine.evolve_step(SpinorField(grid, values), 0.0, 2 * grid.dx)
    assert out.values.tobytes() == np.stack([np.roll(values[0], -2), np.roll(values[1], 2)]).tobytes()


def test_zero_steps_identity(equal_packet):
    out = kernel_engine.evolve_step(equal_packet, 1.0, 0.0)
    assert out is equal_packet


def test_non_commensurate_dt_rejected(equal_packet):
    dx = equal_packet.grid.dx
    with pytest.raises(ValueError, match="nearest commensurate"):
        kernel_engine.evolve_step(equal_packet, 1.0, 2.5 * dx)


def test_oversized_step_rejected(equal_packet):
    dt = 154 * equal_packet.grid.dx  # commensurate but beyond L/4
    with pytest.raises(ValueError, match="lightcone"):
        kernel_engine.evolve_step(equal_packet, 1.0, dt)
    # The walk plan rejects it before any step: its first step, 1 cell of
    # dx = 0.1, is 0.1 > L/4 = 0.05.
    with pytest.raises(ValueError, match="lightcone"):
        kernel_engine.walk(0.1, Grid1D(0.2, 4), 1.0)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_cross_engine_single_step(equal_packet, m):
    dt = 3 * equal_packet.grid.dx  # ~0.117
    stepped = kernel_engine.evolve_step(equal_packet, m, dt)
    exact = spectral.evolve(equal_packet, m, dt)
    assert rel_l2(stepped, exact) < 1e-3


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_cross_engine_refined_grid(m):
    g = Grid1D(20.0, 4096)
    f = make_gaussian_packet(g, 0.0, 1.0, (1.0, 1.0))
    dt = 10 * g.dx  # ~0.098
    stepped = kernel_engine.evolve_step(f, m, dt)
    exact = spectral.evolve(f, m, dt)
    assert rel_l2(stepped, exact) < 1e-4


def test_norm_drift_bounded(equal_packet):
    dt = 3 * equal_packet.grid.dx
    for m in (0.5, 1.0, 2.0):
        out = kernel_engine.evolve_step(equal_packet, m, dt)
        assert abs(norm(out) - norm(equal_packet)) < 5e-3


def test_evolve_to_single_step_matches(equal_packet):
    # Two cells is shorter than one walk step, so evolve_to takes one step.
    dt = 2 * equal_packet.grid.dx
    a = kernel_engine.evolve_to(equal_packet, 1.0, dt)
    b = kernel_engine.evolve_step(equal_packet, 1.0, dt)
    assert np.abs(a.values - b.values / np.sqrt(norm(b))).max() == 0.0


def test_evolve_to_walk_steps(equal_packet, monkeypatch):
    # 10 cells of dx = 0.039 walk as 3 + 3 + 3 + 1, and the result is renormalized.
    dx = equal_packet.grid.dx
    cells = []
    step = kernel_engine.evolve_step

    def recording_step(field, m, dt, spectra=None):
        cells.append(round(dt / dx))
        return step(field, m, dt, spectra=spectra)

    monkeypatch.setattr(kernel_engine, "evolve_step", recording_step)
    out = kernel_engine.evolve_to(equal_packet, 1.0, 10 * dx)
    assert cells == [3, 3, 3, 1]
    assert kernel_engine.walk(10 * dx, equal_packet.grid, 1.0) == [(3, 3), (1, 1)]
    assert abs(norm(out) - 1.0) < 1e-14


@pytest.mark.parametrize(
    "n_points,cells,m,walked,builds",
    [(1024, 10, 1.0, [(3, 3), (1, 1)], 2), (4096, 25, 1.3, [(10, 2), (5, 1)], 2),
     (1024, 10, 0.0, [(3, 3), (1, 1)], 0)],
)
def test_evolve_to_equals_reference_chain(n_points, cells, m, walked, builds, monkeypatch):
    # A walk of equal steps and a shorter last one gives the bits of the
    # reference steps chained and renormalized (spectra at m > 0, inverted
    # once at the end; position-space shifts at m = 0), and builds taps once
    # per distinct step length (never at m = 0).
    g = Grid1D(20.0, n_points)
    f = make_gaussian_packet(g, 0.3, 1.2, (1.0, np.exp(0.7j)))
    assert kernel_engine.walk(cells * g.dx, g, m) == walked
    values = f.values if m == 0 else np.fft.fft(f.values, axis=1)
    step = kernel_step_position_reference if m == 0 else kernel_step_reference
    for j, count in walked:
        for _ in range(count):
            values = step(values, g.dx, m, j)
    if m != 0:
        values = np.fft.ifft(values, axis=1)
    values = values / np.sqrt(norm(SpinorField(g, values)))
    calls = []
    smooth_taps = kernel_engine._smooth_taps

    def counting_taps(j, dx, mass):
        calls.append(j)
        return smooth_taps(j, dx, mass)

    monkeypatch.setattr(kernel_engine, "_smooth_taps", counting_taps)
    out = kernel_engine.evolve_to(f, m, cells * g.dx)
    assert out.values.tobytes() == values.tobytes()
    assert len(calls) == builds


@pytest.mark.parametrize("n_points", [1024, 4096])
def test_walk_runs_expand_to_the_step_list(n_points):
    # Every time of up to 3N cells: the runs, expanded, are the steps
    # [p] * q + [r] of q whole steps of p cells and a remainder r < p.
    g = Grid1D(20.0, n_points)
    p = round(kernel_engine.WALK_STEP / g.dx)
    for c in range(3 * n_points + 1):
        q, r = divmod(c, p)
        runs = kernel_engine.walk(c * g.dx, g, 1.0)
        assert [cells for cells, count in runs for _ in range(count)] == [p] * q + ([r] if r else [])


def test_walk_checks_any_time_at_once(grid):
    # A million cells is two runs, and so is a time just short of 2**53 cells
    # (dx = 1/32 keeps it exact); 2**53 cells, where every float is whole, is
    # rejected.
    assert kernel_engine.walk(1e6 * grid.dx, grid, 1.0) == [(3, 333333), (1, 1)]
    g = Grid1D(16.0, 1024)
    assert kernel_engine.walk((2**53 - 1) * g.dx, g, 1.0) == [(3, (2**53 - 1) // 3), (1, 1)]
    with pytest.raises(ValueError, match="is not below 2\\*\\*53 cells"):
        kernel_engine.walk(2.0**53 * g.dx, g, 1.0)


@pytest.mark.parametrize("dt", [np.inf, np.nan])
def test_non_finite_dt_rejected(equal_packet, dt):
    with pytest.raises(ValueError, match=f"dt = {dt} is not below 2"):
        kernel_engine.evolve_step(equal_packet, 1.0, dt)


def test_evolve_to_zero_returns_field(equal_packet):
    assert kernel_engine.walk(0.0, equal_packet.grid, 1.0) == []
    assert kernel_engine.evolve_to(equal_packet, 1.0, 0.0) is equal_packet


def test_evolve_to_rejects_non_commensurate_time(equal_packet):
    dx = equal_packet.grid.dx
    with pytest.raises(ValueError, match=f"nearest commensurate value is {3 * dx}"):
        kernel_engine.evolve_to(equal_packet, 1.0, 2.6 * dx)


def test_evolve_to_error_independent_of_step_count():
    # The propagator is exact in time, so at m = 1 and t = 1 splitting t into
    # more steps neither accumulates nor removes much error: what remains is
    # the fixed-dx quadrature error of the cone integral.  This holds for
    # m <= 1; at m = 2 and t = 2 one long step is 1.7 times worse than a walk
    # of short ones (kernel_engine's docstring).  dx = 0.025 keeps t = 1
    # commensurate for all three step counts.
    g = Grid1D(12.8, 1024)
    f = make_gaussian_packet(g, 0.0, 1.0, (1.0, 1.0))
    exact = spectral.evolve(f, 1.0, 1.0)
    errors = [rel_l2(compose(f, 1.0, 1.0, n), exact) for n in (5, 10, 20)]
    assert max(errors) < 1e-4
    assert max(errors) / min(errors) < 1.2


def test_evolve_to_converges_under_grid_refinement():
    # Halving dx cuts the composed-evolution error by about the trapezoid
    # factor of four.
    errors = []
    for n_points in (1024, 2048):
        g = Grid1D(12.8, n_points)
        f = make_gaussian_packet(g, 0.0, 1.0, (1.0, 1.0))
        exact = spectral.evolve(f, 1.0, 1.0)
        errors.append(rel_l2(compose(f, 1.0, 1.0, 10), exact))
    assert errors[1] < errors[0] / 3.0


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_evolve_to_converges_at_large_grids(m):
    # Past desk scale, t = 0.5 walked in steps of up to 164 cells: the error
    # against the spectral engine is small and falls by about the O(dx^2)
    # factor of 16 when dx shrinks fourfold.
    errors = []
    for n_points in (16384, 65536):
        g = Grid1D(20.0, n_points)
        f = make_gaussian_packet(g, 0.0, 1.0, (1.0, 1.0))
        t = round(0.5 / g.dx) * g.dx
        errors.append(rel_l2(kernel_engine.evolve_to(f, m, t), spectral.evolve(f, m, t)))
    assert errors[0] < 1e-5
    assert errors[1] < errors[0] / 10.0


def test_massless_composition_exact(equal_packet):
    dx = equal_packet.grid.dx
    direct = compose(equal_packet, 0.0, 12 * dx, 1)
    split = compose(equal_packet, 0.0, 12 * dx, 4)
    assert np.abs(direct.values - split.values).max() == 0.0


def test_lightcone_causality(grid):
    # Compact support [a, b] may only grow to [a - dt, b + dt].
    values = np.zeros((2, grid.n_points), dtype=complex)
    inside = np.abs(grid.x) < 1.0
    values[:, inside] = 1.0
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)
    f = SpinorField(grid, values)
    j = 8
    dt = j * grid.dx
    out = kernel_engine.evolve_step(f, 1.5, dt)
    outside = np.abs(grid.x) > 1.0 + dt + grid.dx / 2
    assert np.abs(out.values[:, outside]).max() < 1e-14

