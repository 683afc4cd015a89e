import numpy as np
import pytest

from dirac_decoherence import kernel_engine, spectral
from dirac_decoherence.grid import Grid1D, SpinorField, make_gaussian_packet, norm

from oracles import kernel_step_reference


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
# on 16384 points transforms one row per call, past the joint-call threshold.
STEP_GRIDS = {1: 1024, 2: 1024, 3: 1024, 7: 1024, 128: 1024, 125: 1000, 41: 16384}


@pytest.mark.parametrize("j", list(STEP_GRIDS))
@pytest.mark.parametrize("m", [0.5, 1.3, 2.0])
def test_step_bitwise_equal_to_reference(j, m):
    # The full Bessel series, index-array tap layout and out-of-place FFTs
    # give the same bits as the early-stopped series, the sliced tap block
    # and in-place transforms.
    grid = Grid1D(20.0, STEP_GRIDS[j])
    rng = np.random.default_rng(j)
    values = rng.normal(size=(2, grid.n_points)) + 1j * rng.normal(size=(2, grid.n_points))
    out = kernel_engine.evolve_step(SpinorField(grid, values), m, j * grid.dx)
    assert out.values.tobytes() == kernel_step_reference(values, grid.dx, m, j).tobytes()


@pytest.mark.parametrize(
    "n_points,j,m",
    [(1024, 1, 1.0), (1024, 3, 2.0), (1024, 128, 1.0), (1000, 125, 0.7), (16384, 41, 1.3),
     (1024, 3, 0.0), (1024, 13, 50.0)],
)
def test_step_is_diagonal_in_the_fft_index(n_points, j, m):
    # A j-cell step multiplies fft(psi) at each index n by the 2x2 symbol
    # [[e^{i theta} + S-, C], [C, e^{-i theta} + S+]], theta = 2 pi n j / N:
    # the lightcone shifts give the phases and the cone sums the rows of
    # _tap_spectra, the spectra of the taps laid at offsets d mod N (all zero
    # at m = 0, where a step skips them).
    grid = Grid1D(20.0, n_points)
    spectra = kernel_engine._tap_spectra(j, grid, m)
    same, cross_taps = kernel_engine._smooth_taps(j, grid.dx, m)
    laid = np.zeros((3, n_points), dtype=np.complex128)
    laid[:, np.arange(-j, j + 1) % n_points] = [same[-1], cross_taps, same[1]]
    assert np.array_equal(spectra, np.fft.fft(laid, axis=1))
    rng = np.random.default_rng(n_points + j)
    values = rng.normal(size=(2, n_points)) + 1j * rng.normal(size=(2, n_points))
    out = kernel_engine.evolve_step(SpinorField(grid, values), m, j * grid.dx)
    minus_hat, plus_hat = np.fft.fft(values, axis=1)
    same_minus, cross, same_plus = spectra
    shift = np.exp(2j * np.pi * np.arange(n_points) * j / n_points)
    expected = np.array([
        (shift + same_minus) * minus_hat + cross * plus_hat,
        cross * minus_hat + (shift.conj() + same_plus) * plus_hat,
    ])
    tol = 1e-12 * np.abs([minus_hat, plus_hat]).max()
    assert np.abs(np.fft.fft(out.values, axis=1) - expected).max() < tol


@pytest.mark.parametrize(
    "n_points,step_calls,tap_calls", [(1024, (1, 4), (1, 0)), (16384, (2, 4), (3, 0))],
    ids=["n1024", "n16384"],
)
def test_numpy_transform_calls_per_step(n_points, step_calls, tap_calls, monkeypatch):
    # Up to the joint-call threshold a step transforms both field rows in one
    # numpy call and a tap build its three rows in one; past it, one per row.
    # Each correlation makes one inverse call.
    grid = Grid1D(20.0, n_points)
    field = make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0))
    calls = {"fft": 0, "ifft": 0}

    def counting(name, transform):
        def counted(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    spectra = kernel_engine._tap_spectra(3, grid, 1.0)
    assert (calls["fft"], calls["ifft"]) == tap_calls
    calls.update(fft=0, ifft=0)
    kernel_engine.evolve_step(field, 1.0, 3 * grid.dx, spectra=spectra)
    assert (calls["fft"], calls["ifft"]) == step_calls


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


def test_massless_step_is_pure_translation(equal_packet):
    dt = 4 * equal_packet.grid.dx
    out = kernel_engine.evolve_step(equal_packet, 0.0, dt)
    assert np.abs(out.minus - np.roll(equal_packet.minus, -4)).max() == 0.0
    assert np.abs(out.plus - np.roll(equal_packet.plus, 4)).max() == 0.0


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
    # The walk plan rejects it before any step: its first step, 16 cells of
    # dx = 0.00625, is 0.1 > L/4 = 0.05.
    with pytest.raises(ValueError, match="lightcone"):
        kernel_engine.walk(0.1, Grid1D(0.2, 64))


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
    assert kernel_engine.walk(10 * dx, equal_packet.grid) == [(3, 3), (1, 1)]
    assert abs(norm(out) - 1.0) < 1e-14


@pytest.mark.parametrize(
    "n_points,cells,m,walked,builds",
    [(1024, 10, 1.0, [(3, 3), (1, 1)], 2), (4096, 25, 1.3, [(10, 2), (5, 1)], 2),
     (1024, 10, 0.0, [(3, 3), (1, 1)], 0)],
)
def test_evolve_to_equals_reference_chain(n_points, cells, m, walked, builds, monkeypatch):
    # A walk of equal steps and a shorter last one gives the bits of the
    # reference steps chained and renormalized, and builds taps once per
    # distinct step length (never at m = 0).
    g = Grid1D(20.0, n_points)
    f = make_gaussian_packet(g, 0.3, 1.2, (1.0, np.exp(0.7j)))
    assert kernel_engine.walk(cells * g.dx, g) == walked
    values = f.values
    for j, count in walked:
        for _ in range(count):
            values = kernel_step_reference(values, g.dx, m, j)
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
        runs = kernel_engine.walk(c * g.dx, g)
        assert [cells for cells, count in runs for _ in range(count)] == [p] * q + ([r] if r else [])


def test_walk_checks_any_time_at_once(grid):
    # A million cells is two runs, and so is a time just short of 2**53 cells
    # (dx = 1/32 keeps it exact); 2**53 cells, where every float is whole, is
    # rejected.
    assert kernel_engine.walk(1e6 * grid.dx, grid) == [(3, 333333), (1, 1)]
    g = Grid1D(16.0, 1024)
    assert kernel_engine.walk((2**53 - 1) * g.dx, g) == [(3, (2**53 - 1) // 3), (1, 1)]
    with pytest.raises(ValueError, match="is not below 2\\*\\*53 cells"):
        kernel_engine.walk(2.0**53 * g.dx, g)


@pytest.mark.parametrize("dt", [np.inf, np.nan])
def test_non_finite_dt_rejected(equal_packet, dt):
    with pytest.raises(ValueError, match=f"dt = {dt} is not below 2"):
        kernel_engine.evolve_step(equal_packet, 1.0, dt)


def test_evolve_to_zero_returns_field(equal_packet):
    assert kernel_engine.walk(0.0, equal_packet.grid) == []
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

