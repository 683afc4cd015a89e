from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_decoherence import density, experiments, spectral
from dirac_decoherence.grid import (
    Grid1D,
    InitialSpec,
    SpinorField,
    build_initial,
    make_gaussian_packet,
    make_plane_wave,
    norm,
)

from oracles import mode_vectors_reference


def random_normalized_field(grid, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(2, grid.n_points)) + 1j * rng.normal(size=(2, grid.n_points))
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)
    return SpinorField(grid, values)


def test_dispersion_values():
    assert spectral.dispersion(0.0, 2.0) == 2.0
    assert spectral.dispersion(3.0, 4.0) == 5.0
    assert spectral.dispersion(-7.0, 0.0) == 7.0


def test_dispersion_rejects_negative_mass():
    with pytest.raises(ValueError):
        spectral.dispersion(1.0, -1.0)


@pytest.mark.parametrize("m", [-1.0, np.nan, np.inf])
def test_evolve_rejects_a_mass_it_cannot_use(equal_packet, m):
    # Unchecked, nan would give an all-NaN field and inf NaN with warnings.
    with pytest.raises(ValueError, match=f"mass must be nonnegative and finite, got {m}"):
        spectral.evolve(equal_packet, m, 0.5)


def test_massless_eigenspinors_align_with_chirality():
    assert np.allclose(spectral.eigenspinor(2.0, 1, 0.0), [0.0, 1.0])
    assert np.allclose(spectral.eigenspinor(2.0, -1, 0.0), [1.0, 0.0])
    assert np.allclose(spectral.eigenspinor(-2.0, 1, 0.0), [1.0, 0.0])
    assert np.allclose(spectral.eigenspinor(-2.0, -1, 0.0), [0.0, 1.0])


def test_rest_frame_eigenspinors():
    u_plus = spectral.eigenspinor(0.0, 1, 1.0)
    u_minus = spectral.eigenspinor(0.0, -1, 1.0)
    assert np.allclose(np.abs(u_plus), [1 / np.sqrt(2)] * 2, atol=1e-14)
    assert np.allclose(np.abs(u_minus), [1 / np.sqrt(2)] * 2, atol=1e-14)
    assert abs(np.vdot(u_plus, u_minus)) < 1e-14


def test_eigenspinor_rejects_zero_energy_sign():
    with pytest.raises(ValueError, match=r"energy_sign must be \+1 or -1, got 0"):
        spectral.eigenspinor(0.5, 0, 1.0)


def test_eigenbasis_orthonormal_and_eigen(grid):
    for m in (0.0, 0.5, 2.0):
        basis = spectral.eigenbasis(grid, m)
        gram_off = np.sum(np.conj(basis.u_plus) * basis.u_minus, axis=0)
        assert np.abs(gram_off).max() < 1e-14
        for u in (basis.u_plus, basis.u_minus):
            assert np.abs(np.sum(np.abs(u) ** 2, axis=0) - 1.0).max() < 1e-14
        k = grid.k
        h = np.zeros((grid.n_points, 2, 2))
        h[:, 0, 0] = -k
        h[:, 1, 1] = k
        h[:, 0, 1] = h[:, 1, 0] = spectral.MASS_COUPLING_SIGN * m
        for eps, u in ((1, basis.u_plus), (-1, basis.u_minus)):
            resid = np.einsum("nij,jn->in", h, u) - eps * basis.omega * u
            assert np.abs(resid).max() < 1e-12


def test_cached_eigenbasis_is_read_only(grid):
    basis = spectral.eigenbasis(grid, 1.0)
    for name in ("omega", "u_plus", "u_minus"):
        with pytest.raises(ValueError):
            getattr(basis, name)[0] = 0.0
    k = np.linspace(-1.0, 1.0, 5)
    spectral.eigenbasis_arrays(k, 1.0)
    assert k.flags.writeable  # the basis froze a copy, not the caller's array
    u = spectral.eigenspinor(0.3, 1, 1.0)
    u[0] = 0.0


def test_phase_convention_deterministic(grid):
    basis = spectral.eigenbasis(grid, 1.3)
    for u in (basis.u_plus, basis.u_minus):
        lead = np.where(np.abs(u[0]) > 0, u[0], u[1])
        assert np.all(lead.real >= 0)
        assert np.abs(lead.imag).max() == 0


def test_decompose_eigenmode_single_amplitude(grid):
    pw = make_plane_wave(grid, 9, 1, 1.0)
    modes = spectral.decompose(pw, 1.0)
    assert np.abs(modes.amp_minus).max() < 1e-12
    amps = np.abs(modes.amp_plus)
    assert amps.max() == pytest.approx(1.0, abs=1e-12)
    amps_rest = amps.copy()
    amps_rest[amps.argmax()] = 0.0
    assert amps_rest.max() < 1e-12


def test_decompose_parseval_and_roundtrip(grid):
    f = random_normalized_field(grid, 11)
    modes = spectral.decompose(f, 1.0)
    power = np.sum(np.abs(modes.amp_plus) ** 2 + np.abs(modes.amp_minus) ** 2)
    assert power == pytest.approx(norm(f), abs=1e-10)
    back = spectral.reconstruct(modes)
    assert np.abs(back.values - f.values).max() < 1e-12


def test_decompose_zero_field(grid):
    z = SpinorField(grid, np.zeros((2, grid.n_points)))
    modes = spectral.decompose(z, 1.0)
    assert np.abs(modes.amp_plus).max() == 0
    assert np.abs(modes.amp_minus).max() == 0


def test_equal_superposition_populates_both_signs(equal_packet):
    # Direct-overlap oracle: project psi_hat(k) on each eigenspinor by hand.
    grid = equal_packet.grid
    modes = spectral.decompose(equal_packet, 1.0)
    psi_hat = mode_vectors_reference(equal_packet)
    basis = spectral.eigenbasis(grid, 1.0)
    by_hand_plus = np.array(
        [np.vdot(basis.u_plus[:, j], psi_hat[:, j]) for j in range(grid.n_points)]
    )
    assert np.abs(by_hand_plus - modes.amp_plus).max() < 1e-12
    both = (np.abs(modes.amp_plus) > 1e-6) & (np.abs(modes.amp_minus) > 1e-6)
    assert np.any(both)


def test_massless_evolution_is_lightcone_translation(equal_packet):
    grid = equal_packet.grid
    evolved = spectral.evolve(equal_packet, 0.0, 1.0)
    c = equal_packet.values[0, grid.n_points // 2].real  # peak amplitude at x=0
    expected_minus = c * np.exp(-((grid.x + 1.0) ** 2) / 2.0)
    expected_plus = c * np.exp(-((grid.x - 1.0) ** 2) / 2.0)
    assert np.abs(evolved.minus - expected_minus).max() < 1e-10
    assert np.abs(evolved.plus - expected_plus).max() < 1e-10


def test_massless_integer_step_is_exact_cyclic_shift(equal_packet):
    grid = equal_packet.grid
    t = 5 * grid.dx
    evolved = spectral.evolve(equal_packet, 0.0, t)
    assert np.abs(evolved.minus - np.roll(equal_packet.minus, -5)).max() < 1e-13
    assert np.abs(evolved.plus - np.roll(equal_packet.plus, 5)).max() < 1e-13


def test_evolve_identity_at_t0(equal_packet):
    evolved = spectral.evolve(equal_packet, 1.0, 0.0)
    assert np.abs(evolved.values - equal_packet.values).max() < 1e-14


@given(
    t1=st.floats(min_value=-3.0, max_value=3.0),
    t2=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=20, deadline=None)
def test_evolution_group_property(t1, t2):
    g = Grid1D(20.0, 256)
    f = make_gaussian_packet(g, 0.0, 1.0, (1.0, 1.0j))
    once = spectral.evolve(spectral.evolve(f, 1.0, t1), 1.0, t2)
    direct = spectral.evolve(f, 1.0, t1 + t2)
    assert np.abs(once.values - direct.values).max() < 1e-12


def test_unitarity_over_long_times(equal_packet):
    for t in np.linspace(0.0, 10.0, 21):
        assert abs(norm(spectral.evolve(equal_packet, 1.0, float(t))) - 1.0) < 1e-12


def test_stationary_modes_have_constant_density(grid):
    rng = np.random.default_rng(3)
    for _ in range(5):
        mode = int(rng.integers(-grid.n_points // 2, grid.n_points // 2))
        eps = int(rng.choice([-1, 1]))
        m = float(rng.uniform(0.0, 3.0))
        pw = make_plane_wave(grid, mode, eps, m)
        rho0 = density.reduce(pw).entries
        for t in (0.3, 2.1, 5.0):
            rho_t = density.reduce(spectral.evolve(pw, m, t)).entries
            assert np.abs(rho_t - rho0).max() < 1e-12


def test_projection_idempotent_and_complete(equal_packet):
    plus = spectral.project_energy(equal_packet, 1.0)
    again = spectral.project_energy(plus, 1.0)
    assert np.abs(again.values - plus.values).max() < 1e-13
    assert np.abs(spectral.decompose(plus, 1.0).amp_minus).max() < 1e-13
    n_plus = norm(plus)
    assert 0.0 < n_plus < 1.0


def test_projection_keeps_eigenmode(grid):
    pw = make_plane_wave(grid, 4, 1, 0.7)
    kept = spectral.project_energy(pw, 0.7)
    dropped = spectral.project_energy(make_plane_wave(grid, 4, -1, 0.7), 0.7)
    assert np.abs(kept.values - pw.values).max() < 1e-12
    assert np.abs(dropped.values).max() < 1e-12


def _reference_trace(cfg):
    """The spectral sample path written out plainly: a fresh transform per
    sample, sign and scale arrays, a phase for every bin, the einsum."""
    grid = cfg.grid
    field0 = build_initial(cfg.initial, grid)
    basis = spectral.eigenbasis(grid, cfg.mass)
    signs = np.where(np.arange(grid.n_points) % 2 == 0, 1.0, -1.0)
    scale = np.sqrt(grid.dx / grid.n_points)
    rhos = []
    for t in cfg.times:
        psi_hat = np.fft.fft(field0.values, axis=1) * signs * scale
        amp_plus = np.sum(np.conj(basis.u_plus) * psi_hat, axis=0)
        amp_minus = np.sum(np.conj(basis.u_minus) * psi_hat, axis=0)
        phase = np.exp(-1j * basis.omega * t)
        amp_plus, amp_minus = amp_plus * phase, amp_minus * np.conj(phase)
        psi_hat = amp_plus[None, :] * basis.u_plus + amp_minus[None, :] * basis.u_minus
        values = np.fft.ifft(psi_hat * signs / scale, axis=1)
        rho = np.einsum("an,bn->ab", values, values.conj()) * grid.dx
        rhos.append((rho + rho.conj().T) / 2.0)
    rhos = np.array(rhos)
    entropy = [density.entropy_bits(density.ReducedDensityMatrix(rho)) for rho in rhos]
    return np.array(entropy), rhos[:, 0, 0].real, rhos[:, 0, 1], rhos[:, 1, 1].real


@pytest.mark.parametrize("spinor", [(1.0, np.exp(0.9j)), (0.0, 1.0)])
def test_run_scenario_matches_reference_bit_for_bit(spinor):
    initial = InitialSpec(kind="gaussian_packet", mass=1.3, center=0.4, width=1.1, spinor=spinor)
    cfg = experiments.ScenarioConfig(mass=1.3, initial=initial, grid=Grid1D(20.0, 1024),
                                     times=tuple(np.linspace(0.0, 2.0, 21)))
    trace = experiments.run_scenario(cfg).trace
    got = (trace.entropy, trace.rho00, trace.rho01, trace.rho11)
    for actual, expected in zip(got, _reference_trace(cfg)):
        assert np.array_equal(actual, expected)
        assert actual.tobytes() == expected.tobytes()  # signed zeros too


@pytest.mark.parametrize("n_points", [2, 4, 1024, 16384])
@pytest.mark.parametrize("half_extent", [20.0, 7.3])
def test_mirrored_phases_equal_full_phases_bitwise(n_points, half_extent):
    omega = spectral.eigenbasis(Grid1D(half_extent, n_points), 1.3).omega
    half = n_points // 2
    assert omega[1:half].tobytes() == omega[:half:-1].tobytes()
    for t in (0.0, 0.37, 2.0, -1.5):
        assert spectral.mode_phases(omega, t).tobytes() == np.exp(-1j * omega * t).tobytes()


def test_decomposition_is_cached_read_only_per_field_mass_and_sign(grid):
    field = make_gaussian_packet(grid, 0.3, 1.0, (1.0, np.exp(0.9j)))
    modes = spectral.decompose(field, 1.0)
    assert spectral.decompose(field, 1.0) is modes
    assert spectral.decompose(field, np.float64(1.0)) is modes
    for amp in (modes.amp_plus, modes.amp_minus):
        with pytest.raises(ValueError):
            amp[0] = 0.0
    flipped = spectral.decompose(field, 1.0, -spectral.MASS_COUPLING_SIGN)
    heavier = spectral.decompose(field, 2.0)
    assert flipped is not modes and heavier is not modes
    assert spectral.decompose(field, 1.0, -spectral.MASS_COUPLING_SIGN) is flipped
    assert spectral.decompose(field, 2.0) is heavier
    assert spectral.decompose(field, 1.0) is modes
    assert not np.array_equal(flipped.amp_plus, modes.amp_plus)
    psi_hat = mode_vectors_reference(field)
    for entry in (modes, flipped, heavier):
        for amp, u in ((entry.amp_plus, entry.basis.u_plus), (entry.amp_minus, entry.basis.u_minus)):
            assert amp.tobytes() == np.sum(np.conj(u) * psi_hat, axis=0).tobytes()
    twin = replace(field)  # equal values, the same array even: still its own cache
    twin_modes = spectral.decompose(twin, 1.0)
    assert twin_modes is not modes
    assert twin_modes.amp_plus.tobytes() == modes.amp_plus.tobytes()


def test_decomposed_field_holds_only_its_decompositions(grid):
    field = make_gaussian_packet(grid, 0.3, 1.0, (1.0, np.exp(0.9j)))
    spectral.decompose(field, 1.0)
    spectral.decompose(field, 2.0)
    assert set(vars(field)) == {"grid", "values", "_decompositions"}
    assert len(field._decompositions) == 2
    for modes in field._decompositions.values():
        block = modes.amp_plus.base
        assert block is modes.amp_minus.base and block.shape == (2, grid.n_points)
        assert not block.flags.writeable


@pytest.mark.parametrize("n_points", [2, 1024, 16384, 65536])
@pytest.mark.parametrize("massless_plane_wave", [False, True])
def test_reconstruct_equals_out_of_place_inverse_bitwise(n_points, massless_plane_wave):
    # A massless plane wave leaves one component exactly zero, signed zeros and all.
    grid = Grid1D(20.0, n_points)
    if massless_plane_wave:
        field, m = make_plane_wave(grid, n_points // 4, 1, 0.0), 0.0
    else:
        field, m = random_normalized_field(grid, n_points), 1.3
    modes = spectral.evolve_modes(spectral.decompose(field, m), 0.7)
    psi_hat = modes.amp_plus * modes.basis.u_plus + modes.amp_minus * modes.basis.u_minus
    psi_hat[:, 1::2] *= -1
    psi_hat /= np.sqrt(grid.dx / grid.n_points)
    expected = np.fft.ifft(psi_hat, axis=1)
    for row in psi_hat:  # numpy's two-row call gives each row the bits of its own call
        np.fft.ifft(row, out=row)
    values = spectral.reconstruct(modes).values
    assert values.tobytes() == expected.tobytes() == psi_hat.tobytes()
    assert not values.flags.writeable
