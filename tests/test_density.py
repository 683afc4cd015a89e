import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_decoherence import density, spectral
from dirac_decoherence.grid import Grid1D, SpinorField, make_gaussian_packet, make_plane_wave

from oracles import binary_entropy_bits, massless_off_diagonal, reduce_from_modes_reference

MASSLESS_ENTROPY_AT_1 = 0.900045591523535  # h2((1 + e^-1)/2), frozen from the oracle


def rdm(matrix):
    return density.ReducedDensityMatrix(np.asarray(matrix, dtype=complex))


def test_reduce_tensor_product_pure_state(equal_packet):
    rho = density.reduce(equal_packet).entries
    assert np.abs(rho - 0.5 * np.ones((2, 2))).max() < 1e-12


def test_reduce_single_chirality(grid):
    f = make_gaussian_packet(grid, 0.0, 1.0, (0.0, 1.0))
    rho = density.reduce(f).entries
    assert np.abs(rho - np.diag([0.0, 1.0])).max() < 1e-12


def test_reduce_massless_closed_form(equal_packet):
    for t in (0.5, 1.0, 2.0, 3.0):
        rho = density.reduce(spectral.evolve(equal_packet, 0.0, t)).entries
        assert abs(rho[0, 1] - massless_off_diagonal(t)) < 1e-10
        assert abs(rho[0, 0] - 0.5) < 1e-12


def test_reduce_rejects_unnormalized(grid):
    f = make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0))
    with pytest.raises(ValueError, match="norm"):
        density.reduce(SpinorField(grid, f.values * 1.1))


def test_reduce_norm_check_boundary(equal_packet):
    grid = equal_packet.grid

    def scaled(total):
        return SpinorField(grid, equal_packet.values * np.sqrt(total))

    for delta in (2e-6, -2e-6):
        with pytest.raises(ValueError, match="field norm"):
            density.reduce(scaled(1.0 + delta))
    # The norm check uses the density matrix's own TRACE_TOL, so it is the
    # one that names the fault.
    for delta in (5e-7, -5e-7):
        with pytest.raises(ValueError, match="field norm"):
            density.reduce(scaled(1.0 + delta))
    for delta in (5e-11, -5e-11):
        trace = density.reduce(scaled(1.0 + delta)).entries.trace()
        assert trace.real == pytest.approx(1.0 + delta, abs=1e-15)


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError, match="Hermitian"):
        rdm([[0.5, 0.5], [0.2, 0.5]])
    with pytest.raises(ValueError, match="trace"):
        rdm([[0.7, 0.0], [0.0, 0.7]])
    with pytest.raises(ValueError, match="eigenvalue"):
        rdm([[0.5, 0.6], [0.6, 0.5]])


@pytest.mark.parametrize("entries,message", [
    ([[0.5, 1.2e308 + 1.2e308j], [0.0, 0.5]], "not Hermitian"),
    ([[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.5]], "negative eigenvalue -inf"),
    ([[0.5, 1e160], [1e160, 0.5]], "negative eigenvalue -inf"),
    ([[1e160, 0.0], [0.0, 1.0 - 1e160]], "trace 0j is not 1"),
])
def test_density_matrix_rejects_overflowing_entries(entries, message):
    # Finite entries whose magnitude or square passes the largest float.
    with pytest.raises(ValueError, match=message):
        rdm(entries)


def test_density_matrix_must_be_2x2():
    with pytest.raises(ValueError, match=r"entries must be 2x2, got shape \(3, 3\)"):
        rdm(np.eye(3) / 3)


@pytest.mark.parametrize("entropy,message", [
    ([0.0, 0.5], "entropy length does not match times"),
    ([0.0, 1.5, 0.0], r"entropy samples outside \[0, 1\]"),
])
def test_entropy_trace_rejects_bad_entropy(entropy, message):
    zeros = np.zeros(3)
    with pytest.raises(ValueError, match=message):
        density.EntropyTrace(times=np.arange(3.0), entropy=np.array(entropy),
                             rho00=zeros, rho01=zeros, rho11=zeros)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_density_matrix_rejects_non_finite_entries(bad):
    # NaN fails every tolerance comparison, so only an explicit check stops it.
    for i, j in ((0, 0), (0, 1)):
        entries = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        entries[i, j] = bad
        with pytest.raises(ValueError, match="non-finite"):
            rdm(entries)


def test_reduce_rejects_nan_field(equal_packet):
    values = equal_packet.values.copy()
    values[0, 10] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        density.reduce(SpinorField(equal_packet.grid, values))


def test_reduce_from_modes_stationary(grid):
    pw = make_plane_wave(grid, 6, -1, 1.3)
    modes = spectral.decompose(pw, 1.3)
    rho0 = density.reduce_from_modes(modes, 0.0).entries
    u = spectral.eigenspinor(6 * np.pi / 20.0, -1, 1.3)
    assert np.abs(rho0 - np.outer(u, u.conj())).max() < 1e-12
    for t in (0.9, 4.2):
        assert np.abs(density.reduce_from_modes(modes, t).entries - rho0).max() < 1e-12


@pytest.mark.parametrize("spinor", [(1.0, 1.0), (0.0, 1.0)], ids=["equal", "chiral"])
def test_reduce_from_modes_is_the_momentum_formula_bit_for_bit(grid, spinor):
    # The figure packets: the route through evolve_modes and mode_spectrum makes
    # the products of the one-expression formula in the same order.
    f = make_gaussian_packet(grid, 0.0, 1.0, spinor)
    for m in (0.0, 1.0, 2.0):
        modes = spectral.decompose(f, m)
        for t in (0.0, 0.01, 0.5, 1.0, 2.0, 7.3):
            got = density.reduce_from_modes(modes, t).entries
            assert got.tobytes() == reduce_from_modes_reference(modes, t).tobytes()


def test_reduce_from_modes_matches_t0(equal_packet):
    modes = spectral.decompose(equal_packet, 1.0)
    a = density.reduce_from_modes(modes, 0.0).entries
    b = density.reduce(spectral.reconstruct(modes)).entries
    assert np.abs(a - b).max() < 1e-12


def test_single_k_superposition_oscillates_at_2omega(grid):
    # One momentum, both energy signs: entries carry exp(-+2 i omega t).
    k = 4 * np.pi / 20.0
    u_p = spectral.eigenspinor(k, 1, 1.0)
    u_m = spectral.eigenspinor(k, -1, 1.0)
    phase = np.exp(1j * k * grid.x) / np.sqrt(2.0 * grid.half_extent)
    f = SpinorField(grid, ((u_p + u_m) / np.sqrt(2.0))[:, None] * phase[None, :])
    modes = spectral.decompose(f, 1.0)
    omega = spectral.dispersion(k, 1.0)
    expected_cross = 0.5 * (
        np.outer(u_p, u_p.conj()) + np.outer(u_m, u_m.conj())
    )
    for t in (0.3, 1.7):
        rho_t = density.reduce_from_modes(modes, t).entries
        explicit = expected_cross + 0.5 * (
            np.exp(-2j * omega * t) * np.outer(u_p, u_m.conj())
            + np.exp(2j * omega * t) * np.outer(u_m, u_p.conj())
        )
        assert np.abs(rho_t - explicit).max() < 1e-12


def test_dual_route_equality(grid):
    rng = np.random.default_rng(21)
    for m in (0.0, 1.0):
        for seed in range(5):
            values = rng.normal(size=(2, grid.n_points)) + 1j * rng.normal(
                size=(2, grid.n_points)
            )
            values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)
            f = SpinorField(grid, values)
            modes = spectral.decompose(f, m)
            for t in (0.5, 2.0, 5.0):
                a = density.reduce(spectral.evolve(f, m, t)).entries
                b = density.reduce_from_modes(modes, t).entries
                assert np.abs(a - b).max() < 1e-10


def test_eigenvalues_known_matrices():
    assert rdm(0.5 * np.eye(2)).eigenvalues == (0.5, 0.5)
    lam = rdm(0.5 * np.ones((2, 2))).eigenvalues
    assert lam[0] == pytest.approx(1.0, abs=1e-14)
    assert lam[1] == pytest.approx(0.0, abs=1e-14)


def test_eigenvalues_massless_law_matrix():
    for t in (0.5, 1.0, 2.0):
        off = massless_off_diagonal(t)
        hi, lo = rdm([[0.5, off], [off, 0.5]]).eigenvalues
        assert hi == pytest.approx(0.5 + off, abs=1e-14)
        assert lo == pytest.approx(0.5 - off, abs=1e-14)
        assert hi + lo == 1.0


@given(
    theta=st.floats(min_value=0.0, max_value=np.pi),
    phi=st.floats(min_value=0.0, max_value=2 * np.pi),
    p=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=50, deadline=None)
def test_spectrum_invariant_under_unitary_conjugation(theta, phi, p):
    rho = np.diag([p, 1.0 - p]).astype(complex)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    u = np.array([[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]])
    rotated = u @ rho @ u.conj().T
    rotated = (rotated + rotated.conj().T) / 2.0
    a = rdm(rho).eigenvalues
    b = rdm(rotated).eigenvalues
    assert abs(a[0] - b[0]) < 1e-12


def _closed_form_spectrum(entries):
    """The 2x2 closed form, spelled out: descending, unclamped, from the entries' Python scalars."""
    (a, b), (_, d) = np.asarray(entries).tolist()
    a, d = a.real, d.real
    half_trace = (a + d) / 2.0
    radius = math.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    return half_trace + radius, half_trace - radius


def _random_density_matrices(count, seed=20261020):
    """Hermitian, positive-semidefinite, unit-trace 2x2 matrices; every other one pure."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        g = rng.normal(size=(2, 2 - i % 2)) + 1j * rng.normal(size=(2, 2 - i % 2))
        rho = g @ g.conj().T
        rho /= rho.trace().real
        yield (rho + rho.conj().T) / 2.0


_EDGE_MATRICES = [
    0.5 * np.eye(2),
    0.5 * np.ones((2, 2)),
    np.diag([0.0, 1.0]),
    np.diag([1.0, 0.0]),
    *([[0.5, massless_off_diagonal(t)], [massless_off_diagonal(t), 0.5]] for t in (0.5, 1.0, 2.0)),
]


def test_eigenvalues_are_the_closed_form_bit_for_bit():
    matrices = [*_random_density_matrices(200), *_EDGE_MATRICES]
    for matrix in matrices:
        r = rdm(matrix)
        expected = _closed_form_spectrum(r.entries)
        assert [x.hex() for x in r.eigenvalues] == [x.hex() for x in expected]
        assert density.entropy_bits(r) == density.binary_entropy(expected[0])


def test_eigenvalues_are_read_only():
    r = rdm(0.5 * np.eye(2))
    assert type(r.eigenvalues) is tuple and r.eigenvalues == (0.5, 0.5)
    with pytest.raises(TypeError):
        r.eigenvalues[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.eigenvalues = (1.0, 0.0)
    with pytest.raises(TypeError):  # the spectrum comes from the entries, never from a caller
        density.ReducedDensityMatrix(r.entries, eigenvalues=(1.0, 0.0))
    assert "eigenvalues" not in repr(r)


def test_entropy_diagonalizes_once(monkeypatch, equal_packet):
    field = spectral.evolve(equal_packet, 1.0, 0.7)
    spectrum, calls = density._spectrum, []

    def counting_spectrum(*args):
        calls.append(args)
        return spectrum(*args)

    monkeypatch.setattr(density, "_spectrum", counting_spectrum)
    entropy = density.entropy_bits(density.reduce(field))
    assert len(calls) == 1
    assert 0.0 < entropy < 1.0


def test_binary_entropy_clamps_to_the_unit_interval():
    # A spectrum a roundoff past [0, 1] scores as the pure state it rounds to.
    assert density.binary_entropy(1.0 + 2.0**-52) == 0.0
    assert density.binary_entropy(-(2.0**-60)) == 0.0
    assert density.binary_entropy(0.0) == density.binary_entropy(1.0) == 0.0
    assert density.binary_entropy(0.5) == 1.0
    for p in (1e-300, 0.1, 0.3, 0.5 + massless_off_diagonal(1.0), 1.0 - 2.0**-52):
        assert density.binary_entropy(p) == pytest.approx(binary_entropy_bits(p), abs=1e-15)


def test_entropy_pure_and_mixed():
    assert density.entropy_bits(rdm(0.5 * np.ones((2, 2)))) == 0.0
    assert density.entropy_bits(rdm(0.5 * np.eye(2))) == 1.0


def test_entropy_massless_law_value(equal_packet):
    rho = density.reduce(spectral.evolve(equal_packet, 0.0, 1.0))
    assert density.entropy_bits(rho) == pytest.approx(MASSLESS_ENTROPY_AT_1, abs=1e-10)
    assert density.entropy_bits(rho) == pytest.approx(
        binary_entropy_bits(0.5 + massless_off_diagonal(1.0)), abs=1e-10
    )


def test_entropy_swap_symmetry(grid):
    f = make_gaussian_packet(grid, 0.0, 1.0, (0.6, 0.8j))
    rho = density.reduce(spectral.evolve(f, 1.0, 0.7)).entries
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    s1 = density.entropy_bits(rdm(rho))
    s2 = density.entropy_bits(rdm(swap @ rho @ swap))
    assert abs(s1 - s2) < 1e-13


def test_decoherence_predicate(grid, equal_packet):
    single = spectral.decompose(make_plane_wave(grid, 5, 1, 1.0), 1.0)
    assert not density.decoherence_predicate(single, 1e-10)
    projected = spectral.project_energy(equal_packet, 1.0)
    proj_modes = spectral.decompose(projected, 1.0)
    assert not density.decoherence_predicate(proj_modes, 1e-10)
    assert density.decoherence_predicate(spectral.decompose(equal_packet, 1.0), 1e-6)
    with pytest.raises(ValueError):
        density.decoherence_predicate(single, 0.0)


def test_predicate_soundness(grid):
    # No shared-momentum pairs above 1e-10 implies a frozen density matrix.
    projected = spectral.project_energy(make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0)), 1.0)
    values = projected.values / np.sqrt(np.sum(np.abs(projected.values) ** 2) * grid.dx)
    f = SpinorField(grid, values)
    modes = spectral.decompose(f, 1.0)
    assert not density.decoherence_predicate(modes, 1e-10)
    rho0 = density.reduce(f).entries
    for t in np.linspace(0.0, 5.0, 11):
        rho_t = density.reduce(spectral.evolve(f, 1.0, float(t))).entries
        assert np.abs(rho_t - rho0).max() < 1e-6
