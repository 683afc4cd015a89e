"""Acceptance gate: twelve release criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines on a
passing run; on failures pytest shows them in the captured output.
"""

import numpy as np
import pytest

from dirac_decoherence import density, kernel_engine, spectral
from dirac_decoherence.experiments import InitialSpec, entropy_curve
from dirac_decoherence.grid import (
    Grid1D,
    SpinorField,
    build_initial,
    make_gaussian_packet,
    make_plane_wave,
    norm,
)
from dirac_decoherence import bessel

from oracles import binary_entropy_bits, j0_oracle, j1_oracle

GRID = Grid1D(20.0, 1024)


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"CRITERION {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _equal_packet() -> SpinorField:
    return make_gaussian_packet(GRID, 0.0, 1.0, (1.0, 1.0))


def test_criterion_01_massless_closed_form():
    f = _equal_packet()
    ok = True
    for t in np.arange(0.0, 3.01, 0.25):
        rho = density.reduce(spectral.evolve(f, 0.0, float(t)))
        off = np.exp(-t * t) / 2.0
        ok &= abs(rho.entries[0, 1] - off) < 1e-6
        ok &= abs(density.entropy_bits(rho) - binary_entropy_bits(0.5 + off)) < 1e-6
    _verdict(1, "massless closed form", bool(ok))


def test_criterion_02_mass_ordering_of_early_entropy():
    s = {}
    for m in (0.0, 1.0, 2.0):
        trace = entropy_curve(InitialSpec(kind="gaussian_packet", mass=m, spinor=(1.0, 1.0)), 0.2)
        s[m] = trace.entropy[-1]
    ok = s[0.0] - s[1.0] > 1e-3 and s[1.0] - s[2.0] > 1e-3
    _verdict(2, "mass ordering at t = 0.2", ok)


def test_criterion_03_heavy_mass_local_maximum():
    trace = entropy_curve(InitialSpec(kind="gaussian_packet", mass=2.0, spinor=(1.0, 1.0)), 1.05)
    s = trace.entropy
    peaks = np.flatnonzero((s[1:-1] > s[:-2]) & (s[1:-1] > s[2:])) + 1
    ok = peaks.size > 0
    if ok:
        t_star, s_star = trace.times[peaks[0]], s[peaks[0]]
        ok = 0.0 < t_star <= 1.0
        i_after = int(np.argmin(np.abs(trace.times - (t_star + 0.05))))
        ok &= trace.entropy[i_after] < s_star - 1e-4
    _verdict(3, "m = 2 local maximum then decrease", bool(ok))


def test_criterion_04_unit_mass_non_monotone():
    trace = entropy_curve(InitialSpec(kind="gaussian_packet", mass=1.0, spinor=(1.0, 1.0)), 2.0)
    peak = int(np.argmax(trace.entropy))
    ok = peak < len(trace.entropy) - 1
    ok &= float(trace.entropy[peak] - trace.entropy[-1]) > 1e-3
    _verdict(4, "m = 1 non-monotone on [0, 2]", bool(ok))


def test_criterion_05_stationary_states_frozen():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(10):
        mode_index = int(rng.integers(-GRID.n_points // 2 + 1, GRID.n_points // 2))
        eps = int(rng.choice([-1, 1]))
        m = float(rng.uniform(0.0, 3.0))
        wave = make_plane_wave(GRID, mode_index, eps, m)
        rho0 = density.reduce(wave).entries
        for t in np.linspace(0.0, 5.0, 11):
            rho_t = density.reduce(spectral.evolve(wave, m, float(t))).entries
            ok &= float(np.abs(rho_t - rho0).max()) < 1e-9
    _verdict(5, "stationary states do not decohere", bool(ok))


def test_criterion_06_dispersion_without_decoherence():
    f = build_initial(InitialSpec(kind="positive_energy_packet", mass=1.0), GRID)
    # Position variance under psi^dagger psi, at t = 0 and t = 2.
    var0, var2 = (
        np.cov(GRID.x, aweights=np.sum(np.abs(g.values) ** 2, axis=0), bias=True)
        for g in (f, spectral.evolve(f, 1.0, 2.0))
    )
    ok = var2 / var0 > 1.05
    rho0 = density.reduce(f).entries
    for t in np.linspace(0.0, 2.0, 9):
        rho_t = density.reduce(spectral.evolve(f, 1.0, float(t))).entries
        ok &= float(np.abs(rho_t - rho0).max()) < 1e-6
    _verdict(6, "dispersion without decoherence", bool(ok))


def test_criterion_07_predicate_soundness():
    f = build_initial(InitialSpec(kind="positive_energy_packet", mass=1.0), GRID)
    modes = spectral.decompose(f, 1.0)
    ok = not density.decoherence_predicate(modes, 1e-10)
    s0 = density.entropy_bits(density.reduce(f))
    for t in np.linspace(0.0, 5.0, 11):
        s_t = density.entropy_bits(density.reduce(spectral.evolve(f, 1.0, float(t))))
        ok &= abs(s_t - s0) < 1e-6
    for m in (0.0, 1.0, 2.0):
        packet = make_gaussian_packet(GRID, 0.0, 1.0, (1.0, 1.0))
        ok &= density.decoherence_predicate(spectral.decompose(packet, m), 1e-10)
    _verdict(7, "decoherence predicate soundness", bool(ok))


def test_criterion_08_oscillation_frequency():
    # k = 1 must sit exactly on the momentum lattice k_j = pi j / L, so use
    # L = 5 pi (j = 5) rather than the default grid.
    g = Grid1D(5.0 * np.pi, 1024)
    m = 1.0
    k = 1.0
    omega = np.sqrt(k * k + m * m)
    u_p = spectral.eigenspinor(k, 1, m)
    u_m = spectral.eigenspinor(k, -1, m)
    phase = np.exp(1j * k * g.x) / np.sqrt(2.0 * g.half_extent)
    f = SpinorField(g, ((u_p + u_m) / np.sqrt(2.0))[:, None] * phase[None, :])
    modes = spectral.decompose(f, m)
    times = np.arange(0.0, 20.0, 0.005)
    signal = np.array(
        [density.reduce_from_modes(modes, float(t)).entries[0, 1].real for t in times]
    )
    signal = signal - signal.mean()
    sign = np.sign(signal)
    crossings = []
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        frac = signal[i] / (signal[i] - signal[i + 1])
        crossings.append(times[i] + frac * (times[i + 1] - times[i]))
    spacings = np.diff(crossings)
    measured = np.pi / np.mean(spacings)
    ok = abs(measured - 2.0 * omega) / (2.0 * omega) < 0.01
    _verdict(8, "oscillation at twice the mode energy", bool(ok))


def test_criterion_09_engine_cross_validation():
    ok = True
    for n_points, tol in ((1024, 1e-3), (4096, 1e-4)):
        g = Grid1D(20.0, n_points)
        cells = int(round(0.1 / g.dx))
        dt = cells * g.dx
        f = make_gaussian_packet(g, 0.0, 1.0, (1.0, 1.0))
        for m in (0.5, 1.0, 2.0):
            stepped = kernel_engine.evolve_step(f, m, dt)
            exact = spectral.evolve(f, m, dt)
            rel = float(
                np.linalg.norm(stepped.values - exact.values)
                / np.linalg.norm(exact.values)
            )
            ok &= rel < tol
    _verdict(9, "spectral vs lightcone-kernel engines", bool(ok))


def test_criterion_10_unitarity_and_hygiene():
    f = make_gaussian_packet(GRID, 0.0, 1.0, (0.6, 0.8j))
    ok = True
    for t in np.linspace(0.0, 10.0, 21):
        ft = spectral.evolve(f, 1.0, float(t))
        ok &= abs(norm(ft) - 1.0) < 1e-12
        rho = density.reduce(ft).entries
        ok &= float(np.abs(rho - rho.conj().T).max()) < 1e-12
        ok &= abs(np.trace(rho).real - 1.0) < 1e-10
        ok &= float(min(density.eigenvalues2(density.reduce(ft)))) >= -1e-12
    _verdict(10, "unitarity and density-matrix hygiene", bool(ok))


def test_criterion_11_bessel_accuracy():
    xs = np.linspace(0.0, 50.0, 1000)
    ok = True
    for x in xs:
        ok &= abs(bessel.j0(float(x)) - j0_oracle(float(x))) < 1e-10
        ok &= abs(bessel.j1(float(x)) - j1_oracle(float(x))) < 1e-10
    _verdict(11, "Bessel J0/J1 accuracy on [0, 50]", bool(ok))


def test_criterion_12_dual_route_density_matrix():
    rng = np.random.default_rng(12)
    ok = True
    for _ in range(20):
        values = rng.normal(size=(2, GRID.n_points)) + 1j * rng.normal(
            size=(2, GRID.n_points)
        )
        values /= np.sqrt(np.sum(np.abs(values) ** 2) * GRID.dx)
        f = SpinorField(GRID, values)
        for m in (0.0, 1.0):
            modes = spectral.decompose(f, m)
            for t in (0.5, 1.0, 2.0):
                a = density.reduce(spectral.evolve(f, m, t)).entries
                b = density.reduce_from_modes(modes, t).entries
                ok &= float(np.abs(a - b).max()) < 1e-10
    _verdict(12, "position and momentum tracing routes agree", bool(ok))
