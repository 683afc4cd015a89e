import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_decoherence import density, kernel_engine, spectral
from dirac_decoherence.experiments import ScenarioConfig
from dirac_decoherence.grid import (
    Grid1D,
    InitialSpec,
    SpinorField,
    build_initial,
    check_mass,
    chirality_distributions,
    make_gaussian_packet,
    make_plane_wave,
    norm,
    normalized,
)

from oracles import mode_vectors_reference, normalized_reference


def test_grid_geometry():
    g = Grid1D(20.0, 1024)
    assert g.dx * g.n_points == pytest.approx(40.0, abs=0)
    assert g.x[0] == -20.0
    assert g.x[1] - g.x[0] == pytest.approx(g.dx)
    assert len(g.x) == 1024


def test_grid_rejects_odd_or_tiny_n():
    with pytest.raises(ValueError):
        Grid1D(20.0, 1023)
    with pytest.raises(ValueError):
        Grid1D(20.0, 0)


@pytest.mark.parametrize("n_points", [1024.0, 2.5])
def test_grid_rejects_non_integer_n(n_points):
    with pytest.raises(ValueError, match="n_points must be an integer"):
        Grid1D(20.0, n_points)


def test_grid_accepts_numpy_integer_n():
    assert Grid1D(20.0, np.int64(1024)).k.tobytes() == Grid1D(20.0, 1024).k.tobytes()


def test_check_mass_bounds_the_square():
    # The largest mass for which 2 m^2 is finite (the spectral engine sums
    # m^2 + (k + omega)^2) passes, the next float does not, nor does the
    # largest mass whose square is finite, and no numpy warning is raised on
    # the way.
    largest = math.sqrt(sys.float_info.max / 2)
    assert largest == 9.480751908109176e153
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_mass(largest)
        check_mass(np.float64(largest))
        for m in (math.nextafter(largest, math.inf), math.sqrt(sys.float_info.max), np.float64(1e200)):
            with pytest.raises(ValueError, match=re.escape(f"mass = {m} is too large: twice its square "
                                                           f"overflows float64 (the largest mass is about "
                                                           f"9.48e153)")):
                check_mass(m)


def test_gaussian_packet_normalized(grid):
    f = make_gaussian_packet(grid, 0.0, 1.0, (1.0, 0.0))
    assert norm(f) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("spinor", [(1e160, 0.0), (1e154, 1e154), (1e-160, 0.0), (1e-200, 0.0), (1e-310, 0.0)])
def test_gaussian_packet_normalizes_any_spinor_size(grid, spinor):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = make_gaussian_packet(grid, 0.0, 1.0, spinor)
    assert norm(f) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_packet_far_from_its_center_is_zero_without_a_warning():
    # |x - center| reaches 1e157, whose square overflows: the envelope there
    # is exp(-inf) = 0, with no numpy warning.
    grid = Grid1D(1e157, 65536)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = make_gaussian_packet(grid, 0.0, 1e153, (1.0, 1.0))
    assert norm(f) == pytest.approx(1.0, abs=1e-12)
    assert f.values[:, 0].tolist() == [0, 0]


def test_gaussian_packet_zero_component(grid):
    f = make_gaussian_packet(grid, 0.0, 1.0, (0.0, 1.0))
    assert np.all(f.minus == 0)


def test_equal_superposition_reduces_to_half_ones(equal_packet):
    rho = density.reduce(equal_packet).entries
    assert np.abs(rho - 0.5 * np.ones((2, 2))).max() < 1e-12


def test_packet_resolution_guards(grid):
    with pytest.raises(ValueError, match="grid cells"):
        make_gaussian_packet(grid, 0.0, 0.05, (1.0, 1.0))
    with pytest.raises(ValueError, match="wraparound"):
        make_gaussian_packet(grid, 0.0, 5.0, (1.0, 1.0))


def test_packet_wraparound_guard_counts_from_the_center(grid):
    # L = 20, sigma = 1: the packet needs 6 sigma between its center and the box edge.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for center in (14.0, -14.0):
            assert norm(make_gaussian_packet(grid, center, 1.0, (1.0, 1.0))) == pytest.approx(1.0)
        for center in (14.5, -14.5, 25.0, 1e308):
            with pytest.raises(ValueError, match="wraparound"):
                make_gaussian_packet(grid, center, 1.0, (1.0, 1.0))


def test_gaussian_packet_rejects_non_positive_width(grid):
    with pytest.raises(ValueError, match="width must be positive, got -1.0"):
        make_gaussian_packet(grid, 0.0, -1.0, (1.0, 1.0))


@pytest.mark.parametrize("half_extent,width,square", [(1e-160, 1e-162, "0.0"), (1e300, 1e298, "inf")])
def test_gaussian_packet_rejects_a_width_whose_square_is_out_of_range(half_extent, width, square):
    # A square of 0 made the envelope 0/0, NaN values; an infinite one raised
    # OverflowError from width**2, which the CLI does not catch.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"width = {width} is out of range: its "
                                                       f"square, {square}, is not positive")):
            make_gaussian_packet(Grid1D(half_extent, 1024), 0.0, width, (1, 1))


def test_zero_spinor_rejected(grid):
    with pytest.raises(ValueError):
        make_gaussian_packet(grid, 0.0, 1.0, (0.0, 0.0))


def test_field_rejects_wrong_shape(grid):
    with pytest.raises(ValueError, match=r"values must have shape \(2, 1024\), got \(2, 512\)"):
        SpinorField(grid, np.zeros((2, 512)))


def test_norm_zero_field(grid):
    z = SpinorField(grid, np.zeros((2, grid.n_points)))
    assert norm(z) == 0.0


@given(scale=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_norm_quadratic_homogeneity(scale):
    g = Grid1D(20.0, 256)
    f = make_gaussian_packet(g, 0.0, 1.0, (1.0, 0.5j))
    scaled = SpinorField(g, f.values * scale)
    assert norm(scaled) == pytest.approx(scale**2 * norm(f), rel=1e-12)


def _raw_gaussian(grid):
    """The unit Gaussian at the origin times the spinor (1, 1), which
    make_gaussian_packet scales to (0.5, 0.5) before it normalizes."""
    return SpinorField(grid, np.outer([0.5, 0.5], np.exp(-(grid.x**2) / 2.0)))


def _raw_projection(grid):
    return spectral.project_energy(make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0)), 1.0)


def _raw_kernel_walk(grid):
    """The unit-mass walk to 13 cells before its renormalization."""
    out = make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0))
    for cells, count in kernel_engine.walk(13 * grid.dx, grid):
        for _ in range(count):
            out = kernel_engine.evolve_step(out, 1.0, cells * grid.dx)
    return out


@pytest.mark.parametrize("raw,built", [
    (_raw_gaussian, lambda grid: make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0))),
    (_raw_projection, lambda grid: build_initial(InitialSpec(kind="positive_energy_packet", mass=1.0), grid)),
    (_raw_kernel_walk, lambda grid: kernel_engine.evolve_to(
        make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0)), 1.0, 13 * grid.dx)),
], ids=["gaussian_packet", "positive_energy_packet", "kernel_walk"])
def test_normalized_is_the_division_by_the_root_norm_bit_for_bit(grid, raw, built):
    field = raw(grid)
    expected = normalized_reference(field.values, grid.dx).tobytes()
    assert normalized(field, "the field").values.tobytes() == expected
    assert built(grid).values.tobytes() == expected


@pytest.mark.parametrize("value,total", [(0.0, "0.0"), (np.inf, "inf"), (np.nan, "nan")])
def test_normalized_rejects_a_norm_not_finite_and_positive(grid, value, total):
    values = np.zeros((2, grid.n_points), dtype=complex)
    values[0, 5] = value
    message = f"the test field ends with norm {total}, not finite and positive, so it cannot be renormalized"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            normalized(SpinorField(grid, values), "the test field")


def test_normalized_returns_a_fresh_read_only_field(grid, equal_packet):
    field = SpinorField(grid, 2.0 * equal_packet.values)
    before = field.values.tobytes()
    out = normalized(field, "the doubled packet")
    assert not out.values.flags.writeable
    assert not np.shares_memory(out.values, field.values)
    assert field.values.tobytes() == before
    assert norm(out) == pytest.approx(1.0, abs=1e-14)


def test_plane_wave_properties(grid):
    pw = make_plane_wave(grid, 3, 1, 1.0)
    assert norm(pw) == pytest.approx(1.0, abs=1e-12)
    u_plus = spectral.eigenspinor(3 * np.pi / 20.0, 1, 1.0)
    u_minus = spectral.eigenspinor(3 * np.pi / 20.0, -1, 1.0)
    assert abs(np.vdot(u_plus, u_minus)) < 1e-14


def test_plane_wave_k0_phase(grid):
    pw = make_plane_wave(grid, 0, 1, 1.0)
    evolved = spectral.evolve(pw, 1.0, 0.4)
    assert np.abs(evolved.values - pw.values * np.exp(-1j * 0.4)).max() < 1e-12


def test_plane_wave_mode_range(grid):
    with pytest.raises(ValueError):
        make_plane_wave(grid, 512, 1, 1.0)
    make_plane_wave(grid, -512, 1, 1.0)  # Nyquist mode belongs to negative k


@pytest.mark.parametrize("mode_index", [3.5, 3.0])
def test_plane_wave_mode_index_must_be_an_integer(grid, mode_index):
    with pytest.raises(ValueError, match="mode_index must be an integer"):
        make_plane_wave(grid, mode_index, 1, 1.0)
    spec = InitialSpec(kind="plane_wave", mass=1.0, mode_index=mode_index)
    with pytest.raises(ValueError, match="mode_index must be an integer"):
        ScenarioConfig(mass=1.0, initial=spec, times=(1.0,))
    assert np.array_equal(make_plane_wave(grid, np.int64(3), 1, 1.0).values,
                          make_plane_wave(grid, 3, 1, 1.0).values)


def test_distributions_consistent_with_density(equal_packet):
    pm, pp = chirality_distributions(equal_packet)
    rho = density.reduce(equal_packet).entries
    dx = equal_packet.grid.dx
    assert np.sum(pm) * dx == pytest.approx(rho[0, 0].real, abs=1e-12)
    assert np.sum(pp) * dx == pytest.approx(rho[1, 1].real, abs=1e-12)


def test_distributions_coincident_at_t0(equal_packet):
    pm, pp = chirality_distributions(equal_packet)
    assert np.abs(pm - pp).max() < 1e-15


def test_massless_distributions_split(equal_packet):
    evolved = spectral.evolve(equal_packet, 0.0, 1.0)
    pm, pp = chirality_distributions(evolved)
    x = equal_packet.grid.x
    assert x[np.argmax(pm)] == pytest.approx(-1.0, abs=equal_packet.grid.dx)
    assert x[np.argmax(pp)] == pytest.approx(1.0, abs=equal_packet.grid.dx)


def test_positive_energy_packet_disperses(grid):
    spec = InitialSpec(kind="positive_energy_packet", mass=1.0)
    f = build_initial(spec, grid)
    assert norm(f) == pytest.approx(1.0, abs=1e-12)
    # Position variance under psi^dagger psi, at t = 0 and t = 2.
    var0, var2 = (
        np.cov(grid.x, aweights=np.sum(np.abs(g.values) ** 2, axis=0), bias=True)
        for g in (f, spectral.evolve(f, 1.0, 2.0))
    )
    assert var2 > var0


def test_positive_energy_packet_without_positive_energy_content_rejected(grid):
    # At m = 1e20 the projection onto positive energies rounds to zero in every mode.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="packet has no positive-energy content"):
            build_initial(InitialSpec(kind="positive_energy_packet", mass=1e20), grid)


def test_positive_energy_packet_with_a_nan_norm_rejected():
    # k_max = 1.6e158 on this grid, so omega overflows and the projection is NaN
    # (ScenarioConfig rejects such a grid before building anything).
    spec = InitialSpec(kind="positive_energy_packet", mass=1.0, width=1e-157)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="packet has no positive-energy content"):
        build_initial(spec, Grid1D(1e-155, 1024))


def test_reflection_symmetry(grid):
    # Parity in the chiral basis: x -> -x together with swapping components.
    a, b = 0.8 + 0.1j, 0.3 - 0.2j
    left = make_gaussian_packet(grid, 1.5, 1.0, (a, b))
    right = make_gaussian_packet(grid, -1.5, 1.0, (b, a))
    n = grid.n_points
    reflect = np.concatenate([[0], np.arange(n - 1, 0, -1)])  # x_i -> -x_i index map
    reflected = left.values[::-1][:, reflect]
    # Equal up to the summation-order roundoff of the normalization constant.
    assert np.abs(reflected - right.values).max() < 1e-15


def test_initial_spec_validation():
    with pytest.raises(ValueError):
        InitialSpec(kind="bogus")
    with pytest.raises(ValueError):
        InitialSpec(kind="gaussian_packet", width=-1.0)
    with pytest.raises(ValueError):
        InitialSpec(kind="gaussian_packet", spinor=(0.0, 0.0))
    # A field the kind does not read must keep its default.
    with pytest.raises(ValueError, match="positive_energy_packet does not use energy_sign"):
        InitialSpec(kind="positive_energy_packet", energy_sign=-1)
    with pytest.raises(ValueError, match="plane_wave does not use spinor"):
        InitialSpec(kind="plane_wave", spinor=(1.0, 0.0))
    InitialSpec(kind="plane_wave", spinor=(1.0 + 0.0j, 1.0 + 0.0j), mode_index=3, energy_sign=-1)


def test_plane_wave_spec_rejects_zero_energy_sign():
    with pytest.raises(ValueError, match=r"energy_sign must be \+1 or -1, got 0"):
        InitialSpec(kind="plane_wave", energy_sign=0)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["half_extent", "mass", "center", "width", "spinor"])
def test_non_finite_value_is_rejected_naming_its_field(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be .*finite"):
        if name == "half_extent":
            Grid1D(value, 1024)
        else:
            InitialSpec(kind="gaussian_packet", **{name: (1.0, value) if name == "spinor" else value})


def test_field_copies_what_its_caller_can_still_write(grid):
    values = np.ones((2, grid.n_points), dtype=np.complex128)
    field = SpinorField(grid, values)
    basis = spectral.eigenbasis(grid, 1.0)
    amp_plus = np.sum(np.conj(basis.u_plus) * mode_vectors_reference(field), axis=0)
    values[:] = 7.0
    assert np.all(field.values == 1.0)
    assert np.array_equal(spectral.decompose(field, 1.0).amp_plus, amp_plus)
    with pytest.raises(ValueError):
        field.values[0, 0] = 0.0
    # A read-only view of writeable memory is copied too.
    view = values.view()
    view.flags.writeable = False
    field = SpinorField(grid, view)
    values[:] = 3.0
    assert field.values is not view and np.all(field.values == 7.0)


def test_field_adopts_a_read_only_array_it_owns(grid):
    owned = np.ones((2, grid.n_points), dtype=np.complex128)
    owned.flags.writeable = False
    assert SpinorField(grid, owned).values is owned
    view = owned[:, :]
    assert SpinorField(grid, view).values is not view
    fortran = np.asfortranarray(owned)
    fortran.flags.writeable = False
    copied = SpinorField(grid, fortran).values
    assert copied is not fortran and copied.flags.c_contiguous


def test_field_made_from_its_spectrum_computes_its_values_once(grid):
    rng = np.random.default_rng(5)
    spectrum = rng.normal(size=(2, grid.n_points)) + 1j * rng.normal(size=(2, grid.n_points))
    field = SpinorField.from_spectrum(grid, spectrum)
    original, expected = spectrum.copy(), np.fft.ifft(spectrum, axis=1)
    spectrum[:] = 7.0  # a writeable array is copied
    assert set(vars(field)) == {"grid", "spectrum"}
    values = field.values
    assert set(vars(field)) == {"grid", "spectrum", "values"}
    assert field.values is values and values.tobytes() == expected.tobytes()
    assert field.spectrum.tobytes() == original.tobytes()
    for array in (field.values, field.spectrum):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    with pytest.raises(AttributeError, match="has no attribute 'amplitudes'"):
        field.amplitudes
    # replace makes a field from the values, with the same bits.
    assert replace(field).values.tobytes() == values.tobytes()


def test_field_made_from_its_values_computes_its_spectrum_once(grid):
    values = make_gaussian_packet(grid, 0.3, 1.0, (1.0, 0.5j)).values
    field = SpinorField(grid, values)
    assert set(vars(field)) == {"grid", "values"}
    spectrum = field.spectrum
    assert field.spectrum is spectrum and spectrum.tobytes() == np.fft.fft(values, axis=1).tobytes()
    with pytest.raises(ValueError):
        spectrum[0, 0] = 0.0


def test_field_adopts_a_read_only_spectrum_it_owns_and_checks_its_shape(grid):
    owned = np.ones((2, grid.n_points), dtype=np.complex128)
    owned.flags.writeable = False
    assert SpinorField.from_spectrum(grid, owned).spectrum is owned
    with pytest.raises(ValueError, match=re.escape(f"spectrum must have shape (2, {grid.n_points}), "
                                                   f"got (2, 512)")):
        SpinorField.from_spectrum(grid, np.ones((2, 512)))
    with pytest.raises(ValueError, match=re.escape(f"spectrum must have shape (2, {grid.n_points}), "
                                                   f"got ({grid.n_points},)")):
        SpinorField.from_spectrum(grid, owned[0])
