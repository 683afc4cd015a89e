import warnings
from dataclasses import replace

import numpy as np
import pytest

from dirac_decoherence import density, experiments
from dirac_decoherence.experiments import (
    FIGURES,
    FigureDataset,
    InitialSpec,
    ScenarioConfig,
    distribution_dataset,
    entropy_curve,
    run_scenario,
)
from dirac_decoherence.grid import Grid1D, build_initial

from oracles import binary_entropy_bits, massless_off_diagonal


def equal_superposition(mass):
    return InitialSpec(kind="gaussian_packet", mass=mass, spinor=(1.0, 1.0))


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(mass=1.0, initial=equal_superposition(1.0), times=())
    with pytest.raises(ValueError):
        ScenarioConfig(mass=1.0, initial=equal_superposition(1.0), times=(0.0, 0.0))
    with pytest.raises(ValueError):
        ScenarioConfig(mass=1.0, initial=equal_superposition(1.0), times=(0.0, 1.0), engine="magic")
    with pytest.raises(ValueError, match="differs from the initial state's mass"):
        ScenarioConfig(mass=1.0, initial=equal_superposition(2.0), times=(0.0, 1.0))


@pytest.mark.parametrize("times", [(np.nan,), (0.0, np.nan), (0.0, np.inf)])
def test_scenario_config_rejects_non_finite_times(times):
    with pytest.raises(ValueError, match="finite"):
        ScenarioConfig(mass=1.0, initial=equal_superposition(1.0), times=times)


def test_scenario_config_builds_its_initial_field_once():
    cfg = ScenarioConfig(mass=1.0, initial=equal_superposition(1.0), times=(0.0, 0.5))
    expected = build_initial(cfg.initial, cfg.grid)
    assert cfg.field0.values.tobytes() == expected.values.tobytes()
    with pytest.raises(AttributeError):
        cfg.field0 = expected
    with pytest.raises(ValueError):
        cfg.field0.values[0, 0] = 0.0
    # field0 is left out of equality and hashing, and replace rebuilds it.
    same = ScenarioConfig(mass=1.0, initial=equal_superposition(1.0), times=(0.0, 0.5))
    assert same == cfg and hash(same) == hash(cfg) and same.field0 is not cfg.field0
    moved = replace(cfg, initial=InitialSpec(kind="gaussian_packet", mass=1.0, center=1.0))
    moved_expected = build_initial(moved.initial, moved.grid)
    assert moved.field0.values.tobytes() == moved_expected.values.tobytes()


def test_distribution_dataset_takes_one_time():
    cfg = ScenarioConfig(mass=1.0, initial=equal_superposition(1.0), times=(0.0, 0.5))
    with pytest.raises(ValueError, match="one time, got 2"):
        distribution_dataset("x", cfg)


def test_massless_scenario_matches_closed_form():
    cfg = ScenarioConfig(
        mass=0.0, initial=equal_superposition(0.0), times=tuple(np.arange(0.0, 3.1, 0.5))
    )
    trace = run_scenario(cfg).trace
    for t, s in zip(trace.times, trace.entropy):
        assert abs(s - binary_entropy_bits(0.5 + massless_off_diagonal(t))) < 1e-6


def test_pure_product_state_starts_at_zero():
    cfg = ScenarioConfig(mass=1.0, initial=equal_superposition(1.0), times=(0.0,))
    trace = run_scenario(cfg).trace
    assert trace.entropy[0] < 1e-12


def test_engines_agree_on_entropy():
    # dx = 1/32 makes t = 1 commensurate for the kernel engine.
    from dirac_decoherence.grid import Grid1D

    grid = Grid1D(16.0, 1024)
    spectral_cfg = ScenarioConfig(
        mass=1.0, initial=equal_superposition(1.0), grid=grid, times=(1.0,)
    )
    s_spectral = run_scenario(spectral_cfg).trace.entropy[0]
    kernel_cfg = ScenarioConfig(
        mass=1.0, initial=equal_superposition(1.0), grid=grid, times=(1.0,), engine="kernel"
    )
    s_kernel = run_scenario(kernel_cfg).trace.entropy[0]
    assert abs(s_spectral - s_kernel) < 2e-3


# The spinors of the scaled requests: packets of width 1.3 centred at -1.5
# on the L = 20 box before scaling.
SCALED_PACKETS = {
    "equal": dict(kind="gaussian_packet", spinor=(1.0, 1.0)),
    "chiral": dict(kind="gaussian_packet", spinor=(0.0, 1.0)),
    "phased": dict(kind="gaussian_packet", spinor=(1.0, 0.6 + 0.8j)),
    "positive_energy": dict(kind="positive_energy_packet", spinor=(1.0, 1.0)),
}


def scaled_request(engine, packet, scale):
    """The request with L, sigma, center and t times scale and m over scale, at N = 1024."""
    mass = 1.3 / scale
    grid = Grid1D(20.0 * scale, 1024)
    initial = InitialSpec(mass=mass, center=-1.5 * scale, width=1.3 * scale, **SCALED_PACKETS[packet])
    times = tuple(cells * grid.dx for cells in (1, 3, 13, 26, 51))
    return ScenarioConfig(mass=mass, initial=initial, times=times, grid=grid, engine=engine)


def trace_entries(cfg):
    trace = run_scenario(cfg).trace
    return np.stack([trace.entropy, trace.rho00, trace.rho11, trace.rho01.real, trace.rho01.imag])


@pytest.mark.parametrize("packet", list(SCALED_PACKETS))
@pytest.mark.parametrize("engine", experiments.ENGINES)
def test_results_do_not_depend_on_the_unit_of_length(engine, packet):
    # The Dirac equation is unchanged when lengths and times are multiplied
    # by a scale and the mass divided by it, and so is each engine's plan: a
    # walk takes the same whole steps of cells on every box.  A power of 4
    # scales every float exactly, square roots included, so the entries are
    # the same bits and each probability per site, a density in 1/length,
    # scales by 1/scale exactly; other scales agree to roundoff.
    base = scaled_request(engine, packet, 1.0)
    entries = trace_entries(base)
    for scale in (4.0, 0.25):
        cfg = scaled_request(engine, packet, scale)
        assert trace_entries(cfg).tobytes() == entries.tobytes()
        for t, t_scaled in zip(base.times, cfg.times):
            one = distribution_dataset("d", replace(base, times=(t,))).series
            scaled = distribution_dataset("d", replace(cfg, times=(t_scaled,))).series
            for name, column in one.items():
                assert (scaled[name] * scale).tobytes() == column.tobytes()
    for scale in (2.0, 3.0):
        assert np.abs(trace_entries(scaled_request(engine, packet, scale)) - entries).max() <= 1e-13


def test_kernel_check_does_not_grow_with_time():
    # t = 1e8 on the figure grid is 8.5e8 steps; checking it plans two runs.
    ScenarioConfig(mass=1.0, initial=equal_superposition(1.0), times=(1e8,), engine="kernel")


def test_spectral_config_rejects_a_frequency_that_overflows():
    # k_max = pi/dx is 1.6e303 on this grid, so k_max^2 overflows and the
    # spectral engine cannot evolve at any time, t = 0 included; the check
    # runs before the initial field is built, with no numpy warning.
    spec = InitialSpec(kind="gaussian_packet", mass=1.0, width=1e-302)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"omega_max = sqrt\(k_max\^2 \+ m\^2\) overflows float64 "
                                             r"\(k_max = 1.6085e\+303, m = 1.0\)"):
            ScenarioConfig(mass=1.0, initial=spec, times=(0.0,), grid=Grid1D(1e-300, 1024))


def test_kernel_request_transform_calls(fft_calls):
    # The benchmark's kernel_desk request: 51 samples of 1 to 51 cells on the
    # figure grid, each walked from field0 in 3-cell steps.  Over the 51
    # walks the taps are built 83 times (once per step length of a walk),
    # each from one transformed row, and each walk inverts its last field's
    # two rows once; field0 is transformed on the first request and keeps
    # its spectrum, so a repeated request makes 134 numpy FFT calls (1001
    # when every step transformed and inverted its rows) on 185 rows (351
    # when each tap build transformed three).
    grid = experiments.DEFAULT_GRID
    cfg = ScenarioConfig(mass=1.3, initial=equal_superposition(1.3), engine="kernel",
                         times=tuple(i * grid.dx for i in range(1, 52)))
    fft_calls.zero()
    run_scenario(cfg)
    assert fft_calls == {"fft": 1 + 83, "ifft": 51, "fft_rows": 2 + 83, "ifft_rows": 102}
    fft_calls.zero()
    run_scenario(cfg)
    assert fft_calls == {"fft": 83, "ifft": 51, "fft_rows": 83, "ifft_rows": 102}


def test_kernel_engine_rejects_non_commensurate_times():
    with pytest.raises(ValueError, match="commensurate"):
        ScenarioConfig(mass=1.0, initial=equal_superposition(1.0), times=(1.0,), engine="kernel")


def test_time_grid_rule():
    # t_start + i*step, so 0.3 / 0.1 gives 0.1 + 0.1 + 0.1 rather than 0.3.
    assert experiments.uniform_times(0.0, 0.3, 0.1) == (0.0, 0.1, 0.2, 0.1 * 3)
    assert experiments.uniform_times(0.5, 0.5, 0.1) == (0.5,)
    with pytest.raises(ValueError, match="positive"):
        experiments.uniform_times(0.0, 1.0, 0.0)


# The last three cases' step counts, (t_end - t_start) / t_step, are inf, 1e303
# and 2**53, where every float is whole.  A count below that is not rejected:
# the grid is one numpy array built after the count check, so a count the host
# cannot allocate, such as 1e12 steps, fails at once with a MemoryError.  No
# test runs that case: whether the allocation is refused depends on the host's
# memory overcommit policy.
@pytest.mark.parametrize("t_start,t_end,step", [
    (np.nan, 1.0, 0.1), (0.0, np.inf, 0.1), (0.0, 1.0, np.inf), (0.0, 1.0, np.nan),
    (0.0, 1e300, 1e-300), (0.0, 1e300, 1e-3), (0.0, 2.0**53, 1.0),
])
def test_time_grid_rejects_non_finite(t_start, t_end, step):
    with pytest.raises(ValueError, match="finite"):
        experiments.uniform_times(t_start, t_end, step)


def test_uniform_times_rejects_step_not_dividing_range():
    with pytest.raises(ValueError, match="does not divide"):
        experiments.uniform_times(0.0, 1.0, 0.3)


def test_uniform_times_rejects_reversed_range():
    with pytest.raises(ValueError, match="t_end = 0.5 is before t_start = 1.0"):
        experiments.uniform_times(1.0, 0.5, 0.1)


def test_figure1_features():
    data = FIGURES["fig1"]()
    t = data.abscissa
    s0, s1, s2 = data.series["m=0"], data.series["m=1"], data.series["m=2"]
    assert all(s[0] < 1e-12 for s in (s0, s1, s2))
    assert np.all(s0[1:] >= s1[1:]) and np.all(s1[1:] >= s2[1:])
    i = np.argmin(np.abs(t - 0.2))
    assert s0[i] > s1[i] > s2[i]
    i1 = np.argmin(np.abs(t - 1.0))
    assert s0[i1] == pytest.approx(binary_entropy_bits(0.5 + massless_off_diagonal(1.0)), abs=1e-6)


def test_figure2_massless_distributions():
    data = FIGURES["fig2"]()
    x = data.abscissa
    pm, pp = data.series["prob_minus"], data.series["prob_plus"]
    dx = x[1] - x[0]
    assert abs(x[np.argmax(pm)] + 1.0) <= dx
    assert abs(x[np.argmax(pp)] - 1.0) <= dx
    assert np.sum(pm) * dx == pytest.approx(0.5, abs=1e-10)
    assert np.sum(pp) * dx == pytest.approx(0.5, abs=1e-10)


def test_figure3_reduced_separation():
    def mean_separation(data):
        x = data.abscissa
        dx = x[1] - x[0]
        pm, pp = data.series["prob_minus"], data.series["prob_plus"]
        mm = np.sum(x * pm) / np.sum(pm)
        mp = np.sum(x * pp) / np.sum(pp)
        return mp - mm

    sep0 = mean_separation(FIGURES["fig2"]())
    sep1 = mean_separation(FIGURES["fig3"]())
    assert sep0 == pytest.approx(2.0, abs=1e-6)
    assert 0.0 < sep1 < sep0


def test_figure4_non_monotone_with_overlap():
    data = FIGURES["fig4"]()
    s = data.series["S_bits"]
    assert s[0] < 1e-12
    peak = np.argmax(s)
    assert 0 < peak < len(s) - 1
    assert s.max() - s[-1] > 1e-3
    assert {inset.figure_id for inset in data.insets} == {
        "fig4_inset_t0.5", "fig4_inset_t1", "fig4_inset_t1.5", "fig4_inset_t2"
    }
    last = data.insets[-1]
    pm, pp = last.series["prob_minus"], last.series["prob_plus"]
    central = np.abs(last.abscissa) < 1.0
    assert np.min((pm + pp)[central]) > 0.0


def test_figure5_slower_than_equal_superposition():
    chiral = FIGURES["fig5"]()
    equal = FIGURES["fig1"]().series["m=1"]
    s = chiral.series["S_bits"]
    assert s[0] < 1e-12
    assert np.all(s[1:] < equal[1:])
    inset = chiral.insets[0]
    dx = inset.abscissa[1] - inset.abscissa[0]
    w_minus = np.sum(inset.series["prob_minus"]) * dx
    w_plus = np.sum(inset.series["prob_plus"]) * dx
    assert 0.0 < w_minus < w_plus


def test_mass_ordering_of_peaks():
    # Lighter particles decohere faster and reach higher entropy peaks.
    early, peaks = [], []
    for m in (0.5, 1.0, 2.0):
        trace = entropy_curve(equal_superposition(m), 2.0)
        i = np.argmin(np.abs(trace.times - 0.2))
        early.append(trace.entropy[i])
        peaks.append(trace.entropy.max())
    assert early[0] > early[1] > early[2]
    assert peaks[0] > peaks[1] > peaks[2]


def test_determinism():
    a = FIGURES["fig1"]()
    b = FIGURES["fig1"]()
    assert np.array_equal(a.series["m=1"], b.series["m=1"])


def test_figure_dataset_validation():
    with pytest.raises(ValueError):
        FigureDataset(
            figure_id="x", abscissa_label="t", abscissa=np.arange(3.0),
            series={"s": np.arange(2.0)},
        )


def test_dispersion_without_decoherence():
    from dirac_decoherence import spectral
    from dirac_decoherence.experiments import DEFAULT_GRID

    spec = InitialSpec(kind="positive_energy_packet", mass=1.0)
    f = build_initial(spec, DEFAULT_GRID)
    # Position variance under psi^dagger psi, at t = 0 and t = 2.
    var0, var2 = (
        np.cov(DEFAULT_GRID.x, aweights=np.sum(np.abs(g.values) ** 2, axis=0), bias=True)
        for g in (f, spectral.evolve(f, 1.0, 2.0))
    )
    assert var2 / var0 > 1.05
    rho0 = density.reduce(f).entries
    for t in np.linspace(0.0, 5.0, 11):
        rho_t = density.reduce(spectral.evolve(f, 1.0, float(t))).entries
        assert np.abs(rho_t - rho0).max() < 1e-6
