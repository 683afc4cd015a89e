"""Scenario runner and figure datasets.

Each figure of the reference results is regenerated as a FigureDataset of
plain numeric columns: entropy-versus-time curves for masses {0, 1, 2},
chirality position distributions at fixed times, and the chiral initial
condition.  Each sample evolves the request's initial field (field0) from
t = 0 on the request's engine, spectral or kernel, so no error carries over
from one sample to the next; t = 0 itself always goes to the spectral engine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import bessel, density, kernel_engine, spectral
from .grid import Grid1D, InitialSpec, SpinorField, build_initial, chirality_distributions

DEFAULT_GRID = Grid1D(20.0, 1024)
DEFAULT_TRACE_STEP = 0.01
ENGINES = ("spectral", "kernel")


@dataclass(frozen=True)
class ScenarioConfig:
    """One checked request; constructing it builds its initial field once, as field0."""

    mass: float
    initial: InitialSpec
    times: tuple[float, ...]
    grid: Grid1D = DEFAULT_GRID
    engine: str = "spectral"
    field0: SpinorField = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.mass != self.initial.mass:
            raise ValueError(f"mass = {self.mass} differs from the initial state's "
                             f"mass = {self.initial.mass}")
        t = np.asarray(self.times, dtype=np.float64)
        if len(t) == 0:
            raise ValueError("times must be nonempty")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if t[0] < 0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be nonnegative and strictly increasing")
        if self.engine == "kernel":
            for ti in t:  # each walk is checked before any step
                runs = kernel_engine.walk(float(ti), self.grid)
            # The last time's first step is the longest; its taps need J at m * dt.
            dt = runs[0][0] * self.grid.dx if runs else 0.0
            if not self.mass * dt <= bessel.LARGEST:
                raise ValueError(f"mass = {self.mass} is too large for the kernel engine: its "
                                 f"longest step, dt = {dt}, needs Bessel arguments up to m * dt = "
                                 f"{self.mass * dt}, past {bessel.LARGEST}; the largest mass for "
                                 f"this step is {bessel.LARGEST}/dt = {bessel.LARGEST / dt}")
        # For either engine: the initial field and the t = 0 sample may take the spectral route.
        _check_phases(float(t[-1]), self.grid, self.mass)
        object.__setattr__(self, "field0", build_initial(self.initial, self.grid))


def _check_phases(t: float, grid: Grid1D, m: float) -> None:
    """Reject a time t whose largest phase omega_max * t overflows float64,
    naming the largest time that does not, and a grid and mass whose
    omega_max = sqrt(k_max^2 + m^2) overflows at any time."""
    k_max = float(np.abs(grid.k).max())
    omega_max = math.sqrt(k_max * k_max + m * m)  # Python floats: overflow gives inf, no warning
    if not omega_max < math.inf:
        raise ValueError(f"omega_max = sqrt(k_max^2 + m^2) overflows float64 (k_max = {k_max:.6g}, "
                         f"m = {m}); the spectral route, which either engine may take (initial "
                         f"states, t = 0), cannot run on this grid at this mass")
    if omega_max * t < math.inf:
        return
    largest = sys.float_info.max / omega_max
    while not omega_max * largest < math.inf:
        largest = math.nextafter(largest, 0.0)
    raise ValueError(f"t = {t} is too long for the spectral engine: its phase omega*t overflows "
                     f"float64 (omega_max = {omega_max:.6g}); the largest time is {largest}")


@dataclass(frozen=True)
class ScenarioResult:
    trace: density.EntropyTrace


@dataclass(frozen=True)
class FigureDataset:
    """Columns of (abscissa, named series), and the datasets of its insets."""

    figure_id: str
    abscissa_label: str
    abscissa: np.ndarray = dc_field(repr=False)
    series: dict[str, np.ndarray] = dc_field(repr=False, default_factory=dict)
    insets: tuple["FigureDataset", ...] = ()

    def __post_init__(self):
        n = len(self.abscissa)
        for label, col in self.series.items():
            if len(col) != n:
                raise ValueError(f"series {label!r} length {len(col)} != abscissa {n}")


def evolved(cfg: ScenarioConfig, t: float) -> SpinorField:
    """The request's field at time t by its engine (t = 0 always by the spectral one)."""
    if cfg.engine == "spectral" or t == 0.0:
        return spectral.evolve(cfg.field0, cfg.mass, t)
    return kernel_engine.evolve_to(cfg.field0, cfg.mass, t)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Evolve from t = 0 to each sample time; collect entropy and entries."""
    times = np.asarray(cfg.times, dtype=np.float64) + 0.0  # -0.0 becomes 0.0; no other float moves
    entropy = np.empty(len(times))
    rho00 = np.empty(len(times))
    rho11 = np.empty(len(times))
    rho01 = np.empty(len(times), dtype=np.complex128)
    for i, t in enumerate(times):
        rho = density.reduce(evolved(cfg, float(t)))
        entropy[i] = density.entropy_bits(rho)
        rho00[i] = rho.entries[0, 0].real
        rho11[i] = rho.entries[1, 1].real
        rho01[i] = rho.entries[0, 1]
    trace = density.EntropyTrace(times=times, entropy=entropy, rho00=rho00, rho01=rho01, rho11=rho11)
    return ScenarioResult(trace=trace)


def uniform_times(t_start: float, t_end: float, step: float) -> tuple[float, ...]:
    """Samples t_start + i*step up to t_end; step must divide the range into
    fewer than 2**53 steps (from there every float is whole).  A non-finite
    end gives a non-finite step count, which is rejected with it."""
    if not 0 < step < np.inf:
        raise ValueError(f"t_step must be positive and finite, got {step}")
    if t_end < t_start:
        raise ValueError(f"t_end = {t_end} is before t_start = {t_start}")
    ratio = (t_end - t_start) / step
    if not ratio < 2.0**53:
        raise ValueError(f"t_step = {step} splits [{t_start}, {t_end}] into a step count "
                         f"of {ratio:.6g}, not a finite count below 2**53")
    n = int(round(ratio))
    if abs(ratio - n) > 1e-9:
        raise ValueError(
            f"t_step = {step} does not divide [{t_start}, {t_end}] "
            f"into whole steps ({ratio:.6g} steps)"
        )
    return tuple((t_start + step * np.arange(n + 1)).tolist())


def entropy_curve(initial: InitialSpec, t_end: float) -> density.EntropyTrace:
    """Entropy trace on the figure grid, sampled every DEFAULT_TRACE_STEP from 0 to t_end."""
    times = uniform_times(0.0, t_end, DEFAULT_TRACE_STEP)
    return run_scenario(ScenarioConfig(mass=initial.mass, initial=initial, times=times)).trace


def distribution_dataset(figure_id: str, cfg: ScenarioConfig) -> FigureDataset:
    """Chirality position distributions of the request's field at its one time."""
    if len(cfg.times) != 1:
        raise ValueError(f"distributions take one time, got {len(cfg.times)}")
    (t,) = cfg.times
    field = evolved(cfg, t) if t > 0 else cfg.field0
    pm, pp = chirality_distributions(field)
    return FigureDataset(
        figure_id=figure_id, abscissa_label="x", abscissa=cfg.grid.x,
        series={"prob_minus": pm, "prob_plus": pp},
    )


def _snapshot(figure_id: str, initial: InitialSpec, t: float) -> FigureDataset:
    return distribution_dataset(figure_id, ScenarioConfig(mass=initial.mass, initial=initial, times=(t,)))


def _entropy_figure(figure_id: str, curves: dict[str, InitialSpec], t_end: float,
                    insets: tuple[FigureDataset, ...] = ()) -> FigureDataset:
    """Entropy vs time on [0, t_end], one series per labelled initial state."""
    traces = {label: entropy_curve(spec, t_end) for label, spec in curves.items()}
    return FigureDataset(
        figure_id=figure_id, abscissa_label="t", abscissa=next(iter(traces.values())).times,
        series={label: trace.entropy for label, trace in traces.items()}, insets=insets,
    )


_EQUAL = {m: InitialSpec(kind="gaussian_packet", mass=m) for m in (0.0, 1.0, 2.0)}
_CHIRAL = InitialSpec(kind="gaussian_packet", mass=1.0, spinor=(0.0, 1.0))


def _fig5() -> FigureDataset:
    return _entropy_figure("fig5", {"S_bits": _CHIRAL}, 1.0, (_snapshot("fig6", _CHIRAL, 0.5),))


# The paper's figures, all on the figure grid, from a unit-width Gaussian at the
# origin with equal chirality weights (1, 1) or the chiral spinor (0, 1):
# fig1  entropy on [0, 1] of the equal-weight packet, one curve per mass 0, 1, 2;
# fig2, fig3  its chirality distributions at t = 1 for m = 0 and m = 1;
# fig4  the m = 1 entropy on [0, 2], with distribution insets at t = 0.5, 1, 1.5, 2;
# fig5  the chiral packet's m = 1 entropy on [0, 1], with fig6 as its inset;
# fig6  the chiral packet's distributions at t = 0.5 (it runs all of fig5).
FIGURES = {
    "fig1": lambda: _entropy_figure("fig1", {f"m={m:g}": spec for m, spec in _EQUAL.items()}, 1.0),
    "fig2": lambda: _snapshot("fig2", _EQUAL[0.0], 1.0),
    "fig3": lambda: _snapshot("fig3", _EQUAL[1.0], 1.0),
    "fig4": lambda: _entropy_figure(
        "fig4", {"S_bits": _EQUAL[1.0]}, 2.0,
        tuple(_snapshot(f"fig4_inset_t{t:g}", _EQUAL[1.0], t) for t in (0.5, 1.0, 1.5, 2.0))),
    "fig5": _fig5,
    "fig6": lambda: _fig5().insets[0],
}
