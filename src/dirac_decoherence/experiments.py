"""Scenario runner and figure datasets.

Each figure of the reference results is regenerated as a FigureDataset of
plain numeric columns: entropy-versus-time curves for masses {0, 1, 2},
chirality position distributions at fixed times, and the chiral initial
condition.  Evolution always restarts from t = 0 with the spectral engine, so
no stepping error accumulates along a trace; the kernel engine is available
for cross-validation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import density, kernel_engine, spectral
from .grid import Grid1D, InitialSpec, SpinorField, build_initial, chirality_distributions

DEFAULT_GRID = Grid1D(20.0, 1024)
DEFAULT_TRACE_STEP = 0.01


@dataclass(frozen=True)
class ScenarioConfig:
    mass: float
    initial: InitialSpec
    grid: Grid1D = DEFAULT_GRID
    times: tuple[float, ...] = ()
    engine: str = "spectral"

    def __post_init__(self):
        if self.engine not in ("spectral", "kernel"):
            raise ValueError(f"engine must be 'spectral' or 'kernel', got {self.engine!r}")
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
            for ti in t:  # each time must be a whole number of cells, checked before any step
                kernel_engine._step_count(float(ti), self.grid.dx)


@dataclass(frozen=True)
class ScenarioResult:
    trace: density.EntropyTrace


@dataclass(frozen=True)
class FigureDataset:
    """Columns of (abscissa, named series) plus provenance metadata."""

    figure_id: str
    abscissa_label: str
    abscissa: np.ndarray = dc_field(repr=False)
    series: dict[str, np.ndarray] = dc_field(repr=False, default_factory=dict)
    metadata: dict = dc_field(default_factory=dict)
    insets: tuple["FigureDataset", ...] = ()

    def __post_init__(self):
        n = len(self.abscissa)
        for label, col in self.series.items():
            if len(col) != n:
                raise ValueError(f"series {label!r} length {len(col)} != abscissa {n}")


def evolved(field: SpinorField, m: float, t: float, engine: str) -> SpinorField:
    """The field at time t by the chosen engine (t = 0 always by the spectral one)."""
    if engine == "spectral" or t == 0.0:
        return spectral.evolve(field, m, t)
    return kernel_engine.evolve_to(field, m, t)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Evolve from t = 0 to each sample time; collect entropy and entries."""
    field0 = build_initial(cfg.initial, cfg.grid)
    times = np.asarray(cfg.times, dtype=np.float64)
    entropy = np.empty(len(times))
    rho00 = np.empty(len(times))
    rho11 = np.empty(len(times))
    rho01 = np.empty(len(times), dtype=np.complex128)
    for i, t in enumerate(times):
        ft = evolved(field0, cfg.mass, float(t), cfg.engine)
        rho = density.reduce(ft)
        entropy[i] = density.entropy_bits(rho)
        rho00[i] = rho.entries[0, 0].real
        rho11[i] = rho.entries[1, 1].real
        rho01[i] = rho.entries[0, 1]
    trace = density.EntropyTrace(times=times, entropy=entropy, rho00=rho00, rho01=rho01, rho11=rho11)
    return ScenarioResult(trace=trace)


def _equal_superposition(mass: float) -> InitialSpec:
    return InitialSpec(kind="gaussian_packet", mass=mass, center=0.0, width=1.0, spinor=(1.0, 1.0))


def uniform_times(t_start: float, t_end: float, step: float) -> tuple[float, ...]:
    """Samples t_start + i*step up to t_end; step must divide the range."""
    if not np.all(np.isfinite((t_start, t_end, step))):
        raise ValueError(f"t_start, t_end and t_step must be finite, got {t_start}, {t_end}, {step}")
    if step <= 0:
        raise ValueError(f"t_step must be positive, got {step}")
    ratio = (t_end - t_start) / step
    n = int(round(ratio))
    if abs(ratio - n) > 1e-9 or n < 0:
        raise ValueError(
            f"t_step = {step} does not divide [{t_start}, {t_end}] "
            f"into whole steps ({ratio:.6g} steps)"
        )
    return tuple(t_start + i * step for i in range(n + 1))


def entropy_curve(mass: float, initial: InitialSpec, t_end: float,
                  step: float = DEFAULT_TRACE_STEP, grid: Grid1D = DEFAULT_GRID,
                  engine: str = "spectral") -> density.EntropyTrace:
    cfg = ScenarioConfig(mass=mass, initial=initial, grid=grid,
                         times=uniform_times(0.0, t_end, step), engine=engine)
    return run_scenario(cfg).trace


def figure1(masses: tuple[float, ...] = (0.0, 1.0, 2.0)) -> FigureDataset:
    """Entropy vs time on [0, 1] for the equal-chirality Gaussian, one curve per mass."""
    times = uniform_times(0.0, 1.0, DEFAULT_TRACE_STEP)
    series = {}
    for m in masses:
        trace = entropy_curve(m, _equal_superposition(m), 1.0)
        series[f"m={m:g}"] = trace.entropy
    return FigureDataset(
        figure_id="fig1", abscissa_label="t", abscissa=np.asarray(times),
        series=series, metadata={"masses": tuple(masses)},
    )


def distribution_dataset(figure_id: str, initial: InitialSpec, t: float,
                         grid: Grid1D = DEFAULT_GRID, engine: str = "spectral") -> FigureDataset:
    """Chirality position distributions of the initial state evolved (at its mass) to t."""
    field = build_initial(initial, grid)
    if t > 0:
        field = evolved(field, initial.mass, t, engine)
    pm, pp = chirality_distributions(field)
    return FigureDataset(
        figure_id=figure_id, abscissa_label="x", abscissa=grid.x,
        series={"prob_minus": pm, "prob_plus": pp},
        metadata={"mass": initial.mass, "t": t},
    )


def figure2_3(mass: float) -> FigureDataset:
    """Chirality position distributions at t = 1 (fig2: m = 0, fig3: m = 1)."""
    if mass not in (0.0, 1.0):
        raise ValueError(f"figure2_3 is defined for mass 0 or 1, got {mass}")
    fid = "fig2" if mass == 0.0 else "fig3"
    return distribution_dataset(fid, _equal_superposition(mass), 1.0)


def figure4() -> FigureDataset:
    """m = 1 entropy on [0, 2] with distribution insets at half-integer times."""
    trace = entropy_curve(1.0, _equal_superposition(1.0), 2.0)
    insets = tuple(
        distribution_dataset(f"fig4_inset_t{t:g}", _equal_superposition(1.0), t)
        for t in (0.5, 1.0, 1.5, 2.0)
    )
    return FigureDataset(
        figure_id="fig4", abscissa_label="t", abscissa=trace.times,
        series={"S_bits": trace.entropy}, metadata={"mass": 1.0}, insets=insets,
    )


def figure5_6() -> FigureDataset:
    """Chiral (0, 1) initial condition, m = 1: entropy on [0, 1] plus t = 0.5 distributions."""
    chiral = InitialSpec(kind="gaussian_packet", mass=1.0, spinor=(0.0, 1.0))
    trace = entropy_curve(1.0, chiral, 1.0)
    inset = distribution_dataset("fig6", chiral, 0.5)
    return FigureDataset(
        figure_id="fig5", abscissa_label="t", abscissa=trace.times,
        series={"S_bits": trace.entropy}, metadata={"mass": 1.0, "spinor": (0, 1)},
        insets=(inset,),
    )


FIGURES = {
    "fig1": figure1,
    "fig2": lambda: figure2_3(0.0),
    "fig3": lambda: figure2_3(1.0),
    "fig4": figure4,
    "fig5": figure5_6,
    "fig6": lambda: figure5_6().insets[0],
}


def local_max_locator(trace: density.EntropyTrace) -> tuple[float, float] | None:
    """First interior sample strictly above both neighbors, or None."""
    s = trace.entropy
    for i in range(1, len(s) - 1):
        if s[i] > s[i - 1] and s[i] > s[i + 1]:
            return float(trace.times[i]), float(s[i])
    return None
