"""The benchmark's workloads: inputs drawn from the seed, requests, and checks.

Each workload offers the same four steps:

* ``cold()``     one single-sample request on the workload's grid and mass; in a
                 fresh process it is the set-up cost a user pays before a result;
* ``prepare()``  computes the reference outputs (untimed);
* ``request()``  one timed request;
* ``check(out)`` True iff the request's output matches the reference.

The package receives only the generated inputs; the seed never reaches it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from dirac_decoherence import cli, density, experiments, spectral
from dirac_decoherence.grid import Grid1D, InitialSpec, build_initial

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / "_work"
HALF_EXTENT = 20.0

# Tier-1 criterion 12: the position and momentum tracing routes agree to 1e-10.
ROUTE_TOL = 1e-10


def _kernel_tol(n_points: int) -> float:
    """Tier-1 criterion 9: the kernel engine agrees with the spectral engine to
    1e-3 at N = 1024 and to 1e-4 at N = 4096 (and finer)."""
    return 1e-3 if n_points < 4096 else 1e-4


def _packet(seed: int) -> tuple[float, InitialSpec]:
    """Equal-weight Gaussian: mass in [0.5, 2], centre in [-2, 2], width in
    [0.8, 1.5] and a relative spinor phase.  A nonzero phase matters to the
    checks: for spinor (1, 1) the reduced matrix does not depend on the sign of
    the mass coupling, so the flipped-coupling test hook would not bite."""
    rng = np.random.default_rng(seed)
    mass = float(rng.uniform(0.5, 2.0))
    center = float(rng.uniform(-2.0, 2.0))
    width = float(rng.uniform(0.8, 1.5))
    spinor = (1.0 + 0.0j, complex(np.exp(1j * rng.uniform(0.0, 2 * np.pi))))
    return mass, InitialSpec(kind="gaussian_packet", mass=mass, center=center, width=width, spinor=spinor)


class Scenario:
    """``experiments.run_scenario`` on one input; checked against the spectral
    engine's momentum-space route (``density.reduce_from_modes``)."""

    def __init__(self, cfg: experiments.ScenarioConfig, tol: float, flip_coupling: bool):
        self.cfg = cfg
        self.tol = tol
        self.samples = len(cfg.times)
        # Test hook: a reference built with the flipped mass coupling must fail every check.
        self.coupling = -spectral.MASS_COUPLING_SIGN if flip_coupling else spectral.MASS_COUPLING_SIGN
        self.expected = None

    def cold(self):
        return experiments.run_scenario(replace(self.cfg, times=(self.cfg.grid.dx,)))

    def prepare(self) -> None:
        field0 = build_initial(self.cfg.initial, self.cfg.grid)
        modes = spectral.decompose(field0, self.cfg.mass, self.coupling)
        self.expected = np.array([density.reduce_from_modes(modes, float(t)).entries for t in self.cfg.times])

    def request(self) -> density.EntropyTrace:
        return experiments.run_scenario(self.cfg).trace

    def check(self, trace: density.EntropyTrace) -> bool:
        ref = self.expected
        deviation = max(
            np.abs(trace.rho00 - ref[:, 0, 0].real).max(),
            np.abs(trace.rho01 - ref[:, 0, 1]).max(),
            np.abs(trace.rho11 - ref[:, 1, 1].real).max(),
        )
        return len(trace.times) == self.samples and bool(deviation < self.tol)

    def close(self) -> None:
        pass


def trace_n16k(seed: int, quick: bool, perturb: bool) -> Scenario:
    n_points, n_times = (1024, 11) if quick else (16384, 1001)
    mass, spec = _packet(seed)
    cfg = experiments.ScenarioConfig(
        mass=mass, initial=spec, grid=Grid1D(HALF_EXTENT, n_points),
        times=tuple(np.linspace(0.0, 2.0, n_times)),
    )
    return Scenario(cfg, ROUTE_TOL, perturb)


def kernel_n64k(seed: int, quick: bool, perturb: bool) -> Scenario:
    grid = Grid1D(HALF_EXTENT, 4096 if quick else 65536)
    mass, spec = _packet(seed)
    times = tuple(round(t / grid.dx) * grid.dx for t in (0.25, 0.5))
    cfg = experiments.ScenarioConfig(mass=mass, initial=spec, grid=grid, times=times, engine="kernel")
    return Scenario(cfg, _kernel_tol(grid.n_points), perturb)


def kernel_desk(seed: int, quick: bool, perturb: bool) -> Scenario:
    grid = Grid1D(HALF_EXTENT, 1024)
    mass, spec = _packet(seed)
    times = tuple(i * grid.dx for i in range(1, (5 if quick else 51) + 1))
    cfg = experiments.ScenarioConfig(mass=mass, initial=spec, grid=grid, times=times, engine="kernel")
    return Scenario(cfg, _kernel_tol(grid.n_points), perturb)


# Samples each `figure` command delivers: entropy rows times series, plus one per
# distribution snapshot.  fig5 also writes its t = 0.5 inset (fig6.csv), and
# fig6 writes that same snapshot again.
FIGURE_SAMPLES = {"fig1": 3 * 101, "fig2": 1, "fig3": 1, "fig4": 201 + 4, "fig5": 101 + 1, "fig6": 1}
DIGESTS_FILE = HERE / "figure_digests.json"


class Figures:
    """fig1..fig6 through ``cli.main(["figure", ...])``, in a seeded order; the
    ten CSVs written must be byte-identical to the recorded digests."""

    def __init__(self, seed: int, perturb: bool):
        self.order = [str(f) for f in np.random.default_rng(seed).permutation(sorted(FIGURE_SAMPLES))]
        self.samples = sum(FIGURE_SAMPLES.values())
        self.perturb = perturb
        self.expected = None
        WORK_DIR.mkdir(exist_ok=True)
        self.out_dir = Path(tempfile.mkdtemp(prefix="figures-", dir=WORK_DIR))

    def _figure(self, figure_id: str) -> int:
        return cli.main(["figure", "--id", figure_id, "--output", str(self.out_dir / f"{figure_id}.csv")])

    def cold(self):
        return self._figure("fig2")

    def prepare(self) -> None:
        expected = json.loads(DIGESTS_FILE.read_text())
        if self.perturb:  # test hook: a corrupted digest table must fail every check
            expected = {name: digest[::-1] for name, digest in expected.items()}
        self.expected = expected

    def request(self) -> list[int]:
        return [self._figure(f) for f in self.order]

    def check(self, status: list[int]) -> bool:
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in self.out_dir.glob("*.csv")}
        for p in self.out_dir.glob("*.csv"):
            p.unlink()
        return status == [0] * len(self.order) and written == self.expected

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def make(name: str, seed: int, quick: bool = False, perturb: bool = False):
    if name == "figures_desk":
        return Figures(seed, perturb)
    return {"trace_n16k": trace_n16k, "kernel_n64k": kernel_n64k, "kernel_desk": kernel_desk}[name](
        seed, quick, perturb
    )
