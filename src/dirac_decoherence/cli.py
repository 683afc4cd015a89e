"""Command-line interface: scenario dispatch, CSV and SVG emission.

Subcommands:

* evolve        evolve one initial condition to --t-end, write distributions
* entropy-curve entropy trace over a time range
* distributions chirality position distributions at --t-end
* figure        regenerate a figure dataset by id (fig1..fig6) and its insets
* validate      fast self-checks (closed-form law, stationarity, engine cross-check)

Options may come from a `key = value` config file (# comments allowed) via
--config; explicit flags override file values.  --dump-config prints the
effective configuration in the same format.  Exit codes: 0 success, 1 parse or
validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import density, kernel_engine, spectral
from .experiments import (
    FIGURES,
    DEFAULT_GRID,
    DEFAULT_TRACE_STEP,
    FigureDataset,
    InitialSpec,
    ScenarioConfig,
    evolved,
    run_scenario,
    uniform_times,
)
from .grid import Grid1D, build_initial, chirality_distributions

SUBCOMMANDS = ("evolve", "entropy-curve", "distributions", "figure", "validate")
ENTROPY_HEADER = ["t", "S_bits", "rho00", "rho01_re", "rho01_im", "rho11"]


@dataclass(frozen=True)
class CliConfig:
    subcommand: str = "entropy-curve"
    mass: float = 1.0
    kind: str = "gaussian_packet"
    spinor_a: complex = 1.0 + 0.0j
    spinor_b: complex = 1.0 + 0.0j
    center: float = 0.0
    width: float = 1.0
    mode_index: int = 0
    energy_sign: int = 1
    grid_l: float = 20.0
    grid_n: int = 1024
    t_start: float = 0.0
    t_end: float = 2.0
    t_step: float = DEFAULT_TRACE_STEP
    times: tuple[float, ...] | None = None
    engine: str = "spectral"
    figure_id: str = "fig1"
    output: str = "out.csv"
    format: str = "csv"


_COMPLEX_KEYS = {"spinor_a", "spinor_b"}
_INT_KEYS = {"mode_index", "energy_sign", "grid_n"}
_FLOAT_KEYS = {"mass", "center", "width", "grid_l", "t_start", "t_end", "t_step"}
_STR_KEYS = {"subcommand", "kind", "engine", "figure_id", "output", "format"}


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im', got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _format_complex(z: complex) -> str:
    return f"{z.real:g},{z.imag:g}"


def _parse_times(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def read_config_file(path: str) -> dict:
    """Line-oriented `key = value` pairs; # starts a comment; unknown keys rejected."""
    known = {f.name for f in fields(CliConfig)}
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if key in _COMPLEX_KEYS:
                    out[key] = _parse_complex(value)
                elif key in _INT_KEYS:
                    out[key] = int(value)
                elif key in _FLOAT_KEYS:
                    out[key] = float(value)
                elif key == "times":
                    out[key] = _parse_times(value)
                else:
                    out[key] = value
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


def dump_config(cfg: CliConfig) -> str:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name in _COMPLEX_KEYS:
            value = _format_complex(value)
        elif f.name == "times":
            value = ",".join(f"{t:g}" for t in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-decoherence",
        description="Chirality decoherence of a 1+1D Dirac particle.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    defaults = CliConfig()
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective configuration and exit")
        p.add_argument("--mass", type=float, help=f"particle mass (default {defaults.mass})")
        p.add_argument("--kind", choices=("gaussian_packet", "plane_wave", "positive_energy_packet"),
                       help="initial condition kind")
        p.add_argument("--spinor-a", type=_parse_complex, metavar="RE,IM",
                       help="chirality -1 spinor component")
        p.add_argument("--spinor-b", type=_parse_complex, metavar="RE,IM",
                       help="chirality +1 spinor component")
        p.add_argument("--center", type=float, help="packet center")
        p.add_argument("--width", type=float, help="packet width sigma")
        p.add_argument("--mode-index", type=int, help="plane-wave momentum index")
        p.add_argument("--energy-sign", type=int, choices=(-1, 1), help="plane-wave energy sign")
        p.add_argument("--grid-l", type=float, help="half extent L of the periodic domain")
        p.add_argument("--grid-n", type=int, help="number of grid points (even)")
        p.add_argument("--t-start", type=float, help="first sample time")
        p.add_argument("--t-end", type=float, help="last sample time")
        p.add_argument("--t-step", type=float, help="sample spacing")
        p.add_argument("--times", type=_parse_times, metavar="T1,T2,...",
                       help="explicit sample times (overrides the range)")
        p.add_argument("--engine", choices=("spectral", "kernel"), help="evolution engine")
        if name == "figure":
            p.add_argument("--id", dest="figure_id", choices=sorted(FIGURES),
                           help="figure dataset to generate")
        p.add_argument("--output", help="output file path")
        p.add_argument("--format", choices=("csv", "svg"), help="output format")
        if name == "validate":
            p.add_argument("--flip-mass-sign", action="store_true",
                           help="test hook: flip the mass coupling sign in the spectral basis")
    return parser


def parse_config(argv: list[str]) -> tuple[CliConfig, argparse.Namespace]:
    """Merge defaults, config file and flags (in increasing precedence)."""
    ns = _build_parser().parse_args(argv)
    cfg = CliConfig(subcommand=ns.subcommand)
    if getattr(ns, "config", None):
        cfg = replace(cfg, **read_config_file(ns.config))
        cfg = replace(cfg, subcommand=ns.subcommand)
    overrides = {}
    for f in fields(CliConfig):
        if f.name == "subcommand":
            continue
        value = getattr(ns, f.name, None)
        if value is not None:
            overrides[f.name] = value
    cfg = replace(cfg, **overrides)
    _validate_config(cfg)
    return cfg, ns


def _validate_config(cfg: CliConfig) -> None:
    if cfg.grid_n < 2 or cfg.grid_n % 2 != 0:
        raise ValueError(
            f"grid_n = {cfg.grid_n} rejected: the momentum pairing of the "
            f"transform requires an even point count >= 2"
        )
    if cfg.t_step <= 0:
        raise ValueError(f"t_step must be positive, got {cfg.t_step}")
    if cfg.t_end < cfg.t_start:
        raise ValueError(f"t_end = {cfg.t_end} precedes t_start = {cfg.t_start}")
    if cfg.times is not None and len(cfg.times) > 0:
        t = np.asarray(cfg.times)
        if t[0] < 0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be nonnegative and strictly increasing")
    fig = DEFAULT_GRID
    if cfg.subcommand == "figure" and (cfg.grid_l, cfg.grid_n) != (fig.half_extent, fig.n_points):
        raise ValueError(
            f"figure datasets are defined on the grid L = {fig.half_extent:g}, N = {fig.n_points}; "
            f"got grid_l = {cfg.grid_l:g}, grid_n = {cfg.grid_n}"
        )
    if cfg.subcommand == "entropy-curve" and not cfg.times:
        # Raises if t_step does not divide the range entropy-curve samples.
        uniform_times(cfg.t_start, cfg.t_end, cfg.t_step)


def _initial_spec(cfg: CliConfig) -> InitialSpec:
    return InitialSpec(
        kind=cfg.kind, mass=cfg.mass, center=cfg.center, width=cfg.width,
        spinor=(cfg.spinor_a, cfg.spinor_b), mode_index=cfg.mode_index,
        energy_sign=cfg.energy_sign,
    )


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_rows(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_csv(dataset, path: str) -> None:
    """Serialize an EntropyTrace or FigureDataset with 12 significant digits.

    The abscissa column keeps 12 fixed decimals so rows sort and diff stably.
    """
    if isinstance(dataset, density.EntropyTrace):
        rows = (
            [f"{t:.12f}", _fmt(s), _fmt(a), _fmt(c.real), _fmt(c.imag), _fmt(b)]
            for t, s, a, c, b in zip(
                dataset.times, dataset.entropy, dataset.rho00, dataset.rho01, dataset.rho11
            )
        )
        _write_rows(path, ENTROPY_HEADER, rows)
        return
    header = [dataset.abscissa_label] + list(dataset.series)
    columns = list(dataset.series.values())
    rows = (
        [f"{x:.12f}"] + [_fmt(col[i]) for col in columns]
        for i, x in enumerate(dataset.abscissa)
    )
    _write_rows(path, header, rows)


def _svg_path(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{'M' if i == 0 else 'L'}{x:.3f},{y:.3f}" for i, (x, y) in enumerate(points))


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def write_svg_plot(dataset, path: str, title: str | None = None) -> None:
    """Standalone SVG 1.1 line plot: axes, ticks, one polyline per series, legend."""
    if isinstance(dataset, density.EntropyTrace):
        dataset = FigureDataset(
            figure_id="trace", abscissa_label="t", abscissa=dataset.times,
            series={"S_bits": dataset.entropy},
        )
    if len(dataset.abscissa) == 0:
        raise ValueError("cannot plot an empty dataset")
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 60.0, 20.0, 30.0, 45.0
    xs = np.asarray(dataset.abscissa, dtype=np.float64)
    ys = [np.asarray(col, dtype=np.float64) for col in dataset.series.values()]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo = min(float(c.min()) for c in ys)
    y_hi = max(float(c.max()) for c in ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<rect x="{ml:g}" y="{mt:g}" width="{width - ml - mr:g}" '
        f'height="{height - mt - mb:g}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for tick in np.linspace(x_lo, x_hi, 5):
        x = px(tick)
        parts.append(f'<line x1="{x:.3f}" y1="{height - mb:.3f}" x2="{x:.3f}" '
                     f'y2="{height - mb + 5:.3f}" stroke="black"/>')
        parts.append(f'<text x="{x:.3f}" y="{height - mb + 18:.3f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tick:.3g}</text>')
    for tick in np.linspace(y_lo, y_hi, 5):
        y = py(tick)
        parts.append(f'<line x1="{ml - 5:.3f}" y1="{y:.3f}" x2="{ml:.3f}" '
                     f'y2="{y:.3f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8:.3f}" y="{y + 4:.3f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tick:.3g}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 8:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                 f'{dataset.abscissa_label}</text>')
    for idx, (label, col) in enumerate(dataset.series.items()):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = [(px(x), py(y)) for x, y in zip(xs, col)]
        if len(pts) == 1:
            parts.append(f'<circle cx="{pts[0][0]:.3f}" cy="{pts[0][1]:.3f}" r="3" '
                         f'fill="{color}"/>')
        else:
            parts.append(f'<path d="{_svg_path(pts)}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        ly = mt + 16 + 16 * idx
        parts.append(f'<line x1="{width - mr - 110:.1f}" y1="{ly:.1f}" '
                     f'x2="{width - mr - 85:.1f}" y2="{ly:.1f}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mr - 80:.1f}" y="{ly + 4:.1f}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _binary_entropy(p: float) -> float:
    s = 0.0
    for q in (p, 1.0 - p):
        if q > 0:
            s -= q * np.log2(q)
    return s


def validate(flip_mass_sign: bool = False, stream=None) -> int:
    """Fast release checks; prints one line per check, returns 0 iff all pass."""
    from .grid import make_gaussian_packet, make_plane_wave

    if stream is None:
        stream = sys.stdout

    coupling = -spectral.MASS_COUPLING_SIGN if flip_mass_sign else spectral.MASS_COUPLING_SIGN
    grid = Grid1D(20.0, 1024)
    checks: list[tuple[str, float, float]] = []

    packet = make_gaussian_packet(grid, 0.0, 1.0, (1.0, 1.0))
    dev = 0.0
    for t in np.arange(0.0, 3.01, 0.25):
        rho = density.reduce(spectral.evolve(packet, 0.0, float(t)))
        expected_off = np.exp(-t * t) / 2.0
        dev = max(dev, abs(rho.entries[0, 1] - expected_off))
        dev = max(dev, abs(density.entropy_bits(rho) - _binary_entropy(0.5 + expected_off)))
    checks.append(("massless-closed-form", dev, 1e-6))

    dev = 0.0
    for mode_index, eps, m in ((0, 1, 1.0), (7, -1, 0.5), (-12, 1, 2.0)):
        wave = make_plane_wave(grid, mode_index, eps, m)
        rho0 = density.reduce(wave).entries
        for t in (0.7, 2.3, 5.0):
            rho_t = density.reduce(spectral.evolve(wave, m, t)).entries
            dev = max(dev, float(np.abs(rho_t - rho0).max()))
    checks.append(("stationary-state", dev, 1e-9))

    dt = 3 * grid.dx
    stepped = kernel_engine.evolve_step(packet, 1.0, dt)
    exact = spectral.evolve(packet, 1.0, dt, coupling_sign=coupling)
    rel = float(
        np.linalg.norm(stepped.values - exact.values) / np.linalg.norm(exact.values)
    )
    checks.append(("engine-cross-check", rel, 1e-3))

    status = 0
    for name, deviation, tolerance in checks:
        ok = deviation < tolerance
        status |= 0 if ok else 1
        print(
            f"{name}: deviation={deviation:.3e} tolerance={tolerance:.0e} "
            f"{'PASS' if ok else 'FAIL'}",
            file=stream,
        )
    return status


def _write(cfg: CliConfig, dataset, path: str, title: str | None = None) -> None:
    if cfg.format == "svg":
        write_svg_plot(dataset, path, title=title)
    else:
        write_csv(dataset, path)


def _run(cfg: CliConfig, ns: argparse.Namespace) -> int:
    if cfg.subcommand == "validate":
        return validate(flip_mass_sign=getattr(ns, "flip_mass_sign", False))

    grid = Grid1D(cfg.grid_l, cfg.grid_n)

    if cfg.subcommand == "figure":
        dataset = FIGURES[cfg.figure_id]()
        _write(cfg, dataset, cfg.output, title=dataset.figure_id)
        directory = os.path.dirname(cfg.output)
        for inset in dataset.insets:
            path = os.path.join(directory, f"{inset.figure_id}.{cfg.format}")
            _write(cfg, inset, path, title=inset.figure_id)
        return 0

    initial = _initial_spec(cfg)

    if cfg.subcommand in ("evolve", "distributions"):
        field = build_initial(initial, grid)
        t = cfg.times[-1] if cfg.times else cfg.t_end
        if t > 0:
            field = evolved(field, cfg.mass, t, cfg.engine)
        pm, pp = chirality_distributions(field)
        dataset = FigureDataset(
            figure_id=cfg.subcommand, abscissa_label="x", abscissa=grid.x,
            series={"prob_minus": pm, "prob_plus": pp}, metadata={"t": t},
        )
        _write(cfg, dataset, cfg.output)
        return 0

    # entropy-curve
    scenario = ScenarioConfig(
        mass=cfg.mass, initial=initial, grid=grid,
        times=cfg.times or uniform_times(cfg.t_start, cfg.t_end, cfg.t_step), engine=cfg.engine,
    )
    _write(cfg, run_scenario(scenario).trace, cfg.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg, ns = parse_config(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(ns, "dump_config", False):
        sys.stdout.write(dump_config(cfg))
        return 0
    try:
        return _run(cfg, ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
