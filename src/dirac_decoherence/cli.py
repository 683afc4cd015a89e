"""Command-line interface: scenario dispatch, CSV and SVG emission.

Subcommands, each writing one dataset to --output (an SVG plot if the path
ends in .svg, CSV otherwise):

* entropy-curve entropy trace over a time range or at --times (one or more)
* distributions chirality position distributions at --t-end
* figure        regenerate a figure dataset by id (fig1..fig6) and its insets,
                on the figure grid L = 20, N = 1024; each inset is written
                beside the output as <inset id> plus the output's extension
* validate      fast self-checks (closed-form law, stationarity, engine cross-check)

Each option is one field of `CliConfig`, which gives its flag, config-file
key, help and value check.  `SUBCOMMAND_OPTIONS` names the options each
subcommand uses; it rejects any other flag or key.  Options may come from a
`key = value` config file (# comments allowed) via --config; explicit flags
override file values.  --dump-config prints the effective configuration in
the same format.  Exit codes: 0 success; 1 parse or validation failure, which
includes any value the grid, initial-state or sample-time constructors reject
(a time whose phase omega * t overflows float64; for the kernel engine, any
walk kernel_engine.walk refuses: a time that is not a whole number of cells,
a first step past L/4, or a mass whose longest step needs a Bessel argument
m * dt past 200, from 1707 on the figure grid), before any evolution; 2 a failure after the run started, such as an output that cannot
be written or that is also the path of one of the figure's insets, or a
kernel walk whose norm is not finite (mass 1000 to t = 11.71875).  A
request the host has no memory for (say, a sample grid of 1e12 times) prints
one error line like any other and exits 1 or 2 by the same rule.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .density import binary_entropy
from .experiments import (
    FIGURES,
    DEFAULT_GRID,
    DEFAULT_TRACE_STEP,
    ENGINES,
    FigureDataset,
    InitialSpec,
    ScenarioConfig,
    distribution_dataset,
    evolved,
    run_scenario,
    uniform_times,
)
from .grid import KIND_FIELDS, Grid1D

ENTROPY_HEADER = ["t", "S_bits", "rho00", "rho01_re", "rho01_im", "rho11"]
# The CSV's first column, as write_csv prints it and _check_rows_differ checks it.
_ABSCISSA_FORMAT = "%.12f"


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im', got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _parse_times(text: str) -> tuple[float, ...]:
    times = tuple(float(p) for p in text.split(",") if p.strip())
    if not times:
        raise ValueError("expected at least one time")
    return times


def _format(value) -> str:
    """Text that parses back to exactly `value`: floats by repr, complex as 're,im'."""
    if isinstance(value, complex):
        value = (value.real, value.imag)
    return ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)


def _option(default, help: str, parse=float, choices: tuple = (), flag: str | None = None,
            metavar: str | None = None):
    """A field that is an option: flag `--key-name` (or `flag`), config key `key_name`."""
    if choices:
        metavar = "{" + ",".join(map(str, choices)) + "}"
    return field(default=default, metadata={
        "help": help, "parse": parse, "choices": choices, "flag": flag, "metavar": metavar,
    })


@dataclass(frozen=True)
class CliConfig:
    subcommand: str = "entropy-curve"
    mass: float = _option(1.0, "particle mass")
    kind: str = _option("gaussian_packet", "initial condition kind", str, tuple(KIND_FIELDS))
    spinor_a: complex = _option(1.0 + 0.0j, "chirality -1 spinor component", _parse_complex,
                                metavar="RE,IM")
    spinor_b: complex = _option(1.0 + 0.0j, "chirality +1 spinor component", _parse_complex,
                                metavar="RE,IM")
    center: float = _option(0.0, "packet center")
    width: float = _option(1.0, "packet width sigma")
    mode_index: int = _option(0, "plane-wave momentum index", int)
    energy_sign: int = _option(1, "plane-wave energy sign", int, (-1, 1))
    grid_l: float = _option(DEFAULT_GRID.half_extent, "half extent L of the periodic domain")
    grid_n: int = _option(DEFAULT_GRID.n_points, "number of grid points (even)", int)
    t_start: float = _option(0.0, "first sample time")
    t_end: float = _option(2.0, "last sample time")
    t_step: float = _option(DEFAULT_TRACE_STEP, "sample spacing")
    times: tuple[float, ...] | None = _option(None, "explicit sample times, in place of the range",
                                              _parse_times, metavar="T1,T2,...")
    engine: str = _option("spectral", "evolution engine", str, ENGINES)
    figure_id: str = _option("fig1", "figure dataset to generate", str, tuple(sorted(FIGURES)),
                             flag="--id")
    output: str = _option("out.csv", "output file path: SVG plot if it ends in .svg, else CSV", str)


_OPTIONS = {f.name: f for f in fields(CliConfig) if f.metadata}
# The initial state and its grid, and the sample range: in field order, as help and dumps list them.
_STATE = ("mass", "kind", "spinor_a", "spinor_b", "center", "width", "mode_index", "energy_sign",
          "grid_l", "grid_n")
_RANGE = ("t_start", "t_end", "t_step")
SUBCOMMAND_OPTIONS = {
    "entropy-curve": _STATE + _RANGE + ("times", "engine", "output"),
    "distributions": _STATE + ("t_end", "engine", "output"),
    "figure": ("figure_id", "output"),
    "validate": (),
}


def _convert(subcommand: str, key: str, text: str):
    """The value of option `key` given as text, checked as flags and config files both need.

    NaN and infinities are rejected: they fail no `<` or `>` check downstream.
    """
    if key not in SUBCOMMAND_OPTIONS[subcommand]:
        raise ValueError(f"{subcommand} takes no option {key!r}")
    meta = _OPTIONS[key].metadata
    try:
        value = meta["parse"](text)
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None
    if meta["choices"] and value not in meta["choices"]:
        raise ValueError(f"bad value for {key!r}: {text!r} is not one of {meta['metavar']}")
    numbers = value if isinstance(value, tuple) else (value,)
    if not all(np.isfinite(v) for v in numbers if isinstance(v, (float, complex))):
        raise ValueError(f"bad value for {key!r}: {text!r} is not finite")
    return value


def read_config_file(path: str, subcommand: str) -> dict:
    """Line-oriented `key = value` pairs; # starts a comment; only the subcommand's options."""
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
            try:
                out[key] = _convert(subcommand, key, value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def dump_config(cfg: CliConfig) -> str:
    """The subcommand's options as a config file that reads back to `cfg`.  Left out:
    the range when times are set, since the two may not be given together, and the
    state options the kind does not read, which InitialSpec holds at their defaults."""
    unread = set().union(*KIND_FIELDS.values()) - set(KIND_FIELDS[cfg.kind])
    skipped = {key for key in _STATE if ("spinor" if key.startswith("spinor_") else key) in unread}
    skipped.update(_RANGE if cfg.times is not None else ())
    values = ((key, getattr(cfg, key)) for key in SUBCOMMAND_OPTIONS[cfg.subcommand]
              if key not in skipped)
    return "".join(f"{key} = {_format(value)}\n" for key, value in values if value is not None)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ValueError on a parse error, so it exits 1 like any rejected value."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: parse_args reads it and writes only
    its own namespace, so no value carries over from one call to the next."""
    parser = _ArgumentParser(
        prog="dirac-decoherence",
        description="Chirality decoherence of a 1+1D Dirac particle.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in SUBCOMMAND_OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective configuration and exit")
        for key in keys:
            f = _OPTIONS[key]
            default = "" if f.default is None else f" (default {_format(f.default)})"
            p.add_argument(f.metadata["flag"] or "--" + key.replace("_", "-"), dest=key,
                           metavar=f.metadata["metavar"], help=f.metadata["help"] + default)
    return parser


# The flags that take no value; every other flag takes one.
_SWITCHES = ("--dump-config", "--help")


def _attach_values(argv: list[str]) -> list[str]:
    """Join `--flag value` into `--flag=value` where value starts with a single '-'.

    argparse would read a value such as -1,0 or -1e-1 as a flag of its own;
    the `=` form is unambiguous.  A token that abbreviates a switch is a switch.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (token.startswith("-") and not token.startswith("--") and flag.startswith("--")
                and "=" not in flag and not any(s.startswith(flag) for s in _SWITCHES)):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def parse_config(argv: list[str] | None) -> tuple[CliConfig, bool]:
    """Merge defaults, config file and flags (in increasing precedence); argv None
    reads sys.argv.  Also returns whether --dump-config was given."""
    argv = _attach_values(sys.argv[1:] if argv is None else argv)
    ns = vars(_build_parser().parse_args(argv))
    subcommand = ns["subcommand"]
    values = read_config_file(ns["config"], subcommand) if ns["config"] else {}
    for key in SUBCOMMAND_OPTIONS[subcommand]:
        if ns[key] is not None:
            values[key] = _convert(subcommand, key, ns[key])
    ranged = [key for key in _RANGE if key in values]
    if "times" in values and ranged:
        raise ValueError(f"times and {', '.join(ranged)} given together: "
                         "give the sample times or the range, not both")
    return CliConfig(subcommand=subcommand, **values), ns["dump_config"]


def _check_rows_differ(label: str, values: np.ndarray) -> None:
    """Reject an abscissa whose CSV column would print the same number on two
    consecutive rows (-0.000000000000 and 0.000000000000 included).  Two values
    that print the same lie within 1e-12, so only closer pairs are formatted."""
    for i in np.flatnonzero(np.diff(values) < 2e-12).tolist():
        lo, hi = values[i:i + 2].tolist()
        printed = _ABSCISSA_FORMAT % hi
        if float(_ABSCISSA_FORMAT % lo) == float(printed):
            raise ValueError(f"{label} = {lo!r} and {label} = {hi!r} print as the same number, "
                             f"{printed}, in the CSV's 12-decimal ({_ABSCISSA_FORMAT}) "
                             "column; space them further apart or write an .svg")


def _validate_config(cfg: CliConfig) -> ScenarioConfig | None:
    """The scenario the run needs, so each value its constructors reject fails here
    (distributions samples t_end only), or None for figure and validate.  A CSV
    output must also print each abscissa row (time or grid point) distinctly."""
    if cfg.subcommand in ("figure", "validate"):
        return None
    try:
        grid = Grid1D(cfg.grid_l, cfg.grid_n)
    except ValueError as exc:
        raise ValueError(f"grid_l = {cfg.grid_l:g}, grid_n = {cfg.grid_n}: {exc}") from None
    initial = InitialSpec(
        kind=cfg.kind, mass=cfg.mass, center=cfg.center, width=cfg.width,
        spinor=(cfg.spinor_a, cfg.spinor_b), mode_index=cfg.mode_index,
        energy_sign=cfg.energy_sign,
    )
    if cfg.subcommand == "entropy-curve":
        times = uniform_times(cfg.t_start, cfg.t_end, cfg.t_step) if cfg.times is None else cfg.times
    else:
        times = (cfg.t_end,)
    scenario = ScenarioConfig(mass=cfg.mass, initial=initial, grid=grid, times=times,
                              engine=cfg.engine)
    if os.path.splitext(cfg.output)[1] != ".svg":
        if cfg.subcommand == "entropy-curve":
            _check_rows_differ(ENTROPY_HEADER[0], np.asarray(scenario.times, dtype=np.float64))
        else:
            _check_rows_differ("x", grid.x)
    return scenario


def write_csv(dataset: FigureDataset, path: str) -> None:
    """Serialize a dataset's columns with 12 significant digits.

    The abscissa column keeps 12 fixed decimals so rows sort and diff stably.
    Columns are formatted as Python floats (tolist), which print the same
    digits as numpy scalars and format faster; each row is one %-format of
    its tuple, and the file is written at once.
    """
    columns = [col.tolist() for col in (dataset.abscissa, *dataset.series.values())]
    row = _ABSCISSA_FORMAT + ",%.12g" * len(dataset.series) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join([dataset.abscissa_label, *dataset.series]) + "\n"
                 + "".join(row % values for values in zip(*columns)))


def _svg_path(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{'M' if i == 0 else 'L'}{x:.3f},{y:.3f}" for i, (x, y) in enumerate(points))


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def write_svg_plot(dataset: FigureDataset, path: str) -> None:
    """Standalone SVG 1.1 line plot titled by the figure id: axes, ticks, one
    polyline per series, legend."""
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
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{dataset.figure_id}</text>',
    ]
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


def validate() -> int:
    """Fast release checks, each run as requests down the path entropy-curve takes;
    prints one line per check, returns 0 iff all pass."""
    checks: list[tuple[str, float, float]] = []

    packet = InitialSpec(kind="gaussian_packet")
    trace = run_scenario(ScenarioConfig(0.0, packet, times=uniform_times(0.0, 3.0, 0.25))).trace
    dev = 0.0
    for t, rho01, entropy in zip(trace.times.tolist(), trace.rho01, trace.entropy):
        expected_off = np.exp(-t * t) / 2.0
        dev = max(dev, abs(rho01 - expected_off), abs(entropy - binary_entropy(0.5 + expected_off)))
    checks.append(("massless-closed-form", dev, 1e-6))

    dev = 0.0
    for mode_index, eps, m in ((0, 1, 1.0), (7, -1, 0.5), (-12, 1, 2.0)):
        wave = InitialSpec(kind="plane_wave", mass=m, mode_index=mode_index, energy_sign=eps)
        trace = run_scenario(ScenarioConfig(m, wave, times=(0.0, 0.7, 2.3, 5.0))).trace
        for column in (trace.rho00, trace.rho01, trace.rho11):
            dev = max(dev, float(np.abs(column[1:] - column[0]).max()))
    checks.append(("stationary-state", dev, 1e-9))

    dt = 3 * DEFAULT_GRID.dx
    packet = InitialSpec(kind="gaussian_packet", mass=1.0)
    exact, walked = (evolved(ScenarioConfig(1.0, packet, times=(dt,), engine=engine), dt).values
                     for engine in ("spectral", "kernel"))
    rel = float(np.linalg.norm(walked - exact) / np.linalg.norm(exact))
    checks.append(("engine-cross-check", rel, 1e-3))

    status = 0
    for name, deviation, tolerance in checks:
        ok = deviation < tolerance
        status |= 0 if ok else 1
        print(
            f"{name}: deviation={deviation:.3e} tolerance={tolerance:.0e} "
            f"{'PASS' if ok else 'FAIL'}"
        )
    return status


def _run(cfg: CliConfig, scenario: ScenarioConfig | None) -> int:
    if cfg.subcommand == "validate":
        return validate()
    if cfg.subcommand == "figure":
        dataset = FIGURES[cfg.figure_id]()
    elif cfg.subcommand == "entropy-curve":
        trace = run_scenario(scenario).trace
        columns = (trace.entropy, trace.rho00, trace.rho01.real, trace.rho01.imag, trace.rho11)
        dataset = FigureDataset(figure_id="entropy-curve", abscissa_label=ENTROPY_HEADER[0],
                                abscissa=trace.times, series=dict(zip(ENTROPY_HEADER[1:], columns)))
    else:
        dataset = distribution_dataset("distributions", scenario)
    extension = os.path.splitext(cfg.output)[1]
    targets = {cfg.output: dataset}  # every path is checked before any is written
    for inset in dataset.insets:
        path = os.path.join(os.path.dirname(cfg.output), inset.figure_id + extension)
        if os.path.abspath(path) == os.path.abspath(cfg.output):
            raise ValueError(f"output {cfg.output} is also the path of {dataset.figure_id}'s "
                             f"inset {inset.figure_id}; give the output another name")
        targets[path] = inset
    write = write_svg_plot if extension == ".svg" else write_csv
    for path, data in targets.items():
        write(data, path)
    return 0


def main(argv: list[str] | None = None) -> int:
    status = 1  # until the run starts; 2 after
    try:
        cfg, dump = parse_config(argv)
        scenario = _validate_config(cfg)
        if dump:
            sys.stdout.write(dump_config(cfg))
            return 0
        status = 2
        return _run(cfg, scenario)
    except (ValueError, OSError, MemoryError) as exc:
        # A bare MemoryError has no message of its own.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return status


if __name__ == "__main__":
    raise SystemExit(main())
