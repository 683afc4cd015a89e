import hashlib
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dirac_decoherence import cli, kernel_engine, spectral
from dirac_decoherence.cli import (
    CliConfig,
    dump_config,
    main,
    parse_config,
    read_config_file,
    write_csv,
    write_svg_plot,
)
from dirac_decoherence.experiments import FIGURES, FigureDataset, ScenarioConfig, build_initial
from dirac_decoherence.grid import InitialSpec, SpinorField


def test_parse_defaults():
    cfg, _ = parse_config(["entropy-curve"])
    assert cfg.subcommand == "entropy-curve"
    assert cfg.mass == 1.0
    assert cfg.grid_n == 1024


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mass = 2.0\nt_end = 3.0  # comment\n\n# full-line comment\n")
    cfg, _ = parse_config(["entropy-curve", "--config", str(path), "--mass", "0.5"])
    assert cfg.mass == 0.5
    assert cfg.t_end == 3.0


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("masss = 2.0\n")
    with pytest.raises(ValueError, match="masss"):
        read_config_file(str(path), "entropy-curve")


def test_malformed_number_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mass = heavy\n")
    with pytest.raises(ValueError, match="mass"):
        read_config_file(str(path), "entropy-curve")


def test_config_line_without_equals_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# masses\nmass 2\n")
    with pytest.raises(ValueError, match=r"bad.cfg:2: expected 'key = value', got 'mass 2'"):
        read_config_file(str(path), "entropy-curve")


def test_dump_config_round_trip(tmp_path):
    for argv in (
        ["entropy-curve", "--mass", "2", "--spinor-a", "0,1", "--times", "0,0.5,1"],
        ["entropy-curve", "--spinor-a", "0.123456789,0.1", "--times", "0.1234567,0.5"],
        ["entropy-curve", "--kind", "plane_wave", "--mode-index", "-3", "--energy-sign", "-1"],
        ["figure", "--id", "fig3", "--output", "fig3.svg"],
    ):
        cfg, _ = parse_config(argv)
        path = tmp_path / "dumped.cfg"
        path.write_text(dump_config(cfg))
        reparsed, _ = parse_config([argv[0], "--config", str(path)])
        assert reparsed == cfg
    # Read back, a plane wave's dump writes the CSV bytes its flags write.
    wave = ["entropy-curve", "--kind", "plane_wave", "--mode-index", "3"]
    cfg, _ = parse_config(wave)
    (tmp_path / "wave.cfg").write_text(dump_config(cfg))
    flags, config = tmp_path / "flags.csv", tmp_path / "config.csv"
    assert main(wave + ["--output", str(flags)]) == 0
    assert main(["entropy-curve", "--config", str(tmp_path / "wave.cfg"), "--output", str(config)]) == 0
    assert flags.read_bytes() == config.read_bytes()


_DISTRIBUTIONS = ("mass kind spinor_a spinor_b center width mode_index energy_sign grid_l grid_n "
                  "t_end engine output").split()
OPTIONS_USED = {
    "entropy-curve": _DISTRIBUTIONS + ["t_start", "t_step", "times"],
    "distributions": _DISTRIBUTIONS,
    "figure": ["figure_id", "output"],
    "validate": [],
}
# Removed subcommands and the options they took. Called with any other option
# they still exit 1 and write nothing; argparse stops at the subcommand name.
REMOVED_OPTIONS_USED = {"evolve": _DISTRIBUTIONS}


@pytest.mark.parametrize("subcommand", sorted(OPTIONS_USED))
def test_dump_config_prints_only_the_subcommand_options(capsys, subcommand):
    assert main([subcommand, "--dump-config"]) == 0
    dumped = {line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()}
    # times is unset by default, and the default kind, a packet, reads no plane-wave option.
    assert dumped == set(OPTIONS_USED[subcommand]) - {"times", "mode_index", "energy_sign"}


_PACKET_OPTIONS = {"spinor_a", "spinor_b", "center", "width"}
_WAVE_OPTIONS = {"mode_index", "energy_sign"}


@pytest.mark.parametrize("kind,unread", [
    ("gaussian_packet", _WAVE_OPTIONS),
    ("plane_wave", _PACKET_OPTIONS),
    ("positive_energy_packet", _WAVE_OPTIONS),
])
def test_dump_config_prints_only_the_state_options_the_kind_reads(capsys, kind, unread):
    assert main(["distributions", "--kind", kind, "--dump-config"]) == 0
    dumped = {line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()}
    assert dumped == set(OPTIONS_USED["distributions"]) - unread


def _help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("subcommand", sorted(OPTIONS_USED))
def test_subcommand_help_lists_exactly_its_flags(capsys, subcommand):
    listed = set(re.findall(r"^  (?:-h, )?(--[\w-]+)", _help(capsys, [subcommand]), re.MULTILINE))
    flags = {"--id" if key == "figure_id" else "--" + key.replace("_", "-")
             for key in OPTIONS_USED[subcommand]}
    assert listed == flags | {"--help", "--config", "--dump-config"}


def test_top_level_help_lists_exactly_the_subcommands(capsys):
    choices = re.search(r"\{([^}]*)\}", _help(capsys, [])).group(1)
    assert sorted(choices.split(",")) == sorted(OPTIONS_USED)


def test_evolve_subcommand_removed(tmp_path, capsys):
    assert main(["evolve", "--output", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'evolve'" in err
    assert all(repr(subcommand) in err for subcommand in OPTIONS_USED)
    assert list(tmp_path.iterdir()) == []


def _source_args(tmp_path, source, key, value):
    """Give option `key` the text `value` as a flag or through a config file."""
    if source == "flag":
        return ["--id" if key == "figure_id" else f"--{key.replace('_', '-')}", value]
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    return ["--config", str(path)]


def _written(tmp_path):
    return sorted(p.name for p in tmp_path.iterdir() if p.name != "run.cfg")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("subcommand,key,value", [
    ("figure", "figure_id", "fig9"),
    ("entropy-curve", "engine", "magic"),
    ("entropy-curve", "kind", "cosine"),
    ("distributions", "energy_sign", "0"),
])
def test_choices_checked_from_flag_and_config(tmp_path, capsys, subcommand, key, value, source):
    argv = [subcommand, "--output", str(tmp_path / f"o.{value}")]
    assert main(argv + _source_args(tmp_path, source, key, value)) == 1
    assert f"bad value for {key!r}" in capsys.readouterr().err
    assert _written(tmp_path) == []


def _unused_options():
    for subcommand, used in {**OPTIONS_USED, **REMOVED_OPTIONS_USED}.items():
        for f in fields(CliConfig):
            if f.name != "subcommand" and f.name not in used:
                yield subcommand, f.name


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("subcommand,key", list(_unused_options()))
def test_subcommand_rejects_options_it_does_not_use(tmp_path, capsys, subcommand, key, source):
    default = getattr(CliConfig(), key)
    value = "0.5,1" if default is None else cli._format(default)
    extra = _source_args(tmp_path, source, key, value)
    output = [] if subcommand == "validate" else ["--output", str(tmp_path / "o.csv")]
    assert main([subcommand, *output, *extra]) == 1
    err = capsys.readouterr().err
    if subcommand in REMOVED_OPTIONS_USED:
        assert f"invalid choice: {subcommand!r}" in err
    else:
        assert (f"unrecognized arguments: {extra[0]}" if source == "flag" else repr(key)) in err
    assert _written(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["figure", "--id", "fig1", "--engine", "kernel", "--mass", "7", "--t-end", "9"],
    ["distributions", "--times", "0.5,1"],
    ["figure", "--id", "fig2", "--format", "svg"],
])
def test_ignored_options_of_earlier_versions_rejected(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    assert main(argv + ["--output", str(out)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("file_line,flags", [
    ("times = 0.5,1", ["--t-start", "0.5"]),
    ("t_step = 0.5", ["--times", "0.5,1"]),
])
def test_times_with_range_rejected_across_config_and_flags(tmp_path, capsys, file_line, flags):
    path = tmp_path / "run.cfg"
    path.write_text(file_line + "\n")
    out = tmp_path / "o.csv"
    assert main(["entropy-curve", "--config", str(path), *flags, "--output", str(out)]) == 1
    assert "give the sample times or the range, not both" in capsys.readouterr().err
    assert not out.exists()


def test_subcommand_key_rejected_in_config_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("subcommand = figure\n")
    assert main(["entropy-curve", "--config", str(path)]) == 1
    assert "run.cfg:1: entropy-curve takes no option 'subcommand'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--spinor-a", "-1,0"), ("--center", "-1e-1"), ("--center", "-0.5")])
def test_value_starting_with_dash_reads_as_in_equals_form(tmp_path, flag, value):
    argv = ["entropy-curve", "--mass", "1", "--spinor-b", "0,1", "--t-end", "0.2", "--t-step", "0.1"]
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(argv + [flag, value, "--output", str(spaced)]) == 0
    assert main(argv + [f"{flag}={value}", "--output", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    cfg, _ = parse_config(argv + [flag, value])
    assert cfg == parse_config(argv + [f"{flag}={value}"])[0]
    assert cfg != parse_config(argv)[0]


def test_odd_grid_n_exit_code(tmp_path, capsys):
    status = main(["entropy-curve", "--grid-n", "1001", "--output", str(tmp_path / "x.csv")])
    assert status == 1
    assert "grid_n" in capsys.readouterr().err


def test_even_non_power_of_two_grid_accepted(tmp_path):
    out = tmp_path / "n1000.csv"
    status = main([
        "entropy-curve", "--mass", "0", "--grid-n", "1000", "--t-end", "0.5",
        "--t-step", "0.25", "--output", str(out),
    ])
    assert status == 0
    assert out.exists()


def test_entropy_csv_schema(tmp_path):
    out = tmp_path / "trace.csv"
    status = main([
        "entropy-curve", "--mass", "0", "--t-end", "1", "--t-step", "0.5",
        "--output", str(out),
    ])
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,S_bits,rho00,rho01_re,rho01_im,rho11"
    first = lines[1].split(",")
    assert first[0] == "0.000000000000"
    assert abs(float(first[1])) < 1e-12
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert abs(float(last[3]) - math.exp(-1.0) / 2.0) < 1e-6


def test_csv_lf_line_endings(tmp_path):
    out = tmp_path / "trace.csv"
    main(["entropy-curve", "--mass", "0", "--t-end", "0.5", "--t-step", "0.25", "--output", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw


def test_csv_bytes_of_edge_floats(tmp_path):
    # No figure reaches these values: signed zero, subnormal, roundoff, huge, nan, inf.
    edge = np.array([-0.0, 5e-324, 1e-15, 0.1 + 0.2, 1e16, np.nan, np.inf])
    x = np.array([-0.0, 5e-324, 2.0 / 3.0, 0.1 + 0.2, 1e16, -1.5, 123.4567890123456])
    out = tmp_path / "edge.csv"
    write_csv(FigureDataset("edge", "x", x, {"y": edge, "z": -edge}), str(out))
    assert out.read_text() == (
        "x,y,z\n"
        "-0.000000000000,-0,0\n"
        "0.000000000000,4.94065645841e-324,-4.94065645841e-324\n"
        "0.666666666667,1e-15,-1e-15\n"
        "0.300000000000,0.3,-0.3\n"
        "10000000000000000.000000000000,1e+16,-1e+16\n"
        "-1.500000000000,nan,nan\n"
        "123.456789012346,inf,-inf\n"
    )


def test_csv_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["entropy-curve", "--mass", "1", "--t-end", "0.3", "--t-step", "0.1"]
    main(args + ["--output", str(a)])
    main(args + ["--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_distributions_integrate_to_diagonals(tmp_path):
    out = tmp_path / "dist.csv"
    status = main([
        "distributions", "--mass", "1", "--t-end", "1", "--output", str(out),
    ])
    assert status == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    header = out.read_text().splitlines()[0]
    assert header == "x,prob_minus,prob_plus"
    dx = rows[1, 0] - rows[0, 0]
    assert np.sum(rows[:, 1]) * dx == pytest.approx(0.5, abs=1e-9)
    assert np.sum(rows[:, 2]) * dx == pytest.approx(0.5, abs=1e-9)


def test_figure_subcommand_writes_insets(tmp_path):
    out = tmp_path / "fig4.csv"
    status = main(["figure", "--id", "fig4", "--output", str(out)])
    assert status == 0
    assert out.exists()
    for t in ("0.5", "1", "1.5", "2"):
        assert (tmp_path / f"fig4_inset_t{t}.csv").exists()


@pytest.mark.parametrize("figure_id,inset", [("fig5", "fig6"), ("fig4", "fig4_inset_t1")])
@pytest.mark.parametrize("extension", [".csv", ".svg"])
def test_output_on_an_inset_path_exits_2_and_writes_nothing(tmp_path, capsys, figure_id, inset,
                                                            extension):
    out = tmp_path / (inset + extension)
    assert main(["figure", "--id", figure_id, "--output", str(out)]) == 2
    assert f"is also the path of {figure_id}'s inset {inset}" in capsys.readouterr().err
    assert _written(tmp_path) == []


def test_figure_svg_output(tmp_path):
    out = tmp_path / "fig1.svg"
    status = main(["figure", "--id", "fig1", "--output", str(out)])
    assert status == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    assert text.count("<path") == 3
    for label in ("m=0", "m=1", "m=2"):
        assert label in text


def test_figure_svg_writes_insets(tmp_path):
    out = tmp_path / "fig4.svg"
    status = main(["figure", "--id", "fig4", "--output", str(out)])
    assert status == 0
    assert out.read_text().startswith("<?xml")
    for t in ("0.5", "1", "1.5", "2"):
        text = (tmp_path / f"fig4_inset_t{t}.svg").read_text()
        assert text.startswith("<?xml")
        assert f"fig4_inset_t{t}</text>" in text
        assert "prob_minus" in text and "prob_plus" in text
    assert [p.suffix for p in tmp_path.iterdir()] == [".svg"] * 5


_ONE_OF_EACH_JOB = [
    ["entropy-curve", "--t-end", "0.2", "--t-step", "0.1"],
    ["distributions", "--t-end", "0.5"],
    ["figure", "--id", "fig5"],
]


@pytest.mark.parametrize("argv,title,series,written", [
    (_ONE_OF_EACH_JOB[0], "entropy-curve", 5, ["out.svg"]),
    (_ONE_OF_EACH_JOB[1], "distributions", 2, ["out.svg"]),
    (_ONE_OF_EACH_JOB[2], "fig5", 1, ["fig6.svg", "out.svg"]),
])
def test_svg_suffix_writes_svg(tmp_path, argv, title, series, written):
    out = tmp_path / "out.svg"
    assert main(argv + ["--output", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    assert f">{title}</text>" in text
    assert text.count("<path") == series
    assert _written(tmp_path) == written


@pytest.mark.parametrize("suffix", [".dat", ""])
@pytest.mark.parametrize("argv", _ONE_OF_EACH_JOB)
def test_other_suffix_writes_the_csv_bytes(tmp_path, argv, suffix):
    (tmp_path / "csv").mkdir()
    (tmp_path / "other").mkdir()
    assert main(argv + ["--output", str(tmp_path / "csv" / "out.csv")]) == 0
    assert main(argv + ["--output", str(tmp_path / "other" / f"out{suffix}")]) == 0
    csv = {p.stem: p.read_bytes() for p in (tmp_path / "csv").iterdir()}
    other = {p.name: p.read_bytes() for p in (tmp_path / "other").iterdir()}
    assert other == {stem + suffix: data for stem, data in csv.items()}


@pytest.mark.parametrize("mass,figure_id", [("0", "fig2"), ("1", "fig3")])
def test_distributions_reproduce_figure_bytes(tmp_path, mass, figure_id):
    dist, fig = tmp_path / "dist.csv", tmp_path / f"{figure_id}.csv"
    assert main(["distributions", "--mass", mass, "--t-end", "1", "--output", str(dist)]) == 0
    assert main(["figure", "--id", figure_id, "--output", str(fig)]) == 0
    assert dist.read_bytes() == fig.read_bytes()


def test_figures_match_recorded_digests(tmp_path):
    # fig1-fig6 and their insets write the ten CSVs whose sha256 the benchmark records.
    for figure_id in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"):
        assert main(["figure", "--id", figure_id, "--output", str(tmp_path / f"{figure_id}.csv")]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    digests = Path(__file__).resolve().parent.parent / "perfbench" / "figure_digests.json"
    assert written == json.loads(digests.read_text())


# sha256 of the CSV each request writes, for the engines and initial states the figure
# digests do not reach: the kernel engine, a plane wave, positive-energy packets and a
# phased, off-centre spinor.  Recorded with numpy 2.4.
REQUEST_DIGESTS = {
    "entropy-curve --engine kernel --mass 1.3 --times 0.0390625,0.1171875,0.5078125":
        "106beaade4aeff52ded0204b711f346509b951da9a3d51145fd85ee819d3fb30",
    "distributions --engine kernel --mass 2 --t-end 0.5078125":
        "61615423aa647e8e3fdd9517eda21adb66da44c9504b99fe0fceb9373340531c",
    "entropy-curve --kind plane_wave --mode-index 7 --energy-sign -1 --mass 0.5 --t-end 1 --t-step 0.25":
        "d9f7778fd603300630c5bad6f7b8c56fdbbee4fd3234c4850ed69a9bfd92d72a",
    "entropy-curve --kind positive_energy_packet --mass 2 --t-end 1 --t-step 0.1":
        "af49a4badaec0f1f16bc65724c278b5b4f14a3c845c669e98054dd88d63500fe",
    "entropy-curve --spinor-b 0.6,0.8 --center -1.5 --width 1.3 --mass 1.7 --t-end 2 --t-step 0.05":
        "b7019e81b0a8b26f9fbd08cfdff644ba8cd99ac5df0fe364c698771a8ed238f3",
    "distributions --kind positive_energy_packet --mass 0.5 --t-end 0":
        "f03f196f708306bc172013097331ecbda4d68db7f13812173241e6824f20987c",
}


def test_requests_match_recorded_digests(tmp_path):
    written = {}
    for request in REQUEST_DIGESTS:
        out = tmp_path / "out.csv"
        assert main([*request.split(), "--output", str(out)]) == 0
        written[request] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert written == REQUEST_DIGESTS


def test_entropy_curve_reproduces_figure4_columns(tmp_path):
    trace, fig = tmp_path / "trace.csv", tmp_path / "fig4.csv"
    assert main(["entropy-curve", "--mass", "1", "--t-end", "2", "--output", str(trace)]) == 0
    assert main(["figure", "--id", "fig4", "--output", str(fig)]) == 0
    columns = [",".join(line.split(",")[:2]) for line in trace.read_text().splitlines()]
    assert columns == fig.read_text().splitlines()


def test_figure2_svg_has_two_series(tmp_path):
    out = tmp_path / "fig2.svg"
    main(["figure", "--id", "fig2", "--output", str(out)])
    text = out.read_text()
    assert text.count("<path") == 2
    assert "prob_minus" in text and "prob_plus" in text


def test_svg_single_point_uses_marker(tmp_path):
    from dirac_decoherence.experiments import FigureDataset

    ds = FigureDataset(
        figure_id="point", abscissa_label="t", abscissa=np.array([1.0]),
        series={"s": np.array([0.5])},
    )
    out = tmp_path / "point.svg"
    write_svg_plot(ds, str(out))
    text = out.read_text()
    assert "<circle" in text
    assert "<path" not in text


def test_svg_of_empty_dataset_rejected(tmp_path):
    from dirac_decoherence.experiments import FigureDataset

    ds = FigureDataset(figure_id="empty", abscissa_label="t", abscissa=np.array([]))
    out = tmp_path / "empty.svg"
    with pytest.raises(ValueError, match="cannot plot an empty dataset"):
        write_svg_plot(ds, str(out))
    assert not out.exists()


def test_svg_determinism(tmp_path):
    ds = FIGURES["fig1"]()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    write_svg_plot(ds, str(a))
    write_svg_plot(ds, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_validate_passes(capsys):
    status = cli.validate()
    out = capsys.readouterr().out
    assert status == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_validate_subcommand_prints_three_passes(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "massless-closed-form", "stationary-state", "engine-cross-check"]
    assert all(line.endswith(" PASS") for line in lines)


def test_validate_flipped_sign_fails(capsys, monkeypatch):
    def flipped(grid, m, sign=spectral.MASS_COUPLING_SIGN):
        return spectral.eigenbasis_arrays(grid.k, m, -sign)

    monkeypatch.setattr(spectral, "eigenbasis", flipped)
    status = cli.validate()
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert next(l for l in lines if l.startswith("engine-cross-check:")).endswith(" FAIL")


def test_validate_cross_check_runs_the_kernel_walk(capsys, monkeypatch):
    # The cross-check sends its kernel request through evolve_to, so a walk that is
    # off by 1 % fails it.
    walk = kernel_engine.evolve_to

    def scaled(field, m, t):
        out = walk(field, m, t)
        return SpinorField(out.grid, out.values * 1.01)

    monkeypatch.setattr(kernel_engine, "evolve_to", scaled)
    status = cli.validate()
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert next(l for l in lines if l.startswith("engine-cross-check:")).endswith(" FAIL")


def test_validate_reports_massless_deviation(capsys):
    cli.validate()
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("massless-closed-form"))
    deviation = float(line.split("deviation=")[1].split()[0])
    assert deviation < 1e-6


def test_cli_entry_point_subprocess(tmp_path):
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "dirac_decoherence.cli", "entropy-curve", "--mass", "0",
         "--t-end", "0.2", "--t-step", "0.1", "--output", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_spinor_of_any_size_runs(tmp_path):
    # Squaring 1e200 would overflow; normalized, the packet is the one (1, 0) gives.
    huge, unit = tmp_path / "huge.csv", tmp_path / "unit.csv"
    args = ["entropy-curve", "--spinor-b", "0,0", "--times", "0.1", "--output"]
    assert main([*args, str(huge), "--spinor-a=1e200,0"]) == 0
    assert main([*args, str(unit), "--spinor-a=1,0"]) == 0
    rows = [np.loadtxt(path, delimiter=",", skiprows=1) for path in (huge, unit)]
    assert np.abs(rows[0] - rows[1]).max() < 1e-12


def test_step_not_dividing_range_exit_code(tmp_path, capsys):
    status = main(["entropy-curve", "--t-end", "1", "--t-step", "0.3",
                   "--output", str(tmp_path / "x.csv")])
    assert status == 1
    assert "t_step = 0.3 does not divide [0.0, 1.0]" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_kernel_engine_requests_succeed(tmp_path):
    # Three samples on the default grid (dx = 0.0390625), the last a [3, 3, 3, 3, 1]
    # walk, and one distribution snapshot at that time.
    curve, dist = tmp_path / "curve.csv", tmp_path / "dist.csv"
    assert main(["entropy-curve", "--engine", "kernel", "--times", "0.0390625,0.078125,0.5078125",
                 "--output", str(curve)]) == 0
    lines = curve.read_text().splitlines()
    assert len(lines) == 4
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0390625, 0.078125, 0.5078125]
    assert main(["distributions", "--engine", "kernel", "--mass", "1", "--t-end", "0.5078125",
                 "--output", str(dist)]) == 0
    assert len(dist.read_text().splitlines()) == 1025


def test_kernel_evolve_rejects_non_commensurate_time(tmp_path, capsys):
    # t / dx = 25.6 at the default grid (dx = 0.0390625): 26 cells is nearest.
    status = main(["distributions", "--engine", "kernel", "--t-end", "1",
                   "--output", str(tmp_path / "x.csv")])
    assert status != 0
    assert "nearest commensurate value is 1.015625" in capsys.readouterr().err


def _no_work(*args, **kwargs):
    raise AssertionError("a rejected request must not reach the run")


def test_kernel_request_on_a_grid_whose_frequency_overflows_exits_1(tmp_path, capsys, monkeypatch):
    # This once built a NaN positive-energy packet with numpy warnings and
    # exited 2 after the run; the spectral engine already rejected the grid.
    monkeypatch.setattr(cli, "distribution_dataset", _no_work)
    out = tmp_path / "o.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["distributions", "--engine", "kernel", "--kind", "positive_energy_packet",
                     "--grid-l", "1e-155", "--width", "1e-157", "--t-end", "0",
                     "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: omega_max = sqrt(k_max^2 + m^2) overflows float64 (k_max = 1.6085e+158, "
                          "m = 1.0); the spectral route, which either engine may take")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_packet_whose_grid_square_overflows_exits_0(tmp_path):
    # (x - center)^2 overflows at the grid's ends, where the envelope is 0:
    # this printed a numpy overflow warning, a traceback under -W error.
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["distributions", "--engine", "kernel", "--grid-l", "1e157", "--grid-n", "65536",
                     "--width", "1e153", "--t-end", "0", "--output", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("args,message", [
    (["--masss", "1"], "unrecognized arguments: --masss"),
    (["--t-end"], "argument --t-end: expected one argument"),
    (["--mass", "heavy"], "bad value for 'mass'"),
    (["--width", "-1"], "width must be positive"),
    (["--grid-l", "-3"], "grid_l = -3"),
    (["--mass", "-1"], "mass must be nonnegative"),
    (["--kind", "plane_wave", "--mode-index", "5000"], "mode_index 5000 outside"),
    (["--engine", "kernel", "--times", "0.0390625,0.5"], "nearest commensurate value is 0.5078125"),
    (["--t-end", "5", "--t-step", "0.5", "--times", "0.5,1"], "times and t_end, t_step given together"),
    (["--engine", "kernel", "--kind", "plane_wave", "--grid-l", "0.2", "--grid-n", "4", "--times", "0.1"],
     "dt = 0.1 exceeds L/4 = 0.05"),
    (["--mode-index", "5"], "gaussian_packet does not use mode_index, got mode_index = 5"),
    (["--kind", "plane_wave", "--width", "7"], "plane_wave does not use width, got width = 7.0"),
    (["--t-start", "1", "--t-end", "0.5"], "t_end = 0.5 is before t_start = 1.0"),
    (["--t-end", "1e300", "--t-step", "1e-300"], "t_step = 1e-300 splits [0.0, 1e+300] into a step"),
    (["--center", "25"], "(L - |center|)/sigma = -5 but at least 6.0 is required to keep periodic "
                         "wraparound negligible"),
    (["--t-end", "1e300", "--t-step", "1e-3"], "t_step = 0.001 splits [0.0, 1e+300] into a step count "
                                               "of 1e+303, not a finite count below 2**53"),
    (["--engine", "kernel", "--times", "1e300"], "dt = 1e+300 is not below 2**53 cells of dx = 0.0390625"),
    (["--spinor-a", "1"], "bad value for 'spinor_a': expected 're,im', got '1'"),
    (["--grid-l", "1e300", "--width", "1e298", "--times", "0,1"], "width = 1e+298 is out of range"),
])
def test_rejected_request_exits_1_before_any_work(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.setattr(cli, "run_scenario", _no_work)
    out = tmp_path / "x.csv"
    assert main(["entropy-curve", *args, "--output", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["distributions", "--mass", "1e200", "--t-end", "0.5"],
    ["distributions", "--engine", "kernel", "--mass", "1e200", "--t-end", "0.5078125"],
    ["entropy-curve", "--mass", "1e155", "--t-end", "0.1", "--t-step", "0.1"],
    ["entropy-curve", "--mass", "9.5e153", "--t-end", "0.1", "--t-step", "0.1"],
], ids=["spectral", "kernel", "entropy-curve", "twice-the-square"])
def test_mass_whose_square_overflows_exits_1_before_any_work(tmp_path, capsys, monkeypatch, args):
    # m^2 overflows from about 1.34e154; such a mass once gave all-NaN
    # distributions with exit 0, or numpy warnings and exit 2 after the run.
    # 2 m^2, which the spectral engine needs, overflows from about 9.48e153:
    # 9.5e153 once failed after the run on a zero field norm.
    monkeypatch.setattr(cli, "run_scenario", _no_work)
    monkeypatch.setattr(cli, "distribution_dataset", _no_work)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    mass = float(args[args.index("--mass") + 1])
    assert err == f"error: mass = {mass} is too large: twice its square overflows float64 " \
                  "(the largest mass is about 9.48e153)\n"
    assert not out.exists()


def test_distributions_of_a_non_finite_field_exit_2(tmp_path, capsys):
    # At these masses the kernel's taps overflow over 100 steps, and the
    # field's norm is infinite or NaN.  The walk is rejected by name after the
    # run, with no numpy warning before it, and no CSV is written; it used to
    # hold 1024 rows of 0,0 (or of nan,nan) with exit 0.
    out = tmp_path / "x.csv"
    for mass, t, error in (
        ("1000", "11.71875", "the kernel walk to t = 11.71875 at mass = 1000.0 ends with norm inf, "
                             "not finite and positive, so it cannot be renormalized"),
        ("1700", "11.71875", "the kernel walk to t = 11.71875 at mass = 1700.0 ends with norm nan, "
                             "not finite and positive, so it cannot be renormalized"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(["distributions", "--engine", "kernel", "--mass", mass, "--t-end", t,
                           "--output", str(out)])
        assert status == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()


@pytest.mark.parametrize("mass,t,total", [("1000", "11.71875", "inf"), ("1700", "11.71875", "nan")])
def test_kernel_entropy_curve_whose_norm_overflows_exits_2_without_a_warning(tmp_path, capsys, mass, t, total):
    # With warnings as errors, the walk's overflow still ends as the inf or
    # NaN norm it is rejected by: exit 2 and one line, not a traceback.
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["entropy-curve", "--engine", "kernel", "--mass", mass, "--times", t,
                       "--output", str(out)])
    assert status == 2
    assert capsys.readouterr().err == (f"error: the kernel walk to t = {t} at mass = {float(mass)} "
                                       f"ends with norm {total}, not finite and positive, so it "
                                       f"cannot be renormalized\n")
    assert not out.exists()


@pytest.mark.parametrize("subcommand,mass,reach", [
    ("entropy-curve", "1707", "200.0390625"),
    ("entropy-curve", "1e15", "117187500000000.0"),
    ("entropy-curve", "1e150", "1.171875e+149"),
    ("distributions", "1e20", "1.171875e+19"),
])
def test_kernel_mass_past_the_bessel_domain_exits_1(tmp_path, capsys, monkeypatch, subcommand, mass, reach):
    # The longest step of a walk to 0.5078125 on the figure grid, 3 cells,
    # needs J0 at m * dt past 200 from m = 1707 on: rejected before any work,
    # in one line naming the mass and the largest one the step allows, with
    # no numpy warning.  1e15 once printed 0.510838686368.
    monkeypatch.setattr(cli, "run_scenario", _no_work)
    monkeypatch.setattr(cli, "distribution_dataset", _no_work)
    out = tmp_path / "x.csv"
    time_flag = "--times" if subcommand == "entropy-curve" else "--t-end"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main([subcommand, "--engine", "kernel", "--mass", mass, time_flag, "0.5078125",
                       "--output", str(out)])
    assert status == 1
    assert capsys.readouterr().err == (
        f"error: mass = {float(mass)} is too large for the kernel engine: its longest step, "
        f"dt = 0.1171875, needs Bessel arguments up to m * dt = {reach}, past 200.0; the largest "
        f"mass for this step is 1706.6666666666667\n")
    assert not out.exists()


def test_kernel_mass_named_as_the_largest_runs(tmp_path):
    # The largest mass the rejection above names is itself accepted.
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["entropy-curve", "--engine", "kernel", "--mass", "1706.6666666666667",
                     "--times", "0.5078125", "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_kernel_mass_named_on_a_424_point_grid_runs(tmp_path, capsys):
    # 200/dt is 2120.0 here, but 2120 * dt rounds to 200.00000000000003: the
    # refusal names the largest mass whose m * dt is inside, and it runs.
    out = tmp_path / "x.csv"
    args = ["entropy-curve", "--engine", "kernel", "--grid-n", "424", "--times", "0.09433962264150944",
            "--output", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--mass", "2120"]) == 1
        assert capsys.readouterr().err.endswith("; the largest mass for this step is 2119.9999999999995\n")
        assert not out.exists()
        assert main([*args, "--mass", "2119.9999999999995"]) == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("engine,later", [("spectral", "0.5"), ("kernel", "0.5078125")])
def test_a_sample_time_of_negative_zero_prints_as_zero(tmp_path, engine, later):
    out = tmp_path / "x.csv"
    assert main(["entropy-curve", "--engine", engine, "--times", f"-0.0,{later}", "--output", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[0] == "0.000000000000"


@pytest.mark.parametrize("args", [
    ["distributions", "--mass", "0", "--t-end", "1e307"],
    ["entropy-curve", "--mass", "0.03", "--times", "0,1e307"],
], ids=["distributions", "entropy-curve"])
def test_spectral_time_whose_phase_overflows_exits_1_before_any_work(tmp_path, capsys, monkeypatch, args):
    # omega_max * t overflows on the figure grid (omega_max = 80.4 at m = 0):
    # this once printed numpy's overflow and exp warnings and exited 2 after
    # the run.  The largest time named passes, the next float does not; at
    # m = 0.03 that time is one float below max/omega_max, whose phase
    # rounds to inf.
    monkeypatch.setattr(cli, "run_scenario", _no_work)
    monkeypatch.setattr(cli, "distribution_dataset", _no_work)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: t = 1e+307 is too long for the spectral engine: its phase omega*t "
                          "overflows float64 (omega_max = ")
    assert not out.exists()
    largest = float(err.split("the largest time is ")[1])
    mass = float(args[args.index("--mass") + 1])
    spec = InitialSpec(kind="gaussian_packet", mass=mass)
    ScenarioConfig(mass, spec, times=(largest,))
    with pytest.raises(ValueError, match="too long for the spectral engine"):
        ScenarioConfig(mass, spec, times=(math.nextafter(largest, math.inf),))


@pytest.mark.parametrize("args,pair,printed", [
    (["entropy-curve", "--times", "1e-13,2e-13,4e-13"], "t = 1e-13 and t = 2e-13", "0.000000000000"),
    (["entropy-curve", "--t-end", "2e-12", "--t-step", "5e-13"], "t = 0.0 and t = 5e-13",
     "0.000000000000"),
    (["distributions", "--grid-l", "1e-10", "--width", "1e-11", "--t-end", "0"],
     "x = -1e-10 and x = -9.98046875e-11", "-0.000000000100"),
    # -0.000000000000 and 0.000000000000: two strings, one number.
    (["distributions", "--kind", "plane_wave", "--grid-l", "3e-13", "--grid-n", "2", "--t-end", "0"],
     "x = -3e-13 and x = 0.0", "0.000000000000"),
], ids=["times", "range", "grid", "signed-zero"])
def test_csv_rows_that_print_the_same_exit_1(tmp_path, capsys, monkeypatch, args, pair, printed):
    monkeypatch.setattr(cli, "run_scenario", _no_work)
    monkeypatch.setattr(cli, "distribution_dataset", _no_work)
    out = tmp_path / "x.csv"
    assert main([*args, "--output", str(out)]) == 1
    assert (f"{pair} print as the same number, {printed}, in the CSV's 12-decimal (%.12f) column"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("times,output", [
    ("1e-13,2e-13,4e-13", "x.svg"),  # a plot prints no 12-decimal column
    ("0.4e-12,1.6e-12", "x.csv"),  # under 2e-12 apart, yet printed as ...000 and ...002
])
def test_close_abscissa_that_prints_distinctly_runs(tmp_path, times, output):
    out = tmp_path / output
    assert main(["entropy-curve", "--times", times, "--output", str(out)]) == 0
    if output.endswith(".csv"):
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.000000000000", "0.000000000002"]


@pytest.mark.parametrize("subcommand", ["entropy-curve", "distributions"])
def test_run_builds_its_initial_state_once(tmp_path, monkeypatch, subcommand):
    calls = []

    def counting_build(*args):
        calls.append(args)
        return build_initial(*args)

    # Every module of the package that holds the name, so no call can bypass the count.
    for module in list(sys.modules.values()):
        if module.__name__.startswith("dirac_decoherence") and hasattr(module, "build_initial"):
            monkeypatch.setattr(module, "build_initial", counting_build)
    assert main([subcommand, "--t-end", "0.5", "--output", str(tmp_path / "x.csv")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("args,key", [
    (["--mass", "nan"], "mass"),
    (["--mass", "inf"], "mass"),
    (["--width", "nan"], "width"),
    (["--center", "nan"], "center"),
    (["--spinor-a=nan,0"], "spinor_a"),
    (["--grid-l", "nan"], "grid_l"),
    (["--t-step", "inf"], "t_step"),
    (["--times", "nan"], "times"),
    (["--t-end", "inf"], "t_end"),
])
def test_non_finite_value_exits_1_and_writes_nothing(tmp_path, capsys, args, key):
    out = tmp_path / "x.csv"
    assert main(["entropy-curve", *args, "--output", str(out)]) == 1
    assert f"bad value for {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", [["--times", ","], ["--times", ""], ["--times="], "config"],
                         ids=["comma", "empty", "equals", "config"])
def test_empty_time_list_rejected(tmp_path, capsys, source):
    if source == "config":
        (tmp_path / "run.cfg").write_text("times = \n")
        source = ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "x.csv"
    assert main(["entropy-curve", "--t-end", "0.02", *source, "--output", str(out)]) == 1
    assert "bad value for 'times'" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_value_in_config_file_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spinor_b = 0,-inf\n")
    out = tmp_path / "x.csv"
    assert main(["entropy-curve", "--config", str(cfg), "--output", str(out)]) == 1
    assert "bad value for 'spinor_b'" in capsys.readouterr().err
    assert not out.exists()


def test_missing_subcommand_exit_code(capsys):
    assert main([]) == 1
    assert "required: subcommand" in capsys.readouterr().err


def test_unwritable_output_exit_code(capsys):
    status = main(["entropy-curve", "--t-end", "0.1", "--t-step", "0.1",
                   "--output", "/nonexistent-dir/x.csv"])
    assert status == 2


@pytest.mark.parametrize("target,exc,status,line", [
    ("uniform_times", MemoryError("Unable to allocate 7.28 TiB"), 1, "error: Unable to allocate 7.28 TiB"),
    ("run_scenario", MemoryError(), 2, "error: MemoryError"),
], ids=["before-run", "after-run"])
def test_memory_error_prints_one_line(tmp_path, capsys, monkeypatch, target, exc, status, line):
    # Raised by hand: whether the host refuses a huge allocation depends on its overcommit policy.
    def refuse(*args):
        raise exc

    monkeypatch.setattr(cli, target, refuse)
    out = tmp_path / "x.csv"
    assert main(["entropy-curve", "--t-end", "0.1", "--t-step", "0.1", "--output", str(out)]) == status
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


def test_successive_calls_share_no_values(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()  # built once, so the calls below share it
    assert main(["entropy-curve", "--mass", "2", "--dump-config"]) == 0
    assert "mass = 2.0\n" in capsys.readouterr().out
    assert main(["entropy-curve", "--dump-config"]) == 0
    assert "mass = 1.0\n" in capsys.readouterr().out
    assert main(["entropy-curve", "--no-such-flag", "1"]) == 1
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    out = tmp_path / "x.csv"
    assert main(["entropy-curve", "--t-end", "0.1", "--t-step", "0.1", "--output", str(out)]) == 0
    assert out.read_text().startswith("t,S_bits,")
