import math
import subprocess
import sys

import numpy as np
import pytest

from dirac_decoherence import cli
from dirac_decoherence.cli import (
    CliConfig,
    dump_config,
    main,
    parse_config,
    read_config_file,
    write_csv,
    write_svg_plot,
)
from dirac_decoherence.experiments import figure1


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
        read_config_file(str(path))


def test_malformed_number_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mass = heavy\n")
    with pytest.raises(ValueError, match="mass"):
        read_config_file(str(path))


def test_dump_config_round_trip(tmp_path):
    cfg, _ = parse_config(["entropy-curve", "--mass", "2", "--spinor-a", "0,1", "--times", "0,0.5,1"])
    path = tmp_path / "dumped.cfg"
    path.write_text(dump_config(cfg))
    reparsed, _ = parse_config(["entropy-curve", "--config", str(path)])
    assert reparsed == cfg


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


def test_figure_svg_output(tmp_path):
    out = tmp_path / "fig1.svg"
    status = main(["figure", "--id", "fig1", "--output", str(out), "--format", "svg"])
    assert status == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    assert text.count("<path") == 3
    for label in ("m=0", "m=1", "m=2"):
        assert label in text


def test_figure_svg_writes_insets(tmp_path):
    out = tmp_path / "fig4.svg"
    status = main(["figure", "--id", "fig4", "--output", str(out), "--format", "svg"])
    assert status == 0
    for t in ("0.5", "1", "1.5", "2"):
        text = (tmp_path / f"fig4_inset_t{t}.svg").read_text()
        assert text.startswith("<?xml")
        assert f"fig4_inset_t{t}</text>" in text
        assert "prob_minus" in text and "prob_plus" in text
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value", [("grid_l", "10"), ("grid_n", "2048")])
def test_figure_rejects_other_grid(tmp_path, capsys, source, key, value):
    out = tmp_path / "fig1.csv"
    if source == "flag":
        extra = [f"--{key.replace('_', '-')}", value]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        extra = ["--config", str(path)]
    status = main(["figure", "--id", "fig1", "--output", str(out), *extra])
    assert status == 1
    assert "figure datasets are defined on the grid L = 20, N = 1024" in capsys.readouterr().err
    assert not out.exists()


def test_figure2_svg_has_two_series(tmp_path):
    out = tmp_path / "fig2.svg"
    main(["figure", "--id", "fig2", "--output", str(out), "--format", "svg"])
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


def test_svg_determinism(tmp_path):
    ds = figure1(masses=(1.0,))
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


def test_validate_flipped_sign_fails(capsys):
    status = cli.validate(flip_mass_sign=True)
    out = capsys.readouterr().out
    assert status == 1
    assert "engine-cross-check" in out
    assert "FAIL" in out


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


def test_step_not_dividing_range_exit_code(tmp_path, capsys):
    status = main(["entropy-curve", "--t-end", "1", "--t-step", "0.3",
                   "--output", str(tmp_path / "x.csv")])
    assert status == 1
    assert "t_step = 0.3 does not divide [0.0, 1.0]" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_kernel_evolve_rejects_non_commensurate_time(tmp_path, capsys):
    # t / dx = 25.6 at the default grid (dx = 0.0390625): 26 cells is nearest.
    status = main(["evolve", "--engine", "kernel", "--t-end", "1",
                   "--output", str(tmp_path / "x.csv")])
    assert status != 0
    assert "nearest commensurate value is 1.015625" in capsys.readouterr().err


def test_unwritable_output_exit_code(capsys):
    status = main(["entropy-curve", "--t-end", "0.1", "--t-step", "0.1",
                   "--output", "/nonexistent-dir/x.csv"])
    assert status == 2
