import re
import types
from pathlib import Path

import pytest

import dirac_decoherence

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTED = {
    "Grid1D", "InitialSpec", "make_gaussian_packet", "evolve", "reduce", "entropy_bits",
    "ScenarioConfig", "run_scenario", "FIGURES", "BACKEND_NAME",
}


def test_readme_library_example_runs(capsys):
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert float(capsys.readouterr().out) == pytest.approx(0.7539130612, abs=1e-10)


def test_top_level_exports_only_the_readme_names():
    public = {name for name, value in vars(dirac_decoherence).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTED
    assert isinstance(dirac_decoherence.__version__, str)
