import ast
import re
import types
from pathlib import Path

import pytest

import dirac_decoherence

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dirac_decoherence"

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


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    # __init__.py imports to re-export, and a __future__ import is a compiler switch.
    tree = ast.parse((PACKAGE / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"{module} imports {sorted(imported - used)} and never uses them"
