"""The package surface: its export list and the README's library example."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import siegelps

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_matches_namespace():
    names = siegelps.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(siegelps, name)] == []
    star: dict = {}
    exec("from siegelps import *", star)
    assert set(names) <= set(star)
    public = {name for name, value in vars(siegelps).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(public - set(names)) == []


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_runtime_imports_are_stdlib_numpy_or_scipy():
    # the package needs nothing at run time beyond numpy and scipy
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    for path in sorted(Path(siegelps.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert roots <= allowed, f"{path.name}:{node.lineno} imports {roots - allowed}"


def test_import_loads_no_scipy_integrate():
    # in a fresh interpreter, since this session imports scipy.integrate itself
    code = ("import sys, siegelps; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.optimize'))))")
    path = os.pathsep.join([str(Path(siegelps.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == "[]"
