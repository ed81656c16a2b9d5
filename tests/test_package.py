"""The package surface: its export list and the README's library example."""

import inspect
import re
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
