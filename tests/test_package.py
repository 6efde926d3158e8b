"""The package's public names and the README's API example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mirrorcrit

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    # a stale entry would make `from mirrorcrit import *` raise
    missing = [name for name in mirrorcrit.__all__ if not hasattr(mirrorcrit, name)]
    assert missing == []
    assert len(set(mirrorcrit.__all__)) == len(mirrorcrit.__all__)


def test_readme_api_example_prints_its_comments():
    # the example runs from the repository root, as the README shows it,
    # and prints the line each `print` call's comment names
    readme = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    expected = re.findall(r"^print\(.*#\s*(.+)$", code, re.M)
    assert expected == ["Z/8", "Z/2", "True"]
    env = dict(os.environ, PYTHONPATH=str(Path(mirrorcrit.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == expected


def test_readme_gating_table_is_the_verdict_table():
    # the README's table of verdicts and the hypotheses each needs, row
    # for row, names and hypotheses both, against the table the
    # pipeline walks
    from mirrorcrit.factorization import VERDICTS

    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Hypotheses and gating", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", section, re.M)
    table = [
        (name, () if needs == "none" else tuple(re.findall(r"`(\w+)`", needs)))
        for name, needs in rows
    ]
    assert len(table) == 20
    assert table == [(name, tuple(hypotheses)) for name, hypotheses, _ in VERDICTS]


def test_readme_class_names_exist():
    # every CamelCase name in a backticked span of the README is a name
    # of the package, of one of its modules, or a builtin, so a renamed
    # or deleted class cannot stay in the documentation
    import builtins
    import importlib
    import pkgutil

    readme = (ROOT / "README.md").read_text()
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    names = {name for span in spans for name in re.findall(r"\b[A-Z][a-z0-9]+[A-Z]\w*", span)}
    assert {"SymmetryMaps", "FpAbelianGroup", "ValueError"} <= names
    namespaces = [builtins, mirrorcrit] + [
        importlib.import_module(f"mirrorcrit.{info.name}")
        for info in pkgutil.iter_modules(mirrorcrit.__path__)
    ]
    missing = sorted(name for name in names if not any(hasattr(ns, name) for ns in namespaces))
    assert missing == []
