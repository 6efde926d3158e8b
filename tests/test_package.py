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
