"""The README's demo scripts run end to end."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import blochsynth

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_readme_lists_every_demo():
    listed = set(re.findall(r"demos/(\w+\.py)", (ROOT / "README.md").read_text()))
    assert sorted(listed) == [path.name for path in DEMOS] and len(DEMOS) == 4


def test_the_readme_api_table_names_exported_names():
    text = (ROOT / "README.md").read_text()
    table = text[text.index("The main entry points"):].split("\n\n")[1]
    names = re.findall(r"`([^`]+)`", table)
    assert len(names) > 40
    missing = [name for name in names
               if not hasattr(blochsynth, name) or name not in blochsynth.__all__]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # the child imports the very package under test, as acceptance test 10 does
    package_root = str(Path(blochsynth.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout.strip()
