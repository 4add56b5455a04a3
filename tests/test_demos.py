import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(script, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run a copy, so files a demo writes next to itself land in tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    run_script(script, tmp_path)


def test_readme_tour_runs(tmp_path):
    # the README's "Library tour" python block, as a script of its own
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    script = tmp_path / "tour.py"
    script.write_text(tour.split("```python\n", 1)[1].split("```", 1)[0])
    run_script(script, tmp_path)
