"""The README quick start and the demo scripts run as written.

Each runs in its own interpreter with ``src/`` first on the path, so a
rename in the package that the docs were not updated for fails here.  The
five interpreters start together, so the module takes about as long as the
slowest script (demo 04) rather than the sum of all five.
"""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEMOS = sorted(name for name in os.listdir(os.path.join(_REPO, "demos"))
                if re.fullmatch(r"0[1-4]_\w+\.py", name))
_QUICK_START = "README quick start"


def _quick_start():
    with open(os.path.join(_REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    match = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S)
    assert match, "README has no python block under '## Quick start'"
    return match.group(1)


@pytest.fixture(scope="module")
def runs():
    """{script: (returncode, stdout, stderr)} for the quick start and each demo."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_REPO, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    scripts = {_QUICK_START: ["-c", _quick_start()]}
    scripts.update((name, [os.path.join("demos", name)]) for name in _DEMOS)
    procs = {name: subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True, cwd=_REPO, env=env)
             for name, args in scripts.items()}
    out = {}
    try:
        for name, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=120)
            out[name] = (proc.returncode, stdout, stderr)
    finally:
        for proc in procs.values():
            proc.kill()  # a no-op on the ones that finished
    return out


def test_readme_quick_start_prints_two_pairs(runs):
    code, stdout, stderr = runs[_QUICK_START]
    assert code == 0, stderr
    assert stderr == ""
    rows = np.array([[float(x) for x in re.findall(r"-?\d+\.\d+(?:e[-+]\d+)?", line)]
                     for line in stdout.strip().splitlines()])
    assert rows.shape == (2, 2)
    # the scene's sources, to within the u-grid spacing of 2/79
    want = np.array([[-0.55, 0.23], [0.12, -0.61]])
    assert np.abs(rows[np.argsort(rows[:, 0])] - want).max() < 2 / 79


def test_all_four_demos_are_found():
    assert [name[:2] for name in _DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("name", _DEMOS)
def test_demo_runs(runs, name):
    code, stdout, stderr = runs[name]
    assert code == 0, stderr
    assert stderr == ""
    assert stdout.strip()
