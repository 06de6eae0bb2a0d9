"""Which scipy modules a command loads, seen from a fresh interpreter, and
that importing the package loads no thread pool.

The test modules import scipy themselves as an oracle, so the check runs
in a subprocess that imports only ultraloc and drives its CLI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultraloc

SCRIPT = r"""
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import ultraloc, ultraloc.cli
loaded = {"import": scipy_modules(), "pool at import": "concurrent.futures" in sys.modules}
out = Path(sys.argv[1])
ini = out / "tiny.ini"
ini.write_text(
    "[waveform]\nburst_bits = 8\n[placement]\npopulation = 6\nparents = 4\n"
    "iterations = 2\n[run]\ntrials = 2\nsnr_list = 0, 20\ndomain_grid = 1.0\n"
    "trajectory_waypoints = 2\nfix_spacing = 0.5\n"
)
for command in ("simulate", "sweep", "trajectory", "rangetest", "dopmap"):
    code = ultraloc.cli.main([command, "--config", str(ini), "--out", str(out / command)])
    loaded[command] = [code, scipy_modules()]
code = ultraloc.cli.main(["optimize", "--config", str(ini), "--out", str(out / "optimize")])
loaded["optimize"] = [code, scipy_modules()]
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """scipy modules present after the import and after each command, in order."""
    src = str(Path(ultraloc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path_factory.mktemp("imports"))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy(loaded):
    assert loaded["import"] == []


def test_import_loads_no_thread_pool(loaded):
    # only the trial commands run one, and its import loads logging
    assert loaded["pool at import"] is False


@pytest.mark.parametrize("command", ["simulate", "sweep", "trajectory", "rangetest", "dopmap"])
def test_commands_without_a_search_load_no_scipy(loaded, command):
    assert loaded[command] == [0, []]


def test_optimize_loads_the_k_d_tree(loaded):
    code, modules = loaded["optimize"]
    assert code == 0
    assert "scipy.spatial" in modules
