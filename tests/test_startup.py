"""Start-up stays lean: no suite loads scipy, the spline kernel included."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ncgauge import heisenberg
from ncgauge.cli import parse_theta

ROOT = Path(__file__).resolve().parents[1]

THETA = "1/2,1/2,5"
SHIFT = 0.37  # an irrational-looking translation, so evaluate must interpolate

SUITES = [
    ["pell", "--delta", "5"],
    ["stabilizer", "--theta", THETA],
    ["torus-check", "--theta", THETA],
    ["monopole", "--theta", THETA],
    ["cohomology", "--builtin", "jet:3"],
    ["heisenberg-verify", "--theta", THETA, "--grid", "12,1024,8", "--grades", "3"],
]

CHILD = f"""
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import ncgauge.cli as cli
codes = []
for argv in {SUITES!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
after_suites = scipy_modules()

from ncgauge import heisenberg as G
grid = G.GridSpec()
f = G.gaussian(cli.parse_theta({THETA!r}), grid, 1, center=0.3)
vals = f.evaluate(grid.xs - {SHIFT!r}, 0)
print(json.dumps({{
    "codes": codes,
    "after_suites": after_suites,
    "after_evaluate": scipy_modules(),
    "values": vals.tobytes().hex(),
}}))
"""


def run_child() -> dict:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_suite_loads_scipy():
    child = run_child()
    assert child["codes"] == [0] * len(SUITES)
    assert child["after_suites"] == []
    # a spline read loads nothing either, and its values match this process's
    assert child["after_evaluate"] == []
    grid = heisenberg.GridSpec()
    f = heisenberg.gaussian(parse_theta(THETA), grid, 1, center=0.3)
    expected = f.evaluate(grid.xs - SHIFT, 0)
    assert np.any(expected != 0)
    assert child["values"] == expected.tobytes().hex()
