"""Start-up stays lean: each suite loads only the layers it runs.

`import ncgauge.cli` loads the package, the CLI and `quadfield`, and no
numpy.  `pell`, `stabilizer` and `monopole` run without numpy,
`heisenberg` or `hopf`; `torus-check` without `heisenberg` or `hopf`;
`heisenberg-verify` without `hopf`; `cohomology` without `heisenberg`,
`gauge` or `torus`.  No suite loads scipy, the spline kernel included.
Each check runs in a child interpreter, whose modules this process's
imports do not blur.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncgauge
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

# Runs the suites given as JSON in argv[1], one after another, and prints
# the exit codes and, after the import and after each suite, the loaded
# ncgauge modules and whether numpy is loaded.
STEPS = """
import contextlib, io, json, sys

def loaded():
    names = sorted(m for m in sys.modules if m == "ncgauge" or m.startswith("ncgauge."))
    return {"ncgauge": names, "numpy": "numpy" in sys.modules}

import ncgauge.cli as cli
steps = [loaded()]
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    steps.append(loaded())
print(json.dumps({"codes": codes, "steps": steps}))
"""


def run_child(code: str = CHILD, *args: str) -> dict:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
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


def layers_after(suites: list) -> list:
    """(layers, numpy loaded) after `import ncgauge.cli` and after each suite,
    run in that order in one child; every suite must exit 0."""
    child = run_child(STEPS, json.dumps(suites))
    assert child["codes"] == [0] * len(suites)
    return [({m.removeprefix("ncgauge.") for m in step["ncgauge"]}, step["numpy"])
            for step in child["steps"]]


def suite(name: str) -> list:
    return next(argv for argv in SUITES if argv[0] == name)


def test_each_suite_loads_only_the_layers_it_runs():
    names = ["pell", "stabilizer", "monopole", "torus-check", "heisenberg-verify"]
    imported, *after = layers_after([suite(name) for name in names])
    assert imported == ({"ncgauge", "cli", "quadfield"}, False)
    steps = dict(zip(names, after))
    for name in ("pell", "stabilizer", "monopole"):
        layers, numpy = steps[name]
        assert not numpy and not layers & {"heisenberg", "hopf"}, name
    assert not steps["torus-check"][0] & {"heisenberg", "hopf"}
    assert "hopf" not in steps["heisenberg-verify"][0]


def test_cohomology_loads_no_torus_layer():
    imported, (layers, _) = layers_after([suite("cohomology")])
    assert imported == ({"ncgauge", "cli", "quadfield"}, False)
    assert "hopf" in layers and not layers & {"heisenberg", "gauge", "torus"}


@pytest.mark.parametrize("name", ncgauge.__all__)
def test_every_public_name_resolves_to_its_layer(name):
    value = getattr(ncgauge, name)
    assert value is getattr(getattr(ncgauge, ncgauge._HOME[name]), name)
    assert name in dir(ncgauge)
    # looked up on every read, so a rebinding in the layer shows through
    assert name not in vars(ncgauge)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        ncgauge.nonexistent
    assert not hasattr(ncgauge, "_maxabs")
