"""Pinned reports of three exact suites.

`pell` and `stabilizer` print integers, exact booleans and floats that are
correctly rounded (`math.sqrt` and int / int division), so their stdout is
the same on every platform.  `monopole` prints exact verdicts and floats
from IEEE sqrt, division and products only.  The digests below were taken
from the reports of the Fraction-pair field layer (`monopole` from those of
the two-path adaptedness tests, with a float branch for [m]_q q^-m); a
change to the exact layers must keep them byte for byte, exit codes
included.  `torus-check` goes through `cmath.exp` and is not pinned.
"""

import hashlib
from math import isqrt

from ncgauge.cli import main

THETAS = ("1/2,1/2,5", "0,1,2", "1,1,3")  # golden, sqrt2, 1+sqrt3


def discriminants(lo: int = 5, hi: int = 200) -> list[int]:
    """Every non-square D with lo <= D < hi and D = 0 or 1 mod 4."""
    return [d for d in range(lo, hi) if d % 4 in (0, 1) and isqrt(d) ** 2 != d]


def digest(capsys, invocations) -> str:
    """sha256 over the command line, exit code and stdout of each invocation."""
    h = hashlib.sha256()
    for argv in invocations:
        code = main(argv)
        out = capsys.readouterr().out
        h.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    return h.hexdigest()


def test_pell_on_85_discriminants(capsys):
    deltas = discriminants()
    assert len(deltas) == 85
    got = digest(capsys, [["pell", "--delta", str(d)] for d in deltas])
    assert got == PELL_SHA256


def test_stabilizer_grade_20_on_three_thetas(capsys):
    got = digest(capsys, [["stabilizer", "--theta", t, "--grades", "20"] for t in THETAS])
    assert got == STABILIZER_SHA256


def test_monopole_default_sweep(capsys):
    # the default sweep at grade 12 on three thetas, factorization ratios
    # beyond the float range on sqrt 109 (eps = 3.2e14), and grade 24 on sqrt2
    runs = [["monopole", "--theta", t, "--grades", "12"] for t in THETAS]
    runs += [["monopole", "--theta", "0,1,109", "--grades", "11"],
             ["monopole", "--theta", "0,1,2", "--grades", "24"]]
    assert digest(capsys, runs) == MONOPOLE_SHA256


PELL_SHA256 = "feec014563aa140171be892361f9d84629c559ddde3b42264c28f5b517df9780"
STABILIZER_SHA256 = "c6365a24a5c61110c834efba5ed4a695e9145dbc74bd85c0d43e1c7275a20214"
MONOPOLE_SHA256 = "8e1f4c70a29ec9d862d7f7c2c95d4540a64733c50ffa3d015e1a06399ac42526"
