"""Output checks for every ncgauge CLI report, independent of ncgauge.

The checks judge a report by exit code, verdict and mathematics worked
out here; tolerances stay in the CLI.  The one check that calls ncgauge,
`check_products`, computes fixed graded products and compares their norms
with values committed in `reference_products.json`, since no CLI suite
would notice a product kernel that returned zeros.

Each check returns an `Outcome`:

- "ok": exit code, verdict and oracle all agree with the expected result;
- "failed": the CLI did not deliver the expected verdict (a non-zero exit
  or `pass: false`) but said so consistently;
- "wrong": the CLI claimed success and the oracle contradicts it.

Both "failed" and "wrong" count as failed invocations; only "wrong" makes a
run incorrect.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference_cohomology.json")
PRODUCTS_PATH = Path(__file__).with_name("reference_products.json")
PRODUCTS_RTOL = 1e-6


@dataclass(frozen=True)
class Outcome:
    status: str  # "ok" | "failed" | "wrong"
    reason: str = ""
    skipped_checks: int = 0

    @property
    def is_failure(self) -> bool:
        return self.status != "ok"


OK = Outcome("ok")


def failed(reason: str) -> Outcome:
    return Outcome("failed", reason)


def wrong(reason: str) -> Outcome:
    return Outcome("wrong", reason)


def flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


# -- pell ------------------------------------------------------------------------


def pell_minimal(delta: int) -> tuple[int, int]:
    """Smallest (u, v), u, v > 0, with u^2 - delta v^2 = 4.

    Continued fraction of the reduced generator w = (b + sqrt(delta))/2 of
    the order of discriminant delta: the product of the complete quotients
    over one period is the fundamental unit; square it when its norm is -1.
    Complete quotients are kept as (P + sqrt(delta))/Q with exact integers.
    """
    root = isqrt(delta)
    if delta <= 4 or root * root == delta or delta % 4 not in (0, 1):
        raise ValueError(f"{delta} is not a non-square discriminant")
    b = root if (root - delta) % 2 == 0 else root - 1
    P, Q = b, 2
    x, y = Fraction(1), Fraction(0)  # running product x + y sqrt(delta)
    period = 0
    while True:
        a = (P + root) // Q
        x, y = (x * P + y * delta) / Q, (x + y * P) / Q
        P = a * Q - P
        Q = (delta - P * P) // Q
        period += 1
        if (P, Q) == (b, 2):
            break
    if period % 2:  # norm -1: the norm-positive unit is the square
        x, y = x * x + delta * y * y, 2 * x * y
    u, v = 2 * x, 2 * y
    if u.denominator != 1 or v.denominator != 1:
        raise ArithmeticError(f"non-integral unit for delta = {delta}")
    return int(u), int(v)


def check_pell(argv, code, report) -> Outcome:
    delta = int(flag(argv, "--delta"))
    if code != 0:
        return failed(f"exit {code} on valid discriminant {delta}")
    u, v = report.get("u"), report.get("v")
    if not (isinstance(u, int) and isinstance(v, int) and u > 0 and v > 0):
        return wrong(f"(u, v) = ({u!r}, {v!r}) is not a pair of positive integers")
    if u * u - delta * v * v != 4:
        return wrong(f"u^2 - {delta} v^2 != 4 for (u, v) = ({u}, {v})")
    expected = pell_minimal(delta)
    if (u, v) != expected:
        return wrong(f"(u, v) = ({u}, {v}) is not minimal; expected {expected}")
    return OK


# -- boolean suites ----------------------------------------------------------------


def _verdict(code, passed: bool, what: str) -> Outcome | None:
    """Outcome of a suite whose identities are true: exit 0 and a pass."""
    if code != 0 or not passed:
        return failed(f"{what}: exit {code}, verdict {passed!r}")
    return None


def check_stabilizer(argv, code, report) -> Outcome:
    checks = report.get("checks", {})
    bad = [k for k, v in checks.items() if v is not True]
    if code != 0:
        return failed(f"stabilizer: exit {code}, false checks {bad}")
    if bad or len(checks) != 3:
        return wrong(f"stabilizer: exit 0 with checks {checks}")
    return OK


def check_torus(argv, code, report) -> Outcome:
    return _verdict(code, report.get("pass") is True, "torus-check") or OK


def check_monopole(argv, code, report) -> Outcome:
    verdict = _verdict(code, report.get("sweep_consistent") is True, "monopole")
    if verdict:
        return verdict
    tokens = [t.strip() for t in flag(argv, "--q-sweep").split(",") if t.strip()]
    rows = report.get("q_sweep", [])
    if len(rows) != len(tokens):
        return wrong(f"{len(rows)} sweep rows for {len(tokens)} tokens")
    for tok, row in zip(tokens, rows):
        # adapted exactly at q = eps^2, relatively adapted exactly at q = eps
        if row["adapted"] != (tok == "eps^2") or row["relative_adapted"] != (tok == "eps"):
            return wrong(f"q = {tok}: adapted {row['adapted']}, relative {row['relative_adapted']}")
    return OK


def check_heisenberg(argv, code, report) -> Outcome:
    passed = report.get("pass") is True and not report.get("failures")
    return _verdict(code, passed, "heisenberg-verify") or OK


# -- graded products -------------------------------------------------------------------


def product_norms() -> dict:
    """Norms of fixed graded products on each shipped theta at the default grid.

    The pairs reach both product kernels: grades (1, 1) land in _pair_to_heis,
    (1, -1) and (-1, 1) in _pair_to_torus, (0, 1) and (1, 0) in the torus
    actions.
    """
    import numpy as np
    from ncgauge import cli, heisenberg as G, torus
    from workloads import THETAS

    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", G.TruncationWarning)
        for name, theta in THETAS.items():
            ctx = cli.parse_theta(theta)
            grid = G.GridSpec(L=12.0, N=1024, J=8)
            rng = np.random.default_rng(1)
            t = torus.TorusElement(ctx.theta_float, {(1, 0): 0.8, (0, 1): -0.4j})
            parts = {
                0: G.GradedElement.from_torus(t, ctx, grid),
                1: G.GradedElement.from_heis(G.random_packet(ctx, grid, 1, rng)),
                -1: G.GradedElement.from_heis(G.random_packet(ctx, grid, -1, rng)),
            }
            out[name] = {f"{a},{b}": G.mul_P(parts[a], parts[b]).norm()
                         for a, b in ((1, 1), (1, -1), (-1, 1), (0, 1), (1, 0))}
    return out


def check_products() -> Outcome:
    expected = json.loads(PRODUCTS_PATH.read_text())
    got = product_norms()
    bad = [f"{theta} ({pair}): norm {got[theta][pair]:.12g}, reference {ref:.12g}"
           for theta, pairs in expected.items() for pair, ref in pairs.items()
           if not abs(got[theta][pair] - ref) <= PRODUCTS_RTOL * ref]
    return wrong("; ".join(bad)) if bad else OK


# -- cohomology ----------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _integer_fields(report) -> dict:
    """The timing-free integer and boolean fields of a cohomology report."""
    return {k: report.get(k) for k in ("dim_H", "dim_B", "pass", "hochschild")}


def check_cohomology(argv, code, report, reference: dict) -> Outcome:
    name = flag(argv, "--builtin")
    skipped = 1 if report and "op" not in report else 0
    verdict = _verdict(code, report.get("pass") is True and not report.get("failures"),
                       f"cohomology {name}")
    if verdict:
        return Outcome(verdict.status, verdict.reason, skipped)
    bad = []
    hh = report["hochschild"]
    if (hh["dim_Z"], hh["dim_B"]) != (hh["brute_force_Z"], hh["brute_force_B"]):
        bad.append(f"Z/B dims {hh['dim_Z']}/{hh['dim_B']} disagree with the enumerator "
                   f"{hh['brute_force_Z']}/{hh['brute_force_B']}")
    got = _integer_fields(report)
    if got != reference[name]:
        bad.append(f"fields {got} differ from the reference {reference[name]}")
    if bad:
        return Outcome("wrong", "; ".join(bad), skipped)
    return Outcome("ok", "", skipped)


def check(argv, code, stdout: str, reference: dict) -> Outcome:
    """Outcome of one CLI invocation from its argv, exit code and stdout."""
    try:
        report = json.loads(stdout) if stdout.strip() else {}
    except json.JSONDecodeError:
        return wrong("stdout is not a JSON report")
    command = argv[0]
    checker = {
        "pell": check_pell,
        "stabilizer": check_stabilizer,
        "torus-check": check_torus,
        "monopole": check_monopole,
        "heisenberg-verify": check_heisenberg,
        "cohomology": lambda a, c, r: check_cohomology(a, c, r, reference),
    }[command]
    try:
        return checker(argv, code, report)
    except (KeyError, TypeError, ValueError) as exc:
        return wrong(f"malformed {command} report: {exc!r}")
