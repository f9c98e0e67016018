"""Command-line front end: verification suites and machine-readable reports.

Subcommands: pell, stabilizer, torus-check, heisenberg-verify, monopole,
cohomology.  JSON is the canonical output; pretty tables and csv are
derived from it.  Exit codes, set by `verdict` from the suite's checks:
0 every check holds, 1 a check fails, 2 configuration error.

Only the standard library and `quadfield` load with this module; each
suite imports the layers it runs and calls their functions through the
module (`heisenberg.mul_P`), so `pell`, `stabilizer` and `monopole` run
without numpy and no suite but `cohomology` loads `hopf`.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import os
import resource
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from . import quadfield
from .quadfield import FieldElement, NonQuadratic, ThetaContext

DEFAULT_SEED = 0xA17E


class ConfigError(Exception):
    pass


# -- argument plumbing ---------------------------------------------------------


def _integer(minimum: int, base: int = 10):
    """argparse type: an integer of at least `minimum`, in `base` (0 reads
    a 0x, 0o or 0b prefix)."""
    def integer(text: str) -> int:
        if int(text, base) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text, base)
    return integer


def tolerance(text: str) -> float:
    """argparse type: a finite float >= 0."""
    if not 0 <= float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return float(text)


def parse_theta(text: str) -> ThetaContext:
    try:
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError("theta needs p,q,d")
        p, q = Fraction(parts[0]), Fraction(parts[1])
        d = int(parts[2])
        return ThetaContext.from_rational(p, q, d)
    except (ValueError, ZeroDivisionError, NonQuadratic) as exc:
        raise ConfigError(f"invalid --theta {text!r}: {exc}") from exc


def parse_grid(text: str, tol: float) -> heisenberg.GridSpec:
    from . import heisenberg

    try:
        parts = text.split(",")
        if len(parts) > 3:
            raise ValueError("a grid is at most three fields, L,N,J")
        # the fields not given keep GridSpec's defaults
        given = dict(zip(("L", "N", "J"), (float(parts[0]), *map(int, parts[1:]))))
        return heisenberg.GridSpec(**given, tol=tol)
    except ValueError as exc:
        raise ConfigError(f"invalid --grid {text!r}: {exc}") from exc


def parse_q_token(tok: str, ctx: ThetaContext):
    """Sweep tokens: 1, 2, 1/2, eps, eps^-1, eps^2, ... or a float.

    A power of eps is exactly eps or eps^k with k an integer.  q must be
    non-zero and have a finite float value: nan, inf and exact values
    beyond the float range (1e400, eps^2000) are configuration errors.
    """
    tok = tok.strip()
    base, hat, power = tok.partition("^")
    if base == "eps":
        try:
            q = ctx.eps_pow(int(power) if hat else 1)
        except ValueError as exc:
            raise ConfigError(f"invalid q token {tok!r}") from exc
    else:
        try:
            q = FieldElement.of(Fraction(tok), 0, ctx.t.delta)
        except (ValueError, ZeroDivisionError):
            try:
                q = float(tok)
            except ValueError as exc:
                raise ConfigError(f"invalid q token {tok!r}") from exc
        if q == 0 or q == 0.0:
            raise ConfigError("q must be non-zero")
    try:
        finite = math.isfinite(float(q))
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"q token {tok!r} has no finite float value")
    return q


def load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path!r} holds a JSON {type(config).__name__}, not an object")
    if "command" in config:
        raise ConfigError(f"config {path!r} sets 'command'; name the subcommand on the command line")
    return config


def emit(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, default=_coerce)
    elif fmt == "csv":
        text = _to_csv(report)
    elif fmt == "pretty":
        text = _to_pretty(report)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out!r}: {exc}") from exc
    else:
        print(text)


def _coerce(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    # a numpy value can only reach a report once numpy is loaded
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if np is not None and isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _flatten(report, prefix=""):
    rows = []
    if isinstance(report, dict):
        for k, v in report.items():
            rows.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(report, list):
        for i, v in enumerate(report):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), report))
    return rows


def _to_csv(report) -> str:
    """key,value rows; a field that holds a comma, quote or newline is quoted."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("key", "value"))
    for key, val in _flatten(report):
        if isinstance(val, complex):
            val = f"{val.real}+{val.imag}j"
        writer.writerow((key, f"{val}"))
    return buf.getvalue().removesuffix("\n")


def _to_pretty(report) -> str:
    rows = _flatten(report)
    width = max(len(k) for k, _ in rows) if rows else 0
    lines = []
    for key, val in rows:
        if isinstance(val, float):
            val = f"{val:.6g}"
        lines.append(f"{key:<{width}}  {val}")
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------


def cmd_pell(args) -> tuple[dict, None]:
    try:
        unit = quadfield.pell_unit(args.delta)
    except NonQuadratic as exc:
        raise ConfigError(str(exc)) from exc
    report = {
        "delta": args.delta,
        "u": unit.u,
        "v": unit.v,
        "epsilon": quadfield.float_or_exact(unit.value),
        "epsilon_exact": f"({unit.u} + {unit.v}*sqrt({args.delta}))/2",
        "norm": str(quadfield.norm(unit.value)),
    }
    # the type triple (1, b, (b^2 - delta)/4) with b = delta mod 2 has
    # discriminant delta: theta = (b + sqrt(delta))/2
    b = args.delta % 2
    c = (b * b - args.delta) // 4
    t = quadfield.QuadraticIrrational(1, b, c)
    ctx = ThetaContext(t)
    g = ctx.power(1)
    report["theta"] = {"a": 1, "b": b, "c": c, "value": float(t)}
    report["phi"] = [[g.a, g.b], [g.c, g.d]]
    report["powers"] = {
        str(m): list(ctx.power(m).entries())
        for m in range(-args.grades, args.grades + 1)
    }
    return report, None


def cmd_stabilizer(args) -> tuple[dict, list]:
    ctx = parse_theta(args.theta)
    t = ctx.t
    report = {
        "theta": {"a": t.a, "b": t.b, "c": t.c, "delta": t.delta, "value": float(t)},
        "epsilon": {"u": ctx.unit.u, "v": ctx.unit.v, "value": quadfield.float_or_exact(ctx.eps)},
        "phi": list(ctx.power(1).entries()),
        "powers": {},
        "checks": {},
    }
    th = t.as_field_element()
    ok = True
    for m in range(-args.grades, args.grades + 1):
        p = ctx.power(m)
        report["powers"][str(m)] = [p.a, p.b, p.c, p.d]
        ok = ok and (p.acts_on(th) == th)
        ok = ok and (p.c * th + p.d == ctx.eps_pow(m))
    report["checks"]["stabilizes_theta"] = ok
    hom = all(
        ctx.power(m + n) == ctx.power(m) @ ctx.power(n)
        for m in range(-args.grades, args.grades + 1)
        for n in range(-args.grades, args.grades + 1)
    )
    report["checks"]["power_homomorphism"] = hom
    coc = all(
        FieldElement.of(ctx.c(m + n), 0, t.delta)
        == ctx.c(m) * ctx.eps_pow(-n) + ctx.eps_pow(m) * ctx.c(n)
        for m in range(-args.grades, args.grades + 1)
        for n in range(-args.grades, args.grades + 1)
    )
    report["checks"]["c_cocycle"] = coc
    return report, list(report["checks"].items())


def _worst(residuals) -> float:
    """Largest absolute residual (0.0 when there is none); a NaN residual
    gives NaN, so the worst-of check over it fails."""
    worst = max(map(abs, residuals), default=0.0)
    return math.nan if any(map(math.isnan, residuals)) else float(worst)


def cmd_torus_check(args) -> tuple[dict, list]:
    import numpy as np

    from . import torus

    ctx = parse_theta(args.theta)
    th = ctx.theta_float
    rng = np.random.default_rng(args.seed)
    tol = args.tol
    residuals = {}
    lam = cmath.exp(2j * math.pi * (th % 1.0))
    U, V = torus.TorusElement.U(th), torus.TorusElement.V(th)
    residuals["commutation"] = ((V * U) - (U * V) * lam).norm()
    samples = {"associativity": [], "star_antimultiplicative": [],
               "delta_leibniz": [], "d_squared": []}
    for _ in range(200):
        x = torus.random_sparse(th, rng)
        y = torus.random_sparse(th, rng)
        z = torus.random_sparse(th, rng)
        xy = x * y
        scale = max(x.norm() * y.norm() * z.norm(), 1.0)
        samples["associativity"].append((xy * z - x * (y * z)).norm() / scale)
        samples["star_antimultiplicative"].append(
            (torus.star(xy) - torus.star(y) * torus.star(x)).norm()
            / max(x.norm() * y.norm(), 1.0)
        )
        for j in (1, 2):
            samples["delta_leibniz"].append(
                (xy.delta(j) - (x.delta(j) * y + x * y.delta(j))).norm()
                / max(x.norm() * y.norm(), 1.0)
            )
        samples["d_squared"].append(torus.d_B1(torus.d_B(x)).norm() / max(x.norm(), 1.0))
    residuals.update((k, _worst(v)) for k, v in samples.items())
    vol = torus.wedge(torus.dtau1(th), torus.dtau2(th))
    residuals["dtau_wedge_vol"] = (vol.b - torus.TorusElement.one(th)).norm()
    report = {"theta": th, "tol": tol, "residuals": residuals}
    return report, [(f"{k}: {r:.2e}", r, tol) for k, r in residuals.items()]


# Sample arrays of one grade that the commutator eigenvalue table holds at
# once (tracemalloc peak: 4.0 to 4.1 arrays for sqrt2 at m = 3, 4, 5).  The
# finite difference of the second product, with f and the first product
# alive, sets the peak at 4; the inner products, one sum against the grid's
# weight vector, hold 3.  The estimate keeps one array above the peak.
COMMUTATOR_ARRAYS = 5


def memory_budget() -> int:
    """Bytes this process can use: the least of physical memory, the
    cgroup v2 memory limit and the address-space rlimit, where set."""
    limits = [os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")]
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limits.append(soft)
    try:
        cgroup = Path("/sys/fs/cgroup/memory.max").read_text().strip()
    except OSError:
        cgroup = "max"
    if cgroup.isdigit():
        limits.append(int(cgroup))
    return min(limits)


def require_memory(need: int, subject: str, what: str) -> None:
    """Exit 2 when `what`, the largest allocation of `subject`, exceeds `memory_budget()`."""
    budget = memory_budget()
    if need > budget:
        # a need beyond the float range (a grade of a unit beyond it) has no float
        size = (f"about {need / 2**30:.1f} GiB" if need < 2**1000
                else f"over 2^{need.bit_length() - 1} bytes")
        raise ConfigError(
            f"{subject} needs {size} for {what}; "
            f"this process can use {budget / 2**30:.1f} GiB"
        )


def commutator_table_bytes(ctx: ThetaContext, grid: heisenberg.GridSpec, M: int):
    """(bytes, grade) of the largest grade of the commutator table."""
    from . import heisenberg

    grades = [m for m in range(M, -M - 1, -1) if m != 0]
    m = max(grades, key=lambda m: heisenberg.sector_count(ctx, m))
    return COMMUTATOR_ARRAYS * heisenberg.sample_bytes(ctx, grid, m), m


@contextlib.contextmanager
def count_truncations(counts: dict, section: str):
    """Count the TruncationWarnings raised inside the block into counts[section].

    A window-clipped product marks the check it belongs to; it does not fail
    it.  Warnings of any other category are passed on unchanged.
    """
    from . import heisenberg

    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", heisenberg.TruncationWarning)
            yield
    finally:
        n = sum(issubclass(w.category, heisenberg.TruncationWarning) for w in caught)
        if n:
            counts[section] = n
        for w in caught:
            if not issubclass(w.category, heisenberg.TruncationWarning):
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def commutator_eigenvalue(ctx: ThetaContext, grid: heisenberg.GridSpec, m: int,
                          grid_text: str) -> complex:
    """<f, [partial_1, partial_2] f> / <f, f> on the grade-m Gaussian f of width 1.2.

    The arrays of the largest grade are the largest of a run; they are
    freed when this returns, not held through the sections that follow.
    """
    from . import heisenberg

    f = heisenberg.gaussian(ctx, grid, m, width=1.2)
    comm = f.delta(2).delta(1) - f.delta(1).delta(2)
    f_sq = f.inner(f)
    if f_sq == 0:
        raise ConfigError(f"--grid {grid_text!r} samples the grade {m} test vector as zero")
    return f.inner(comm) / f_sq


class ProductTable:
    """The graded products of parts that one run's checks share, each computed once.

    `table[a, b]` is mul_P(parts[a], parts[b]), computed on its first read
    together with the warnings it raised.  Every read raises those
    warnings, so a section that reads a shared product counts its
    truncations as though it had computed the product itself.
    """

    def __init__(self, parts: dict):
        self.parts = parts
        self._entries: dict = {}

    def __getitem__(self, key):
        from . import heisenberg

        if key not in self._entries:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                product = heisenberg.mul_P(*(self.parts[label] for label in key))
            self._entries[key] = product, caught
        product, caught = self._entries[key]
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return product


def cmd_heisenberg_verify(args) -> tuple[dict, list]:
    import numpy as np

    from . import gauge, heisenberg, torus

    ctx = parse_theta(args.theta)
    grid = parse_grid(args.grid, args.tol_grid)
    rng = np.random.default_rng(args.seed)
    tol = args.tol
    M = args.grades
    need, m_big = commutator_table_bytes(ctx, grid, M)
    sectors = heisenberg.sector_count(ctx, m_big)
    # a count of hundreds of digits (a unit beyond the float range) is named by its size
    sectors = sectors if sectors < 2**64 else f"over 2^{sectors.bit_length() - 1}"
    require_memory(need, f"--grades {M}", f"the commutator table ({COMMUTATOR_ARRAYS} arrays of "
                   f"{sectors} sectors x {grid.N} points at grade {m_big})")
    report = {
        "theta": ctx.theta_float,
        "epsilon": quadfield.float_or_exact(ctx.eps),
        "grid": {"L": grid.L, "N": grid.N, "J": grid.J},
        "tol": tol,
    }
    G = heisenberg
    checks = []
    truncations = {}
    try:
        with count_truncations(truncations, "commutator_eigenvalues"):
            # commutator eigenvalue table
            eig = {}
            for m in range(-M, M + 1):
                if m == 0:
                    continue
                measured = commutator_eigenvalue(ctx, grid, m, args.grid)
                expected = -1j * gauge.field_strength_eigenvalue(ctx, m)
                rel = abs(measured - expected) / abs(expected)
                eig[str(m)] = {
                    "measured_im": measured.imag,
                    "expected_im": expected.imag,
                    "rel_err": rel,
                }
                checks.append((f"twist3 at m={m}: {rel:.2e}", rel, tol))
            report["commutator_eigenvalues"] = eig

        with count_truncations(truncations, "right_module_relation"):
            # module laws
            f = G.random_packet(ctx, grid, 1, rng)
            lam = cmath.exp(2j * math.pi * ctx.theta_float)
            lhs = G.right_act("U", G.right_act("V", f))
            rhs = G.right_act("V", G.right_act("U", f)).scale(lam)
            mod = (lhs - rhs).norm() / max(f.norm(), 1e-30)
            report["right_module_relation"] = mod
            checks.append((f"module law: {mod:.2e}", mod, 10 * tol))

        with count_truncations(truncations, "twist1"):
            # twisted Leibniz on the required grade pairs
            parts = {
                0: G.GradedElement.from_torus(
                    torus.TorusElement(
                        ctx.theta_float, {(1, 0): 0.8, (0, 1): -0.4j}
                    ),
                    ctx,
                    grid,
                ),
                1: G.GradedElement.from_heis(G.random_packet(ctx, grid, 1, rng)),
                -1: G.GradedElement.from_heis(G.random_packet(ctx, grid, -1, rng)),
            }
            pairs = [(0, 1), (1, 0), (1, 1), (-1, 1)]
            triples = [(1, 1, -1), (1, -1, 1), (0, 1, 1)]
            products = ProductTable(parts)
            norms = {m: part.norm() for m, part in parts.items()}
            derived = {(j, m): G.partial(j, part) for m, part in parts.items() for j in (1, 2)}
            twisted = {b: G.sigma(parts[b]) for _, b in pairs}
            tw1 = {}
            for a, b in pairs:
                pq = products[a, b]
                res = []
                for j in (1, 2):
                    lhs = G.partial(j, pq)
                    rhs = G.mul_P(derived[j, a], twisted[b]) + G.mul_P(parts[a], derived[j, b])
                    sc = max(lhs.norm(), rhs.norm(), norms[a] * norms[b])
                    res.append((lhs - rhs).norm() / sc)
                worst = tw1[f"({a},{b})"] = _worst(res)
                checks.append((f"twist1 ({a},{b}): {worst:.2e}", worst, tol))
            report["twist1"] = tw1

        with count_truncations(truncations, "twist2"):
            # star-twist
            tw2 = {}
            for m in (1, -1):
                star = G.star_P(parts[m])
                res = []
                for j in (1, 2):
                    lhs = G.partial(j, star)
                    rhs = G.sigma(G.star_P(derived[j, m])).scale(-1)
                    res.append((lhs - rhs).norm() / max(lhs.norm(), rhs.norm()))
                worst = tw2[str(m)] = _worst(res)
                checks.append((f"twist2 m={m}: {worst:.2e}", worst, tol))
            report["twist2"] = tw2

        with count_truncations(truncations, "mul_associativity"):
            # associativity
            assoc = {}
            for triple in triples:
                a, b, c = triple
                lhs = G.mul_P(products[a, b], parts[c])
                rhs = G.mul_P(parts[a], products[b, c])
                sc = max(lhs.norm(), rhs.norm(), norms[a] * norms[b] * norms[c])
                r = (lhs - rhs).norm() / sc
                assoc[str(triple)] = r
                checks.append((f"assoc {triple}: {r:.2e}", r, 10 * tol))
            report["mul_associativity"] = assoc
    except G.WindowOverflow as exc:
        report["window_overflow"] = str(exc)
        checks.append(("window overflow", False))
    report["truncations"] = truncations
    return report, checks


def cmd_monopole(args) -> tuple[dict, list]:
    from . import gauge

    ctx = parse_theta(args.theta)
    tokens = [tok for tok in args.q_sweep.split(",") if tok.strip()]
    qs = [parse_q_token(tok, ctx) for tok in tokens]
    rows = gauge.q_sweep(ctx, qs, M=args.grades, tol=args.tol)
    for row, tok in zip(rows, tokens):
        row["token"] = tok.strip()
    # -eps c_1 is the product of the floats (the pinned bits), or its exact
    # value when that lies beyond the float range
    constant = quadfield.float_or_exact(-ctx.eps * ctx.c(1))
    if isinstance(constant, float):
        constant = -ctx.eps_float * ctx.c(1)
    report = {
        "theta": ctx.theta_float,
        "epsilon": quadfield.float_or_exact(ctx.eps),
        "c1": ctx.c(1),
        "grades": args.grades,
        "q_sweep": rows,
        "expected_constant": {"re": 0.0, "im": constant},
    }
    # consistency: adapted exactly at eps^2, relative exactly at eps
    checks = []
    for row, q in zip(rows, qs):
        is_eps2 = isinstance(q, FieldElement) and q == ctx.eps_pow(2)
        is_eps = isinstance(q, FieldElement) and q == ctx.eps
        if not isinstance(q, FieldElement):
            is_eps2 = abs(float(q) - ctx.eps_float**2) < 1e-12
            is_eps = abs(float(q) - ctx.eps_float) < 1e-12
        ok = row["adapted"] == is_eps2 and row["relative_adapted"] == is_eps
        checks.append((f"sweep at q={row['token']}", ok))
    report["sweep_consistent"] = all(ok for _, ok in checks)
    return report, checks


def _builtin_instance(token: str) -> hopf.ModuleAlgebra:
    from . import hopf

    try:
        kind, n = token.split(":")
        n = int(n)
    except ValueError as exc:
        raise ConfigError(f"--builtin wants kind:n, got {token!r}") from exc
    makers = {
        "cycle": hopf.cycle_instance,
        "jet": hopf.jet_instance,
        "function": hopf.function_instance,
    }
    if kind not in makers:
        raise ConfigError(f"unknown builtin instance kind {kind!r}")
    if n < 1:
        raise ConfigError(f"--builtin {token!r}: n must be at least 1")
    return makers[kind](n)


def cohomology_bytes(inst: hopf.ModuleAlgebra, systems: tuple) -> int:
    """Upper bound on the bytes the Hochschild solver and `op_report` hold
    at once, from the character blocks the solver factors: the stacks of
    `hopf.component_shapes` for the systems (cocycle, central) of
    `hopf.hochschild_systems`, the same objects the solver is then handed,
    one block per connected component and character of the point
    translation `hopf._system` finds (the components themselves when a
    system is not invariant under it), the r characters of one component
    stacked and factored by one call.  The shapes are counted from index
    arrays, so the guard builds no block: an instance it refuses is refused
    before anything of the size it names is allocated.

    It counts 16-byte complex values: four copies of the largest stack (the
    stack, its QR working copy, R and the SVD; the solver's tracemalloc
    peak is 2.3 blocks on cycle:12-24 on whole components), and six n x k
    arrays for the n = dim H * dim M unknowns, which hold the solution
    spaces and every array built on them (the nullspaces, their star images
    and the returned bases).  A cocycle is fixed by its values on the g
    generators of H (it vanishes at 1, and mu(w g) is mu(w) <| g + eps(w)
    mu(g) on words w), so k = min(n, (g + 1) dim M) bounds the cocycle
    space and the dim M of Z_B(M) together.  Everything else is an index
    form with a few entries per non-zero, and 1 MiB covers it (the solver
    and `op_report` peak at 0.03 to 0.07 MiB on jet:1-2, cycle:1-2 and
    function:1-2).
    """
    from . import hopf

    n = inst.H.dim * inst.dimM
    k = min(n, (len(inst.H.generators) + 1) * inst.dimM)
    stack = max((math.prod(s) for system in systems for s in hopf.component_shapes(*system)), default=0)
    return 16 * (4 * stack + 6 * n * k) + 2**20


def cmd_cohomology(args) -> tuple[dict, list]:
    import numpy as np

    from . import hopf

    if args.instance:
        try:
            with open(args.instance) as fh:
                inst = hopf.load_instance(fh.read())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load instance: {exc}") from exc
    else:
        inst = _builtin_instance(args.builtin)
    name = inst.name or args.instance or args.builtin
    systems = hopf.hochschild_systems(inst)
    require_memory(cohomology_bytes(inst, systems), name,
                   f"the Hochschild solver and the crossed-product checks (dim H = {inst.H.dim}, "
                   f"dim B = {inst.dimB}, dim M = {inst.dimM})")
    n = inst.H.dim
    rng = np.random.default_rng(args.seed)
    report = {"instance": name, "dim_H": n, "dim_B": inst.dimB}
    gate = inst.H.axiom_report()
    report["hopf_gate"] = {"max": gate["max"]}
    checks = [("Hopf axioms", gate["max"], 1e-12)]
    if not gate["max"] <= 1e-12:
        report["hopf_gate"]["detail"] = {
            k: v for k, v in gate.items() if k != "max" and not v <= 1e-12
        }
        return report, checks
    data = inst.data_report()
    report["data_gate"] = data["max"]
    checks.append(("module-algebra data", data["max"], 1e-10))
    skipped = []
    # the enumerator and the characters h -> zeta^j exist on C[Z_n] only
    cyclic = hopf.same_tables(inst.H, hopf.cyclic_group_hopf(n))
    sol = hopf.solve_hochschild_space(inst, systems)
    report["hochschild"] = {
        "dim_Z": sol["dim_Z"],
        "dim_B": sol["dim_B"],
        "dim_HH": sol["dim_H"],
    }
    if cyclic:
        bf = hopf.brute_force_group_z1(inst, sol["central_basis"])
        report["hochschild"].update(brute_force_Z=bf["dim_Z"], brute_force_B=bf["dim_B"])
        checks.append(("cohomology dimensions disagree with the enumerator",
                       (sol["dim_Z"], sol["dim_B"]) == (bf["dim_Z"], bf["dim_B"])))
        zeta = np.exp(2j * np.pi / n)
        char = hopf.ConvolutionElement(
            inst, "B", np.array([inst.unitB * zeta**j for j in range(n)])
        )
    else:
        skipped.append({
            "check": "enumerator",
            "reason": "brute_force_group_z1 enumerates the group cohomology of "
                      "Z_n, and H is not C[Z_n] in the basis g^0 .. g^(n-1)",
        })
        char = hopf.unit_cocycle(inst)
    # MC residuals on a sampled Sweedler cocycle, when a derivation exists
    if inst.dB is not None and hopf._maxabs(inst.dB) > 0:
        # sigma from a random unitary of B when B is the jet algebra, else the unit
        u = hopf.jet_unitary(inst, rng=rng) if hopf.same_tables(inst, hopf.jet_instance(n)) else None
        if u is None:
            sigma = hopf.unit_cocycle(inst)
        else:
            sigma = hopf.convolve(char, hopf.coboundary_S(inst, u))
        mc = hopf.mc_cocycle(sigma)
        mc_res = hopf.check_hochschild_cocycle(mc)["max"]
        # MC(sigma * sigma) = MC(sigma) + sigma |> MC(sigma)
        ident = (
            hopf.mc_cocycle(hopf.convolve(sigma, sigma)) - (mc + hopf.conj_action(sigma, mc))
        ).norm()
        report["maurer_cartan"] = {
            "sigma": "unit" if u is None else "jet_unitary",
            "mc_norm": mc.norm(),
            "mc_is_cocycle": mc_res,
            "cocycle_identity": ident,
        }
        checks.append(("Maurer-Cartan identities", hopf._maxabs([mc_res, ident]), 1e-10))
    # Op realization checks
    mu0 = (
        sol["basis"][0]
        if sol["basis"]
        else hopf.zero_cochain(inst, "M")
    )
    op = hopf.op_report(inst, char, mu0 if inst.dB is not None else None)
    report["op"] = {**op, "tol": hopf.TOL}
    checks.append(("Op realization", op["max"], hopf.TOL))
    report["skipped"] = skipped
    return report, checks


# -- verdict ------------------------------------------------------------------------
# A check is (failure text, residual, tol), which holds when residual <= tol
# (a NaN fails), or (failure text, ok) with a boolean ok.


def verdict(report: dict, checks: list | None) -> int:
    """Write `failures` and `pass` at the end of the report; return the exit
    code, 0 if every check holds, else 1.  `pell` has no verdict (None); an
    empty list means no check ran, a configuration error."""
    if checks is None:
        return 0
    if not checks:
        raise ConfigError("the run checked nothing")
    failures = [text for text, *test in checks if not _holds(*test)]
    report["failures"] = failures
    report["pass"] = not failures
    return 1 if failures else 0


def _holds(value, tol=None) -> bool:
    return bool(value) if tol is None else value <= tol


# -- entry point --------------------------------------------------------------------


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The ncgauge parser; `defaults` replaces the built-in defaults of the
    subcommands' options (the entries of a --config file, as strings that
    the options' types parse and check like a flag's text)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its entries")
    common.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    common.add_argument("--out", help="write the report to this path")
    # numpy's generators take a non-negative seed
    common.add_argument("--seed", type=_integer(0, base=0), default=DEFAULT_SEED)

    ap = argparse.ArgumentParser(
        prog="ncgauge",
        description="verification suites for gauge theory on a real-multiplication torus",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pell", parents=[common],
                       help="Pell unit and stabilizer data for a discriminant")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--grades", type=_integer(0), default=4)

    p = sub.add_parser("stabilizer", parents=[common],
                       help="Phi(eps^m) table and exact checks")
    p.add_argument("--theta", required=True, help="p,q,d for theta = p + q sqrt(d)")
    p.add_argument("--grades", type=_integer(0), default=6)

    p = sub.add_parser("torus-check", parents=[common],
                       help="torus calculus identity suite")
    p.add_argument("--theta", required=True)
    p.add_argument("--tol", type=tolerance, default=1e-12)

    p = sub.add_parser("heisenberg-verify", parents=[common],
                       help="twist and module-law suites")
    p.add_argument("--theta", required=True)
    p.add_argument("--grid", default="12,1024,8", help="L,N,J")
    p.add_argument("--tol", type=tolerance, default=1e-4)
    p.add_argument("--tol-grid", type=tolerance, default=1e-6, dest="tol_grid")
    p.add_argument("--grades", type=_integer(1), default=3)

    p = sub.add_parser("monopole", parents=[common],
                       help="q-sweep adaptedness report")
    p.add_argument("--theta", required=True)
    p.add_argument("--q-sweep", default="1,eps^-1,eps,eps^2,eps^3,2,1/2")
    # the factorization test compares ratios over 0 < |m| <= M, M >= 2
    p.add_argument("--grades", type=_integer(2), default=4)
    p.add_argument("--tol", type=tolerance, default=1e-8)

    p = sub.add_parser("cohomology", parents=[common],
                       help="lazy cohomology suite on an instance")
    p.add_argument("--instance", help="JSON structure-tensor file")
    p.add_argument("--builtin", default="jet:3", help="cycle:n | jet:n | function:n")

    for p in sub.choices.values():
        p.set_defaults(**(defaults or {}))
    return ap


COMMANDS = {
    "pell": cmd_pell,
    "stabilizer": cmd_stabilizer,
    "torus-check": cmd_torus_check,
    "heisenberg-verify": cmd_heisenberg_verify,
    "monopole": cmd_monopole,
    "cohomology": cmd_cohomology,
}


@functools.lru_cache(maxsize=1)
def default_parser() -> argparse.ArgumentParser:
    """The parser with the built-in defaults, built once per process;
    parsing leaves it unchanged, so every call of `main` can reuse it."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand; the exit code is 0 (pass), 1 (a check failed),
    2 (a configuration or usage error) or 0 after --help, also when main
    is called in-process: argparse's own exit comes back as a return."""
    try:
        args = default_parser().parse_args(argv)
        config = {k.replace("-", "_"): v for k, v in load_config(args.config).items()}
        # an entry naming an option becomes its default, parsed as the flag's
        # text; null keeps the built-in default
        config = {k: str(v) for k, v in config.items() if hasattr(args, k) and v is not None}
        if config:
            # parse again with the config entries as defaults, so every
            # spelling of an explicit flag (--grades 7, --grades=7, --grad 7)
            # overrides them
            args = build_parser(config).parse_args(argv)
        report, checks = COMMANDS[args.command](args)
        code = verdict(report, checks)
        emit(report, args.format, args.out)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # raised by argparse only, after printing its message
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
