"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Tolerances are pinned here, not configurable.
"""

import cmath
import math
import time
import warnings
from fractions import Fraction

import numpy as np

from ncgauge import gauge, heisenberg, hopf, torus
from ncgauge.quadfield import (
    GOLDEN,
    ONE_PLUS_SQRT3,
    SQRT2,
    FieldElement,
    ThetaContext,
)

GOLDEN_CTX = ThetaContext(GOLDEN)


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}  {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def brute_force_pell(delta, vmax=10**6):
    for v in range(1, vmax):
        u2 = 4 + delta * v * v
        r = math.isqrt(u2)
        if r * r == u2:
            return (r, v)
    raise AssertionError


def test_criterion_1_number_theory():
    t0 = time.time()
    ok = True
    details = []
    for t in (GOLDEN, SQRT2, ONE_PLUS_SQRT3):
        ctx = ThetaContext(t)
        # Pell unit vs brute-force scan
        if (ctx.unit.u, ctx.unit.v) != brute_force_pell(t.delta):
            ok, details = False, details + [f"pell {t.delta}"]
        # Phi(eps) stabilizes theta exactly
        th = t.as_field_element()
        g = ctx.power(1)
        if g.acts_on(th) != th:
            ok, details = False, details + [f"stabilize {t.delta}"]
        # Phi is a homomorphism on powers m in [-6, 6]
        for m in range(-6, 7):
            for n in range(-6, 7):
                if ctx.power(m + n) != ctx.power(m) @ ctx.power(n):
                    ok, details = False, details + [f"hom {t.delta} {m},{n}"]
                if FieldElement.of(ctx.c(m + n), 0, t.delta) != (
                    ctx.c(m) * ctx.eps ** (-n) + ctx.eps**m * ctx.c(n)
                ):
                    ok, details = False, details + [f"cocycle {t.delta} {m},{n}"]
    report(1, "number theory", ok, f"({time.time()-t0:.2f}s) {details[:3]}")
    assert time.time() - t0 < 1.0


def test_criterion_2_torus_calculus():
    t0 = time.time()
    tol = 1e-12
    th = GOLDEN_CTX.theta_float
    rng = np.random.default_rng(0xA17E)
    worst = 0.0
    U, V = torus.TorusElement.U(th), torus.TorusElement.V(th)
    lam = cmath.exp(2j * math.pi * th)
    worst = max(worst, ((V * U) - (U * V) * lam).norm())
    for _ in range(200):
        x = torus.random_sparse(th, rng)
        y = torus.random_sparse(th, rng)
        z = torus.random_sparse(th, rng)
        sxyz = max(x.norm() * y.norm() * z.norm(), 1.0)
        sxy = max(x.norm() * y.norm(), 1.0)
        worst = max(worst, ((x * y) * z - x * (y * z)).norm() / sxyz)
        worst = max(
            worst,
            (torus.star(x * y) - torus.star(y) * torus.star(x)).norm() / sxy,
        )
        for j in (1, 2):
            worst = max(
                worst,
                ((x * y).delta(j) - (x.delta(j) * y + x * y.delta(j))).norm() / sxy,
            )
        worst = max(worst, torus.d_B1(torus.d_B(x)).norm() / max(x.norm(), 1.0))
    vol = torus.wedge(torus.dtau1(th), torus.dtau2(th))
    worst = max(worst, (vol.b - torus.TorusElement.one(th)).norm())
    report(2, "torus calculus", worst <= tol, f"max residual {worst:.2e} ({time.time()-t0:.2f}s)")
    assert time.time() - t0 < 1.0


def test_criterion_3_curvature_eigenvalue():
    t0 = time.time()
    # 4th-order FD on N=1024, L=12, as pinned
    grid = heisenberg.GridSpec(L=12.0, N=1024)
    ctx = GOLDEN_CTX
    worst = 0.0
    for m in range(-3, 4):
        if m == 0:
            continue
        S = heisenberg.sector_count(ctx, m)
        f = heisenberg.gaussian(
            ctx, grid, m, width=1.2, sector_weights=np.arange(1, S + 1)
        )
        g = heisenberg.GradedElement.from_heis(f)
        comm = (
            heisenberg.partial(1, heisenberg.partial(2, g)).parts[m]
            - heisenberg.partial(2, heisenberg.partial(1, g)).parts[m]
        )
        measured = f.inner(comm) / f.inner(f)
        expected = -2j * math.pi * float(ctx.eps_pow(-m) * ctx.c(m))
        worst = max(worst, abs(measured - expected) / abs(expected))
    report(3, "curvature eigenvalue", worst <= 1e-5, f"max rel err {worst:.2e} ({time.time()-t0:.2f}s)")
    assert time.time() - t0 < 10.0


def _graded_probes(ctx, grid, rng):
    parts = {
        0: heisenberg.GradedElement.from_torus(
            torus.TorusElement(
                ctx.theta_float, {(0, 0): 0.4, (1, 0): 0.8, (0, 1): -0.4j, (1, -1): 0.3}
            ),
            ctx,
            grid,
        ),
        1: heisenberg.GradedElement.from_heis(
            heisenberg.random_packet(ctx, grid, 1, rng)
        ),
        -1: heisenberg.GradedElement.from_heis(
            heisenberg.random_packet(ctx, grid, -1, rng)
        ),
        2: heisenberg.GradedElement.from_heis(
            heisenberg.random_packet(ctx, grid, 2, rng)
        ),
    }
    return parts


def test_criterion_4_twisted_leibniz_and_star():
    t0 = time.time()
    ctx = GOLDEN_CTX
    grid = heisenberg.GridSpec(N=2048)
    rng = np.random.default_rng(0xA17E)
    parts = _graded_probes(ctx, grid, rng)
    worst_tw = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", heisenberg.TruncationWarning)
        for a, b in [(0, 1), (1, 0), (1, 1), (-1, 1)]:
            p, q = parts[a], parts[b]
            for j in (1, 2):
                lhs = heisenberg.partial(j, heisenberg.mul_P(p, q))
                rhs = heisenberg.mul_P(
                    heisenberg.partial(j, p), heisenberg.sigma(q)
                ) + heisenberg.mul_P(p, heisenberg.partial(j, q))
                sc = max(lhs.norm(), rhs.norm(), p.norm() * q.norm())
                worst_tw = max(worst_tw, (lhs - rhs).norm() / sc)
        for m in (1, -1):
            p = parts[m]
            for j in (1, 2):
                lhs = heisenberg.partial(j, heisenberg.star_P(p))
                rhs = heisenberg.sigma(
                    heisenberg.star_P(heisenberg.partial(j, p))
                ).scale(-1)
                worst_tw = max(
                    worst_tw, (lhs - rhs).norm() / max(lhs.norm(), rhs.norm())
                )
        worst_assoc = 0.0
        for triple in [(1, 1, -1), (1, -1, 1), (-1, 1, 1), (0, 1, 1), (1, 0, -1), (1, -1, 2)]:
            a, b, c = (parts[m] for m in triple)
            lhs = heisenberg.mul_P(heisenberg.mul_P(a, b), c)
            rhs = heisenberg.mul_P(a, heisenberg.mul_P(b, c))
            sc = max(lhs.norm(), rhs.norm(), a.norm() * b.norm() * c.norm())
            worst_assoc = max(worst_assoc, (lhs - rhs).norm() / sc)
    passed = worst_tw <= 1e-5 and worst_assoc <= 1e-4
    report(
        4,
        "twisted Leibniz and star",
        passed,
        f"twist {worst_tw:.2e} assoc {worst_assoc:.2e} ({time.time()-t0:.1f}s)",
    )
    assert time.time() - t0 < 60.0


def test_criterion_5_field_strength():
    t0 = time.time()
    ctx = GOLDEN_CTX
    grid = heisenberg.GridSpec()
    worst_eig = worst_comm = worst_inv = 0.0
    C = gauge.curvature_coefficient(ctx)
    for m in (-3, -2, -1, 1, 2, 3):
        f = heisenberg.GradedElement.from_heis(
            heisenberg.gaussian(ctx, grid, m, width=1.2)
        )
        F = gauge.field_strength(gauge.GaugePotential(), f)
        lam = gauge.field_strength_eigenvalue(ctx, m)
        expct = gauge.HorizontalForm(2, f.scale(lam))
        worst_eig = max(worst_eig, (F - expct).norm() / max(F.norm(), expct.norm()))
        # commutator form: F[nabla_0](p) = [p, 2 pi eps c_1/(eps^2-1) vol_B]
        # (the sigma^2 twist makes the reversed bracket the negative)
        comm = gauge.HorizontalForm(
            2, (f - heisenberg.sigma(heisenberg.sigma(f))).scale(C)
        )
        worst_comm = max(worst_comm, (F - comm).norm() / max(F.norm(), comm.norm()))
    p1 = heisenberg.GradedElement.from_heis(
        heisenberg.gaussian(ctx, grid, 1, center=0.2, momentum=0.3)
    )
    F0 = gauge.field_strength(gauge.GaugePotential(), p1)
    for s in [(1.0, 0.0), (3.0, -2.0), (0.5, 0.7), (-2.0, 1.5), (10.0, -4.0)]:
        Fs = gauge.field_strength(gauge.GaugePotential(*s), p1)
        worst_inv = max(worst_inv, (F0 - Fs).norm() / F0.norm())
    passed = worst_eig <= 1e-5 and worst_comm <= 1e-5 and worst_inv <= 1e-8
    report(
        5,
        "field strength",
        passed,
        f"eig {worst_eig:.2e} comm {worst_comm:.2e} invariance {worst_inv:.2e} ({time.time()-t0:.1f}s)",
    )
    assert time.time() - t0 < 10.0


def test_criterion_6_q_monopole_uniqueness():
    t0 = time.time()
    ctx = GOLDEN_CTX
    eps = ctx.eps
    sweep = {
        "1": FieldElement.of(1, 0, 5),
        "eps^-1": eps**-1,
        "eps": eps,
        "eps^2": eps**2,
        "eps^3": eps**3,
        "2": FieldElement.of(2, 0, 5),
        "1/2": FieldElement.of(Fraction(1, 2), 0, 5),
    }
    ok = True
    details = []
    for name, q in sweep.items():
        a = gauge.adaptedness_test(ctx, q, M=4, tol=1e-8)
        r = gauge.relative_adaptedness_test(ctx, q, M=4, tol=1e-8)
        want_a = name == "eps^2"
        want_r = name == "eps"
        if a["adapted"] is not want_a or r["adapted"] is not want_r:
            ok, details = False, details + [name]
        if want_a:
            const = a["curvature_constant"]
            target = complex(0.0, -ctx.eps_float * ctx.c(1))
            if abs(const - target) > 1e-8 * abs(target):
                ok, details = False, details + ["constant"]
    report(6, "q-monopole uniqueness", ok, f"({time.time()-t0:.2f}s) {details}")
    assert time.time() - t0 < 1.0


def test_criterion_7_gauge_triviality():
    t0 = time.time()
    ctx = GOLDEN_CTX
    grid = heisenberg.GridSpec()
    rng = np.random.default_rng(0xA17E)
    worst = 0.0
    pots = [gauge.GaugePotential(), gauge.GaugePotential(0.3, -0.8)]
    vectors = [
        heisenberg.GradedElement.from_heis(heisenberg.random_packet(ctx, grid, m, rng))
        for m in (-2, -1, 1, 2)
    ]
    vectors.append(
        heisenberg.GradedElement.from_torus(
            torus.TorusElement(ctx.theta_float, {(1, 0): 1.0, (0, 2): 0.5j}),
            ctx,
            grid,
        )
    )
    for zeta in (1j, cmath.exp(2j * math.pi / 7)):
        for pot in pots:
            for p in vectors:
                w0 = gauge.apply_potential(pot, p)
                wz = gauge.transformed_potential(pot, zeta, p)
                worst = max(worst, (w0 - wz).norm() / max(w0.norm(), 1e-30))
    report(7, "gauge triviality", worst <= 1e-8, f"max {worst:.2e} ({time.time()-t0:.1f}s)")
    assert time.time() - t0 < 10.0


def test_criterion_8_lazy_cohomology():
    t0 = time.time()
    ok = True
    details = []
    rng = np.random.default_rng(0xA17E)
    for n in (2, 3, 4, 6):
        # Hopf axiom gate
        if hopf.cyclic_group_hopf(n).axiom_report()["max"] > 1e-12:
            ok, details = False, details + [f"gate {n}"]
        # dimensions vs the brute-force group-cohomology enumerator
        for mk in (hopf.function_instance, hopf.cycle_instance, hopf.jet_instance):
            inst = mk(n)
            sol = hopf.solve_hochschild_space(inst, hopf.hochschild_systems(inst))
            bf = hopf.brute_force_group_z1(inst, sol["central_basis"])
            if (sol["dim_Z"], sol["dim_B"]) != (bf["dim_Z"], bf["dim_B"]):
                ok, details = False, details + [f"dims {inst.name}"]
        # MC identities and Eq. coboundaryeq on the jet instance
        inst = hopf.jet_instance(n)
        u = hopf.jet_unitary(inst, rng=rng)
        v = hopf.jet_unitary(inst, rng=rng)
        zeta = np.exp(2j * np.pi / n)
        char = hopf.ConvolutionElement(
            inst, "B", np.array([inst.unitB * zeta**j for j in range(n)])
        )
        s = hopf.convolve(char, hopf.coboundary_S(inst, u))
        tt = hopf.coboundary_S(inst, v)
        mc_ident = (
            hopf.mc_cocycle(hopf.convolve(s, tt))
            - (hopf.mc_cocycle(s) + hopf.conj_action(s, hopf.mc_cocycle(tt)))
        ).norm()
        m0 = -inst.mul("M", "B", u @ inst.dB, inst.star("B", u))
        cobo = (hopf.mc_cocycle(hopf.coboundary_S(inst, u)) - hopf.coboundary_H(inst, m0)).norm()
        if max(mc_ident, cobo) > 1e-10:
            ok, details = False, details + [f"MC {n}"]
        # curvature identities of the quadratic map
        sol = hopf.solve_hochschild_space(inst, hopf.hochschild_systems(inst))
        mu, nu = sol["basis"][0], sol["basis"][1]
        defect = (
            hopf.curvature_map(mu + nu)
            - hopf.curvature_map(mu)
            - hopf.curvature_map(nu)
            - hopf.graded_bracket(mu, nu).scale(-1j)
        ).norm()
        alpha = np.zeros(inst.dimM, dtype=complex)
        alpha[1] = 1j
        alpha[4 + 2 + 1] = 2j
        curv_cobo = (
            hopf.curvature_map(hopf.coboundary_H(inst, alpha))
            - hopf.coboundary_H(inst, -1j * (alpha @ inst.d1), target="O2")
        ).norm()
        equiv = (
            hopf.curvature_map(hopf.conj_action(s, mu) + hopf.mc_cocycle(s))
            - hopf.convolve(hopf.convolve(s, hopf.curvature_map(mu)), hopf.conv_inverse(s))
        ).norm()
        if max(defect, curv_cobo, equiv) > 1e-10:
            ok, details = False, details + [f"curvature {n}"]
        # Op homomorphism and the gauge compatibility, entrywise
        ci = hopf.cycle_instance(n)
        sig_c = hopf.ConvolutionElement(
            ci, "B", np.array([ci.unitB * zeta**j for j in range(n)])
        )
        op_rep = hopf.op_report(ci, sig_c, hopf.zero_cochain(ci, "M"), upsilon=ci.unitB)
        if op_rep["max"] > 1e-10:
            ok, details = False, details + [f"op cycle {n}"]
        if n <= 3:
            op_rep = hopf.op_report(inst, s, mu, upsilon=u)
            if op_rep["max"] > 1e-10:
                ok, details = False, details + [f"op jet {n}"]
    report(8, "lazy cohomology", ok, f"({time.time()-t0:.1f}s) {details}")
    assert time.time() - t0 < 5.0
