"""Lazy Sweedler/Hochschild cohomology of crossed products, at desk scale.

H = C[Z_n] acts on the function algebra by the cyclic shift.  The shipped
coefficient data: the symmetric two-generator cycle calculus, the trivial
bimodule (for cohomology dimensions), and the non-semisimple "jet"
algebra C(Z_n) (x) C[x,y]/(x^2,y^2) whose nilpotent directions make the
Maurer-Cartan map and the curvature identities genuinely non-zero.  The
crossed-product realizations Op turn cocycles into gauge transformations
and potentials of B x| H, checked entrywise.

Every structure table is stored as an index form (its non-zero entries
and their positions); a dense vector times a table, as in `u @ inst.dB`,
is a dense vector.
"""

import numpy as np

from ncgauge.hopf import (
    ConvolutionElement,
    brute_force_group_z1,
    check_hochschild_cocycle,
    check_sweedler_cocycle,
    coboundary_H,
    coboundary_S,
    conj_action,
    conv_inverse,
    convolve,
    curvature_map,
    cycle_instance,
    cyclic_group_hopf,
    function_instance,
    graded_bracket,
    group_cocycle,
    hochschild_systems,
    jet_instance,
    jet_unitary,
    mc_cocycle,
    op_report,
    solve_hochschild_space,
)

rng = np.random.default_rng(0xA17E)

print("== Hopf axiom gate ==")
for n in (2, 3, 4, 6):
    print(f"C[Z_{n}]: max violation {cyclic_group_hopf(n).axiom_report()['max']:.1e}")

print("\n== cocycle spaces vs the brute-force group-cohomology oracle ==")
for mk in (function_instance, cycle_instance, jet_instance):
    for n in (3, 4):
        inst = mk(n)
        sol = solve_hochschild_space(inst, hochschild_systems(inst))
        bf = brute_force_group_z1(inst, sol["central_basis"])
        print(f"{inst.name:>24}: solver (Z,B,H) = ({sol['dim_Z']},{sol['dim_B']},{sol['dim_H']})"
              f"  oracle ({bf['dim_Z']},{bf['dim_B']},{bf['dim_H']})")

print("\n== a Sweedler cocycle from a unitary with unit norm ==")
fi = function_instance(3)
w = np.exp(2j * np.pi * rng.random(3))
w = w / np.prod(w) ** (1 / 3)
sigma_w = group_cocycle(fi, w)
print("telescoped sigma passes:", check_sweedler_cocycle(sigma_w)["passes"])
bad = sigma_w.copy()
bad.values[2] *= np.exp(0.25j)
print("broken telescoping fails at pair:", check_sweedler_cocycle(bad)["cocycle_worst_pair"])

print("\n== Maurer-Cartan on the jet instance ==")
inst = jet_instance(3)
print(f"dB: shape {inst.dB.shape}, {inst.dB.values.size} non-zeros stored "
      f"of {inst.dB.shape[0] * inst.dB.shape[1]}")
u = jet_unitary(inst, rng=rng)
zeta = np.exp(2j * np.pi / 3)
char = ConvolutionElement(inst, "B", np.array([inst.unitB * zeta**j for j in range(3)]))
sigma = convolve(char, coboundary_S(inst, u))
mc = mc_cocycle(sigma)
print("MC(sigma) norm (non-zero):", round(mc.norm(), 4))
print("MC(sigma) passes the Hochschild checker:", check_hochschild_cocycle(mc)["passes"])
m0 = -inst.mul("M", "B", u @ inst.dB, inst.star("B", u))
print("MC(D u) == D(-du u*):", (mc_cocycle(coboundary_S(inst, u)) - coboundary_H(inst, m0)).norm())

print("\n== the curvature map ==")
mu, nu = solve_hochschild_space(inst, hochschild_systems(inst))["basis"][:2]
Fmu = curvature_map(mu)
print("F[mu] norm:", round(Fmu.norm(), 4), " (an Omega^2-valued cocycle:",
      check_hochschild_cocycle(Fmu)["passes"], ")")
defect = curvature_map(mu + nu) - Fmu - curvature_map(nu) - graded_bracket(mu, nu).scale(-1j)
print("quadratic defect identity residual:", defect.norm())
alpha = np.zeros(inst.dimM, dtype=complex); alpha[1] = 1j
print("F[D alpha] == D(-i d alpha):",
      (curvature_map(coboundary_H(inst, alpha))
       - coboundary_H(inst, -1j * (alpha @ inst.d1), target="O2")).norm())
equiv = (curvature_map(conj_action(sigma, mu) + mc) -
         convolve(convolve(sigma, Fmu), conv_inverse(sigma))).norm()
print("gauge equivariance residual:", equiv)

print("\n== crossed-product realizations ==")
rep = op_report(inst, sigma, mu, upsilon=u)
print("  multiplicativity checked on:", ", ".join(rep["generators"]))
for k, v in rep.items():
    if k not in ("max", "generators"):
        print(f"  {k:<28} {v:.2e}")
print("max violation:", f"{rep['max']:.2e}")
