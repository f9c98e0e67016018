"""Number-theoretic core: type triples, Pell units, and SL(2,Z) stabilizers.

A real quadratic irrationality theta = (b + sqrt(Delta))/(2a) is pinned
down by its coprime type triple (a, b, c).  The positive Pell solutions
u^2 - Delta v^2 = 4 give the norm-positive units (u + v sqrt(Delta))/2,
and the smallest one > 1 generates the stabilizer of theta in SL(2,Z)
through the explicit matrix isomorphism Phi.  Everything here is exact
integer/rational arithmetic.
"""

from ncgauge import (
    GOLDEN,
    SQRT2,
    FieldElement,
    ThetaContext,
    classify,
    norm,
    pell_unit,
    phi,
    phi_inverse,
)

print("== classification ==")
for label, (p, q, d) in {
    "golden ratio": ("1/2", "1/2", 5),
    "sqrt(2)": (0, 1, 2),
    "1 + sqrt(3)": (1, 1, 3),
}.items():
    t = classify(p, q, d)
    print(f"{label:>12}: (a,b,c) = ({t.a},{t.b},{t.c}), Delta = {t.delta}, "
          f"value = {float(t):.6f}")

print("\n== Pell units ==")
for delta in (5, 8, 12):
    u = pell_unit(delta)
    print(f"Delta={delta:>2}: (u,v) = ({u.u},{u.v}), eps = {float(u):.6f}, "
          f"norm = {norm(u.value)}")

print("\n== the stabilizer isomorphism ==")
ctx = ThetaContext(GOLDEN)
g = phi(ctx.unit, GOLDEN)
print("Phi(eps) for the golden ratio:", g)
th = GOLDEN.as_field_element()
print("g |> theta == theta exactly:", g.acts_on(th) == th)
print("Phi^{-1}(g) = c theta + d =", phi_inverse(g, GOLDEN), "= eps")

print("\n== the power table and its exact identities ==")
print(" m   (a_m, b_m, c_m, d_m)      c_m*theta + d_m == eps^m")
for m in range(-4, 5):
    p = ctx.power(m)
    lhs = p.c * th + p.d
    print(f"{m:>2}   ({p.a:>4},{p.b:>4},{p.c:>4},{p.d:>4})      {lhs == ctx.eps**m}")

print("\nthe cocycle c_{m+n} = c_m eps^{-n} + eps^m c_n, checked exactly:")
ok = all(
    FieldElement.of(ctx.c(m + n), 0, 5)
    == ctx.c(m) * ctx.eps ** (-n) + ctx.eps**m * ctx.c(n)
    for m in range(-6, 7)
    for n in range(-6, 7)
)
print("holds for all m, n in [-6, 6]:", ok)

ctx2 = ThetaContext(SQRT2)
print("\nsame game for sqrt(2): Phi(eps) =", phi(ctx2.unit, SQRT2))
