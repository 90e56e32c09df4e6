"""
Closed-form point counts for two hyperelliptic families
=======================================================

Family A is y^2 = x^d + a x + b and family B is y^2 = x^d + a x^(d-1) + b.
When q - 1 satisfies the right congruence, the affine point count is
q plus a character correction plus a power of q times a single
hypergeometric-series value; count_points picks the closed form that
applies and returns the count together with the series value and
argument it used.  Everything here is checked against brute
enumeration, which is also exported for independent spot checks.
"""

from hypercount import (
    CurveParams,
    alpha_param,
    beta_param,
    brute_count,
    build_field,
    count_points,
    get_ring,
    required_congruence,
)

# Even degree, family A: needs 2d(d-1) | q - 1, so d = 4 wants 24 | q - 1.
f73 = build_field(73)
curve = CurveParams(family="A", d=4, a=5, b=11)
res = count_points(f73, curve)
print("q=73, y^2 = x^4 + 5x + 11")
print("  method       :", res.method)
print("  count        :", res.n_points, " brute:", brute_count(f73, curve))
print("  series value :", res.hgf_value.payload, "(exact-backend residue)")
print("  argument     :", res.argument)

# required_congruence says which fields admit which (family, degree).
for fam in "AB":
    for d in (2, 3, 4, 5):
        print(f"  family {fam} d={d}: needs (q-1) % {required_congruence(fam, d)} == 0")

# Odd degree uses a reflected argument: the series is evaluated at the
# negative of the natural parameter built from a and b.
f41 = build_field(41)
curve = CurveParams(family="A", d=5, a=2, b=7)
res = count_points(f41, curve)
alpha = alpha_param(f41, 5, 2, 7)
print("\nq=41, y^2 = x^5 + 2x + 7")
print("  count:", res.n_points, " brute:", brute_count(f41, curve))
print("  argument == -alpha(a, b):", res.argument == f41.neg(alpha))

# Family B at odd degree runs on the beta parameter instead.
curve = CurveParams(family="B", d=5, a=3, b=10)
res = count_points(f41, curve)
beta = beta_param(f41, 5, 3, 10)
print("\nq=41, y^2 = x^5 + 3x^4 + 10")
print("  count:", res.n_points, " brute:", brute_count(f41, curve))
print("  argument == -beta(a, b):", res.argument == f41.neg(beta))

# Extension fields work identically; reuse one ring for a small sweep.
f121 = build_field(11, 2)
ring = get_ring(f121, "exact")
mismatches = 0
for a in range(1, 30):
    curve = CurveParams(family="A", d=5, a=a, b=17)
    if count_points(f121, curve, ring=ring).n_points != brute_count(f121, curve):
        mismatches += 1
print("\nq=121 sweep over 29 curves: mismatches =", mismatches)
