"""
Built-in identity oracles and the character-sum decomposition
=============================================================

The oracle layer re-derives classical character-sum identities from
scratch and reports mismatch counts, so any regression in the table or
ring code shows up as a nonzero counter rather than a silent drift.  It
also exposes the additive-character decomposition of a curve's count,
whose waypoints are simple closed forms.
"""

from hypercount import (
    CurveParams,
    brute_count,
    build_field,
    davenport_hasse_products,
    decompose_theta_sum,
    get_ring,
    quadratic_sign,
    verify_davenport_hasse,
    verify_lemmas,
)

# verify_lemmas sweeps a battery of Gauss/Jacobi/binomial identities
# exhaustively over all characters of the field.
f13 = build_field(13)
for report in verify_lemmas(f13):
    status = "ok" if report.mismatch_count == 0 else "FAIL"
    print(f"  {report.identity:<40} {report.cases:>6} cases  {status}")

# The Davenport-Hasse product relation links G(chi) values along an
# arithmetic progression of character indices.  The bulk checker covers
# every twisting character psi at once for a given divisor m | q - 1.
print()
for m in (2, 3, 4, 6, 12):
    rep = davenport_hasse_products(f13, m)
    print(f"  m={m:>2}: {rep.identity} -> {rep.cases} cases, "
          f"{rep.mismatch_count} mismatches")

# The scalar route recomputes one psi at a time through an independent
# code path (plus the index-progression corollary).
for rep in verify_davenport_hasse(f13, 4, 2):
    print(f"  psi=2, m=4: {rep.identity} -> {rep.cases} cases, "
          f"{rep.mismatch_count} mismatches")

# decompose_theta_sum splits q*N into additive-character components.
# Two of them have closed forms -- the pure-z sum is always -1 and the
# (y,z) sum is 1 + q*phi(b) -- and the full stack reassembles q*N.
f25 = build_field(5, 2)
ring = get_ring(f25, "exact")
curve = CurveParams(family="A", d=4, a=7, b=3)
rep = decompose_theta_sum(f25, curve, ring)
print("\nq=25, y^2 = x^4 + 7x + 3")
print("  z component     :", rep.z_sum.lift_int(), "(always -1)")
print("  yz component    :", rep.yz_sum.lift_int(),
      "(1 + q*phi(b) =", 1 + 25 * quadratic_sign(f25, 3), ")")
print("  reconstructed N :", rep.n_reconstructed)
print("  brute-force N   :", brute_count(f25, curve))

# A sum of q - 1 Gauss-sum triples reproduces everything beyond the two
# closed forms at every odd q: q*N = q^2 + q*phi(b) + quad.
quad = rep.quad_component.lift_int()
print("  quad component  :", quad)
print("  q*N == q^2 + q*phi(b) + quad:",
      25 * rep.n_reconstructed == 25**2 + 25 * quadratic_sign(f25, 3) + quad)
