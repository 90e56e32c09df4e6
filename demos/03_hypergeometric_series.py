"""
Gaussian hypergeometric series over a finite field
==================================================

The finite-field n+1_F_n series replaces the rising factorials of the
classical series with normalized Jacobi-sum binomials and the argument
with a field element; the whole sum is a single dot product against a
cached coefficient vector indexed by the twisting character.  Since that
vector does not depend on the argument, one discrete Fourier transform
of it gives the series at every argument at once: its spectrum.
"""

from hypercount import (
    HgfSpec,
    build_field,
    dlog,
    char_of_order,
    eval_char,
    evaluate_hgf,
    get_ring,
    quadratic_char,
    series_values,
    trivial_char,
)

f13 = build_field(13)
ring_f = get_ring(f13, "float")
ring_e = get_ring(f13, "exact")

# A series is specified by its top and bottom character lists plus the
# field-element argument: this is 2F1(chi4, phi; eps | x).
phi = quadratic_char(f13)
chi4 = char_of_order(f13, 4)
eps = trivial_char(f13)

for x in (1, 3, 12):
    spec = HgfSpec(tops=(chi4, phi), bottoms=(eps,), argument=x)
    v_f = evaluate_hgf(spec, ring_f)
    v_e = evaluate_hgf(spec, ring_e)
    # Generic values are algebraic numbers, so the float backend shows a
    # complex number while the exact backend shows its residue image.
    print(f"2F1(chi4, phi; eps | {x:2d}) = {v_f.payload:+.6f}", "   exact residue:", v_e.payload)

# The degree-2 count pins one series value analytically: y^2 = x^2+ax+b
# is a conic (complete the square), so its affine count is elementary,
# and N = q + phi(b) + q*phi(b)*2F1(phi, eps; phi | 4b/a^2) recovers the
# series value with no point enumeration at all.
a, b = 2, 5
arg = int(f13.mul(f13.mul(4, b), f13.inv(f13.mul(a, a))))
F = evaluate_hgf(HgfSpec(tops=(phi, eps), bottoms=(phi,), argument=arg), ring_f)
sign = eval_char(phi, b, ring_f).lift_int()
n_affine = (13 + sign + (13 * sign) * F).lift_int()
brute = sum(
    1
    for x in range(13)
    for y in range(13)
    if f13.mul(y, y) == f13.add(f13.mul(x, x), f13.add(f13.mul(a, x), b))
)
print("\nconic count via 2F1:", n_affine, "  by enumeration:", brute)

# Larger series work the same way; the coefficient vector behind each
# (tops, bottoms) pair is computed once per ring and reused.
chi3 = char_of_order(f13, 3)
spec3 = HgfSpec(tops=(chi4, chi3, phi), bottoms=(eps, chi3), argument=6)
print("\n3F2 value (float):", evaluate_hgf(spec3, ring_f).payload)
print("3F2 value (exact residue mod", str(ring_e.ell) + "):", evaluate_hgf(spec3, ring_e).payload)

# The spectrum of a series holds F(g^k) for every k, so F(x) is its entry
# dlog(x).  A ring builds it by itself once a series has been evaluated
# often enough to pay for the transform; series_values asks for it now.
spectrum = series_values(f13, (chi4.index, chi3.index, phi.index),
                         (eps.index, chi3.index), ring_e)
print("3F2 at 6 from the spectrum:", spectrum[dlog(f13, 6)])
