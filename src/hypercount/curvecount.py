"""Closed-form affine point counts for two hyperelliptic families.

Family A is y² = x^d + a·x + b and family B is y² = x^d + a·x^{d-1} + b,
both over F_q with a, b nonzero and d >= 2.  Subject to a congruence on
q (mod 2d(d-1), except mod d(d-1) for family B with odd d), the affine
count equals q plus explicit character corrections plus a power of q
times one Gaussian hypergeometric series value whose upper/lower
characters depend only on (family, parity of d) and whose argument is a
rational expression in a and b.

The four closed forms, the parameter maps producing those arguments,
and d=3 specializations giving the trace of Frobenius for the elliptic
curves y² = x³+ax+b and y² = x³+ax²+b all live here.  Counting is exact
under the residue backend; the float backend rounds and verifies the
result is within tolerance of an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characters import (
    MultChar,
    char_of_order,
    eval_char,
    quadratic_char,
    quadratic_sign,
    trivial_char,
)
from .errors import CongruenceViolated, ZeroCoefficient
from .ffield import FieldCtx
from .hypergeom import HgfSpec, evaluate_hgf
from .values import CharValue, get_ring

#: Method tags carried by CountResult (also the CLI's method vocabulary).
FAMILY_A_EVEN = "family_a_even"
FAMILY_A_ODD = "family_a_odd"
FAMILY_B_EVEN = "family_b_even"
FAMILY_B_ODD = "family_b_odd"
BRUTE_FORCE = "brute_force"

COUNT_METHODS = (FAMILY_A_EVEN, FAMILY_A_ODD, FAMILY_B_EVEN, FAMILY_B_ODD,
                 BRUTE_FORCE)


@dataclass(frozen=True)
class CurveParams:
    """One member of a hyperelliptic family.

    family: "A" for y² = x^d + a·x + b, "B" for y² = x^d + a·x^{d-1} + b.
    d:      polynomial degree, at least 2 (the families coincide at d=2).
    a, b:   nonzero field-element codes.
    """

    family: str
    d: int
    a: int
    b: int

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise ValueError(f"family must be 'A' or 'B', got {self.family!r}")
        if self.d < 2:
            raise ValueError(f"degree must be >= 2, got {self.d}")
        if self.a == 0:
            raise ZeroCoefficient("a")
        if self.b == 0:
            raise ZeroCoefficient("b")


@dataclass(frozen=True)
class CountResult:
    """Outcome of one point count.

    n_points:  number of affine F_q-points (y² = f(x) solutions).
    method:    one of COUNT_METHODS.
    hgf_value: the series value the closed form used (None for brute force).
    argument:  field-element code the series was evaluated at (None for
               brute force).
    """

    n_points: int
    method: str
    hgf_value: CharValue | None
    argument: int | None

    def __post_init__(self):
        object.__setattr__(self, "n_points", int(self.n_points))
        if self.argument is not None:
            object.__setattr__(self, "argument", int(self.argument))


def check_coeffs(ctx: FieldCtx, a: int, b: int) -> None:
    """Refuse a or b unless it is a field-element code in [1, q)."""
    for name, val in (("a", a), ("b", b)):
        if not 0 <= val < ctx.q:
            raise ValueError(f"{name}={val} is not a field-element code in "
                             f"[0, {ctx.q})")
        if val == 0:
            raise ZeroCoefficient(name)


def _check_congruence(ctx: FieldCtx, modulus: int) -> None:
    if (ctx.q - 1) % modulus:
        raise CongruenceViolated(ctx.q, modulus)


def _small_int(ctx: FieldCtx, n: int) -> int:
    """Image of the rational integer n in F_q, refusing to vanish."""
    elem = ctx.from_int(n)
    if elem == 0:
        raise ZeroCoefficient(f"integer {n} vanishes in characteristic {ctx.p}")
    return elem


def alpha_param(ctx: FieldCtx, d: int, a: int, b: int) -> int:
    """Series argument for family A: (d/a) * (b*d / (a*(d-1)))^(d-1)."""
    check_coeffs(ctx, a, b)
    dd = _small_int(ctx, d)
    dm1 = _small_int(ctx, d - 1)
    inner = ctx.mul(ctx.mul(b, dd), ctx.inv(ctx.mul(a, dm1)))
    return ctx.mul(ctx.mul(dd, ctx.inv(a)), ctx.pow_elem(inner, d - 1))


def beta_param(ctx: FieldCtx, d: int, a: int, b: int) -> int:
    """Series argument for family B: b * d^d / (a^d * (d-1)^(d-1))."""
    check_coeffs(ctx, a, b)
    dd = _small_int(ctx, d)
    dm1 = _small_int(ctx, d - 1)
    num = ctx.mul(b, ctx.pow_elem(dd, d))
    den = ctx.mul(ctx.pow_elem(a, d), ctx.pow_elem(dm1, d - 1))
    return ctx.mul(num, ctx.inv(den))


# ---------------------------------------------------------------------------
# Character templates.  Slot i >= 1 of a series pairs tops[i] with
# bottoms[i-1]; tops[0] is the distinguished upper character.
# ---------------------------------------------------------------------------

def even_family_characters(ctx: FieldCtx, d: int):
    """Upper/lower characters shared by both families for even d.

    tops:    phi, eps, then chi^j for j = 1..d-1 skipping j = d/2,
             where chi has order d.
    bottoms: phi, then psi^j for odd j = 1..2d-3 skipping j = d-1,
             where psi has order 2(d-1).
    At d = 2 both progressions are empty and the series degenerates to
    a 2F1 with tops (phi, eps) and bottom (phi).
    """
    phi = quadratic_char(ctx)
    eps = trivial_char(ctx)
    chi = char_of_order(ctx, d)
    psi = char_of_order(ctx, 2 * (d - 1))
    tops = [phi, eps] + [chi**j for j in range(1, d) if j != d // 2]
    bottoms = [phi] + [psi**j for j in range(1, 2 * d - 2, 2) if j != d - 1]
    return tuple(tops), tuple(bottoms)


def family_a_odd_characters(ctx: FieldCtx, d: int):
    """Upper/lower characters for family A with odd d >= 3.

    tops:    xi^(d-2+2(d-1)j) for j = 0..d-2, xi of order 2d(d-1).
    bottoms: psi^(2j) for j = 1..d-2, psi of order 2(d-1).
    """
    xi = char_of_order(ctx, 2 * d * (d - 1))
    psi = char_of_order(ctx, 2 * (d - 1))
    tops = [xi**(d - 2 + 2 * (d - 1) * j) for j in range(d - 1)]
    bottoms = [psi**(2 * j) for j in range(1, d - 1)]
    return tuple(tops), tuple(bottoms)


def family_b_odd_characters(ctx: FieldCtx, d: int):
    """Upper/lower characters for family B with odd d >= 3.

    tops:    eta^j for odd j = 1..2d-1 skipping j = d, eta of order 2d.
    bottoms: rho^j for j = 1..d-2 skipping j = (d-1)/2, rho of order
             d-1, followed by the trivial character.
    """
    eta = char_of_order(ctx, 2 * d)
    rho = char_of_order(ctx, d - 1)
    tops = [eta**j for j in range(1, 2 * d, 2) if j != d]
    bottoms = [rho**j for j in range(1, d - 1) if j != (d - 1) // 2]
    bottoms.append(trivial_char(ctx))
    return tuple(tops), tuple(bottoms)


# ---------------------------------------------------------------------------
# Closed-form counts.
# ---------------------------------------------------------------------------

def count_family_a_even(ctx: FieldCtx, d: int, a: int, b: int, *,
                        ring=None) -> CountResult:
    """Affine points on y² = x^d + a·x + b for even d.

    Requires q = 1 (mod 2d(d-1)).  The count is

        N = q + phi(b) + q^(d/2) * phi(b(d-1)) * F(alpha)

    with F the even-family series and alpha = alpha_param(d, a, b).
    """
    if d < 2 or d % 2:
        raise ValueError(f"even-degree count requires even d >= 2, got {d}")
    _check_congruence(ctx, 2 * d * (d - 1))
    check_coeffs(ctx, a, b)
    ring = get_ring(ctx, "exact") if ring is None else ring
    arg = alpha_param(ctx, d, a, b)
    tops, bottoms = even_family_characters(ctx, d)
    series = evaluate_hgf(HgfSpec(tops, bottoms, arg), ring)
    lead = ctx.q ** (d // 2) * quadratic_sign(ctx, ctx.mul(b, ctx.from_int(d - 1)))
    total = (ctx.q + quadratic_sign(ctx, b)) + lead * series
    return CountResult(total.lift_int(), FAMILY_A_EVEN, series, arg)


def count_family_a_odd(ctx: FieldCtx, d: int, a: int, b: int, *,
                       ring=None) -> CountResult:
    """Affine points on y² = x^d + a·x + b for odd d >= 3.

    Requires q = 1 (mod 2d(d-1)).  With s = (-1)^((q-1)/4) * phi(-b(d-1))
    and mu of order 2(d-1), the count is

        N = q + phi(b) - s + q^((d-1)/2) * s * mu(-1/alpha) * F(-alpha).
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"odd-degree count requires odd d >= 3, got {d}")
    _check_congruence(ctx, 2 * d * (d - 1))
    check_coeffs(ctx, a, b)
    ring = get_ring(ctx, "exact") if ring is None else ring
    alpha = alpha_param(ctx, d, a, b)
    arg = ctx.neg(alpha)
    tops, bottoms = family_a_odd_characters(ctx, d)
    series = evaluate_hgf(HgfSpec(tops, bottoms, arg), ring)
    sign = quadratic_sign(ctx, ctx.mul(ctx.neg(b), ctx.from_int(d - 1)))
    sign *= -1 if ((ctx.q - 1) // 4) % 2 else 1
    twist = eval_char(char_of_order(ctx, 2 * (d - 1)),
                      ctx.neg(ctx.inv(alpha)), ring)
    total = (ctx.q + quadratic_sign(ctx, b) - sign) \
        + (ctx.q ** ((d - 1) // 2) * sign) * twist * series
    return CountResult(total.lift_int(), FAMILY_A_ODD, series, arg)


def count_family_b_even(ctx: FieldCtx, d: int, a: int, b: int, *,
                        ring=None) -> CountResult:
    """Affine points on y² = x^d + a·x^{d-1} + b for even d.

    Requires q = 1 (mod 2d(d-1)).  The count is

        N = q + phi(b) + q^(d/2) * phi(d-1) * F(beta)

    with the same characters as the even family-A count but argument
    beta = beta_param(d, a, b).
    """
    if d < 2 or d % 2:
        raise ValueError(f"even-degree count requires even d >= 2, got {d}")
    _check_congruence(ctx, 2 * d * (d - 1))
    check_coeffs(ctx, a, b)
    ring = get_ring(ctx, "exact") if ring is None else ring
    arg = beta_param(ctx, d, a, b)
    tops, bottoms = even_family_characters(ctx, d)
    series = evaluate_hgf(HgfSpec(tops, bottoms, arg), ring)
    lead = ctx.q ** (d // 2) * quadratic_sign(ctx, ctx.from_int(d - 1))
    total = (ctx.q + quadratic_sign(ctx, b)) + lead * series
    return CountResult(total.lift_int(), FAMILY_B_EVEN, series, arg)


def count_family_b_odd(ctx: FieldCtx, d: int, a: int, b: int, *,
                       ring=None) -> CountResult:
    """Affine points on y² = x^d + a·x^{d-1} + b for odd d >= 3.

    Requires only q = 1 (mod d(d-1)).  The count is

        N = q + q^((d-1)/2) * phi(-a·d) * F(-beta).
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"odd-degree count requires odd d >= 3, got {d}")
    _check_congruence(ctx, d * (d - 1))
    check_coeffs(ctx, a, b)
    ring = get_ring(ctx, "exact") if ring is None else ring
    arg = ctx.neg(beta_param(ctx, d, a, b))
    tops, bottoms = family_b_odd_characters(ctx, d)
    series = evaluate_hgf(HgfSpec(tops, bottoms, arg), ring)
    sign = quadratic_sign(ctx, ctx.neg(ctx.mul(a, ctx.from_int(d))))
    total = ctx.q + (ctx.q ** ((d - 1) // 2) * sign) * series
    return CountResult(total.lift_int(), FAMILY_B_ODD, series, arg)


def count_points(ctx: FieldCtx, curve: CurveParams, *, ring=None) -> CountResult:
    """Dispatch to the closed form matching the curve's family and parity."""
    if curve.family == "A":
        fn = count_family_a_even if curve.d % 2 == 0 else count_family_a_odd
    else:
        fn = count_family_b_even if curve.d % 2 == 0 else count_family_b_odd
    return fn(ctx, curve.d, curve.a, curve.b, ring=ring)


def required_congruence(family: str, d: int) -> int:
    """Modulus m such that the closed form needs q = 1 (mod m)."""
    if family == "B" and d % 2:
        return d * (d - 1)
    return 2 * d * (d - 1)


# ---------------------------------------------------------------------------
# d = 3 trace-of-Frobenius specializations.
# ---------------------------------------------------------------------------

def trace_frobenius_linear(ctx: FieldCtx, a: int, b: int, *, ring=None) -> int:
    """Trace of Frobenius for the elliptic curve y² = x³ + a·x + b.

    Requires q = 1 (mod 12) (which forces p > 3).  Returns

        -q * T4(a³/27) * 2F1(T12, T12^5; phi | -27b²/(4a³))

    lifted to an integer, where Tn denotes a character of order n.  The
    result equals q minus the affine point count, so it obeys the Hasse
    bound whenever the cubic is nonsingular.
    """
    _check_congruence(ctx, 12)
    check_coeffs(ctx, a, b)
    ring = get_ring(ctx, "exact") if ring is None else ring
    a3 = ctx.pow_elem(a, 3)
    arg = ctx.neg(ctx.mul(ctx.mul(_small_int(ctx, 27), ctx.mul(b, b)),
                          ctx.inv(ctx.mul(_small_int(ctx, 4), a3))))
    c12 = char_of_order(ctx, 12)
    spec = HgfSpec((c12, c12**5), (quadratic_char(ctx),), arg)
    twist = eval_char(char_of_order(ctx, 4),
                      ctx.mul(a3, ctx.inv(_small_int(ctx, 27))), ring)
    return ((-ctx.q) * twist * evaluate_hgf(spec, ring)).lift_int()


def trace_frobenius_quadratic(ctx: FieldCtx, a: int, b: int, *,
                              ring=None) -> int:
    """Trace of Frobenius for the elliptic curve y² = x³ + a·x² + b.

    Requires q = 1 (mod 6).  Returns

        -q * phi(-3a) * 2F1(T6, T6^5; eps | -27b/(4a³))

    lifted to an integer; equals q minus the affine point count.
    """
    _check_congruence(ctx, 6)
    check_coeffs(ctx, a, b)
    ring = get_ring(ctx, "exact") if ring is None else ring
    arg = ctx.neg(ctx.mul(ctx.mul(_small_int(ctx, 27), b),
                          ctx.inv(ctx.mul(_small_int(ctx, 4),
                                          ctx.pow_elem(a, 3)))))
    c6 = char_of_order(ctx, 6)
    spec = HgfSpec((c6, c6**5), (trivial_char(ctx),), arg)
    sign = quadratic_sign(ctx, ctx.neg(ctx.mul(_small_int(ctx, 3), a)))
    return ((-ctx.q) * sign * evaluate_hgf(spec, ring)).lift_int()


def cubic_discriminant_linear(ctx: FieldCtx, a: int, b: int) -> int:
    """Discriminant code of y² = x³+ax+b: -16(4a³ + 27b²)."""
    val = ctx.add(ctx.mul(ctx.from_int(4), ctx.pow_elem(a, 3)),
                  ctx.mul(ctx.from_int(27), ctx.mul(b, b)))
    return ctx.mul(ctx.from_int(-16), val)


def cubic_discriminant_quadratic(ctx: FieldCtx, a: int, b: int) -> int:
    """Discriminant code of y² = x³+ax²+b: -16·b·(4a³ + 27b)."""
    val = ctx.add(ctx.mul(ctx.from_int(4), ctx.pow_elem(a, 3)),
                  ctx.mul(ctx.from_int(27), b))
    return ctx.mul(ctx.mul(ctx.from_int(-16), b), val)


def hasse_bound(q: int) -> float:
    """The classical bound 2*sqrt(q) on |trace| for nonsingular cubics."""
    return 2.0 * math.sqrt(q)
