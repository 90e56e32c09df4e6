"""Closed-form affine point counts for two hyperelliptic families.

Family A is y² = x^d + a·x + b and family B is y² = x^d + a·x^{d-1} + b,
both over F_q with a, b nonzero and d >= 2.  Subject to a congruence on
q (mod 2d(d-1), except mod d(d-1) for family B with odd d), the affine
count has one shape,

    N = constant + lead · twist · F(argument),

an integer constant (q plus character corrections), a power of q times a
sign and an optional character value, and one Gaussian hypergeometric
series F whose upper/lower characters depend only on (family, parity of
d) and whose argument is a rational expression in a and b.

:data:`CLOSED_FORMS` holds one :class:`ClosedForm` row per (family,
parity of d): the method tag, the congruence modulus, the character
template, the argument map, the constant term and the prefactor.  The traces
of Frobenius of y² = x³+ax+b and y² = x³+ax²+b are two more rows, sharing
the d=3 count rows' series.  :func:`count_points` is the only count entry
point.  Counting is exact under the residue backend; the float backend
rounds and verifies the result is within tolerance of an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .characters import (
    char_of_order,
    eval_char,
    quadratic_char,
    quadratic_sign,
    trivial_char,
)
from .errors import CongruenceViolated, MixedFieldContexts, ZeroCoefficient
from .ffield import FieldCtx, _as_int, check_code
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

    d, a and b must be integers: a numpy integer is converted to an int,
    and anything else, a float or a bool included, raises a TypeError
    that names the argument.
    """

    family: str
    d: int
    a: int
    b: int

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise ValueError(f"family must be 'A' or 'B', got {self.family!r}")
        for name in ("d", "a", "b"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
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
        check_code(ctx, val, name)
        if val == 0:
            raise ZeroCoefficient(name)


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
# Closed forms.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """One row of the closed-form table: N = constant + lead·twist·F(arg).

    method:     tag carried by CountResult.
    modulus:    d -> m; the form needs q = 1 (mod m).
    characters: (ctx, d) -> (tops, bottoms) of the series F.
    argument:   (ctx, d, a, b) -> the series argument arg.
    constant:   (ctx, d, a, b) -> the integer term.
    prefactor:  (ctx, d, a, b, arg, ring) -> (lead, twist): lead a signed
                power of q, twist a character value or None.
    """

    method: str
    modulus: Callable
    characters: Callable
    argument: Callable
    constant: Callable
    prefactor: Callable


def _a_odd_sign(ctx: FieldCtx, d: int, b: int) -> int:
    """s = (-1)^((q-1)/4) · phi(-b(d-1)), family A's odd-degree sign."""
    sign = quadratic_sign(ctx, ctx.mul(ctx.neg(b), ctx.from_int(d - 1)))
    return -sign if ((ctx.q - 1) // 4) % 2 else sign


CLOSED_FORMS = {
    # N = q + phi(b) + q^(d/2) · phi(b(d-1)) · F(alpha).
    ("A", "even"): ClosedForm(
        FAMILY_A_EVEN, lambda d: 2 * d * (d - 1), even_family_characters,
        alpha_param,
        lambda ctx, d, a, b: ctx.q + quadratic_sign(ctx, b),
        lambda ctx, d, a, b, arg, ring: (
            ctx.q ** (d // 2)
            * quadratic_sign(ctx, ctx.mul(b, ctx.from_int(d - 1))), None)),
    # With s = _a_odd_sign and mu of order 2(d-1):
    # N = q + phi(b) - s + q^((d-1)/2) · s · mu(-1/alpha) · F(-alpha).
    ("A", "odd"): ClosedForm(
        FAMILY_A_ODD, lambda d: 2 * d * (d - 1), family_a_odd_characters,
        lambda ctx, d, a, b: ctx.neg(alpha_param(ctx, d, a, b)),
        lambda ctx, d, a, b: (ctx.q + quadratic_sign(ctx, b)
                              - _a_odd_sign(ctx, d, b)),
        lambda ctx, d, a, b, arg, ring: (
            ctx.q ** ((d - 1) // 2) * _a_odd_sign(ctx, d, b),
            eval_char(char_of_order(ctx, 2 * (d - 1)), ctx.inv(arg), ring))),
    # N = q + phi(b) + q^(d/2) · phi(d-1) · F(beta).
    ("B", "even"): ClosedForm(
        FAMILY_B_EVEN, lambda d: 2 * d * (d - 1), even_family_characters,
        beta_param,
        lambda ctx, d, a, b: ctx.q + quadratic_sign(ctx, b),
        lambda ctx, d, a, b, arg, ring: (
            ctx.q ** (d // 2) * quadratic_sign(ctx, ctx.from_int(d - 1)),
            None)),
    # Only q = 1 (mod d(d-1)): N = q + q^((d-1)/2) · phi(-a·d) · F(-beta).
    ("B", "odd"): ClosedForm(
        FAMILY_B_ODD, lambda d: d * (d - 1), family_b_odd_characters,
        lambda ctx, d, a, b: ctx.neg(beta_param(ctx, d, a, b)),
        lambda ctx, d, a, b: ctx.q,
        lambda ctx, d, a, b, arg, ring: (
            ctx.q ** ((d - 1) // 2)
            * quadratic_sign(ctx, ctx.neg(ctx.mul(a, ctx.from_int(d)))),
            None)),
}

# The d = 3 traces of Frobenius, a_q = q - N, evaluate the series of the
# d = 3 count rows, 2F1(T12, T12^5; phi | -27b²/(4a³)) for family A and
# 2F1(T6, T6^5; eps | -27b/(4a³)) for family B, with their own prefactors:
# a_q = -q · T4(a³/27) · F for family A and -q · phi(-3a) · F for family B.
CLOSED_FORMS["A", "trace"] = replace(
    CLOSED_FORMS["A", "odd"], method="trace_frobenius_linear",
    constant=lambda ctx, d, a, b: 0,
    prefactor=lambda ctx, d, a, b, arg, ring: (
        -ctx.q,
        eval_char(char_of_order(ctx, 4),
                  ctx.mul(ctx.pow_elem(a, 3), ctx.inv(_small_int(ctx, 27))),
                  ring)))
CLOSED_FORMS["B", "trace"] = replace(
    CLOSED_FORMS["B", "odd"], method="trace_frobenius_quadratic",
    constant=lambda ctx, d, a, b: 0,
    prefactor=lambda ctx, d, a, b, arg, ring: (
        (-ctx.q) * quadratic_sign(ctx, ctx.neg(ctx.mul(_small_int(ctx, 3),
                                                        a))),
        None))


def _parity(d: int) -> str:
    return "odd" if d % 2 else "even"


def _closed_form(ctx: FieldCtx, form: ClosedForm, d: int, a: int, b: int,
                 ring=None):
    """The integer constant + lead·twist·F(arg) of one row, with F and arg.

    Returns (value, series value, argument).
    """
    if (ctx.q - 1) % form.modulus(d):
        raise CongruenceViolated(ctx.q, form.modulus(d))
    arg = form.argument(ctx, d, a, b)   # checks a and b first
    ring = get_ring(ctx, "exact") if ring is None else ring
    if ring.ctx is not ctx:
        raise MixedFieldContexts()
    tops, bottoms = form.characters(ctx, d)
    series = evaluate_hgf(HgfSpec(tops, bottoms, arg), ring)
    lead, twist = form.prefactor(ctx, d, a, b, arg, ring)
    term = lead * series if twist is None else lead * twist * series
    return (form.constant(ctx, d, a, b) + term).lift_int(), series, arg


def count_points(ctx: FieldCtx, curve: CurveParams, *, ring=None) -> CountResult:
    """Affine points on the curve, by the closed form of its family and
    the parity of its degree (see :data:`CLOSED_FORMS`).  A ring of
    another field raises :class:`MixedFieldContexts`."""
    form = CLOSED_FORMS[curve.family, _parity(curve.d)]
    n, series, arg = _closed_form(ctx, form, curve.d, curve.a, curve.b,
                                  ring)
    return CountResult(n, form.method, series, arg)


def required_congruence(family: str, d: int) -> int:
    """Modulus m such that the closed form needs q = 1 (mod m)."""
    return CLOSED_FORMS[family, _parity(d)].modulus(d)


def trace_frobenius_linear(ctx: FieldCtx, a: int, b: int, *, ring=None) -> int:
    """Trace of Frobenius for the elliptic curve y² = x³ + a·x + b.

    Requires q = 1 (mod 12) (which forces p > 3).  Returns

        -q * T4(a³/27) * 2F1(T12, T12^5; phi | -27b²/(4a³))

    lifted to an integer, where Tn denotes a character of order n.  The
    result equals q minus the affine point count, so it obeys the Hasse
    bound whenever the cubic is nonsingular.
    """
    return _closed_form(ctx, CLOSED_FORMS["A", "trace"], 3, a, b, ring)[0]


def trace_frobenius_quadratic(ctx: FieldCtx, a: int, b: int, *,
                              ring=None) -> int:
    """Trace of Frobenius for the elliptic curve y² = x³ + a·x² + b.

    Requires q = 1 (mod 6).  Returns

        -q * phi(-3a) * 2F1(T6, T6^5; eps | -27b/(4a³))

    lifted to an integer; equals q minus the affine point count.
    """
    return _closed_form(ctx, CLOSED_FORMS["B", "trace"], 3, a, b, ring)[0]


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
