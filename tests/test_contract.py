"""The input contract, as property tests.

Every call of a public entry point returns, raises a HypercountError, or
raises the package's own TypeError or ValueError: one that a ``raise``
statement in the package raised.  It never ends in IndexError,
OverflowError, a numpy error or a warning.  Inputs range over odd prime
powers below 2000 and numbers that are not prime powers, degrees 2-8
and near 2^60, coefficients from -1 to q, and floats, bools and numpy
integers in every integer slot.  On prime fields, brute_count equals a
pure-Python count (pow(x, d, p) and Euler's criterion), which shares no
code with the package, and quad_component meets
q·N = q² + q·phi(b) + quad_component against that count.
"""

import os
import traceback
import warnings

import numpy as np
import sympy
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import hypercount
from hypercount import (
    CurveParams,
    HgfSpec,
    HypercountError,
    MultChar,
    brute_count,
    build_field,
    count_points,
    eval_char,
    evaluate_hgf,
    get_ring,
    quad_component,
    quadratic_char,
)

PACKAGE = os.path.dirname(hypercount.__file__)

CONTRACT = settings(derandomize=True, database=None, max_examples=300,
                    deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Odd prime powers below 2000, as (q, p, e), by sympy rather than the
#: package.
PRIME_POWERS = [(q, *next(iter(sympy.factorint(q).items())))
                for q in range(3, 2000, 2)
                if len(sympy.factorint(q)) == 1]
NOT_PRIME_POWERS = [n for n in range(-3, 2000)
                    if n < 3 or n % 2 == 0 or len(sympy.factorint(n)) > 1]

#: Values that are not integers, and numpy integers, for any integer slot.
NON_INTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.sampled_from([np.bool_(True), np.float64(3.0), "3", None]))


def numpy_ints(values):
    """Each integer of ``values`` as every numpy integer type that holds it."""
    return values.flatmap(lambda n: st.sampled_from(
        [t(n) for t in (np.int64, np.uint64)
         if np.iinfo(t).min <= n <= np.iinfo(t).max] or [n]))


def ints_or_not(values):
    """The integers of ``values``, their numpy forms, and non-integers, in
    the ratio 3 : 1 : 1, so that most examples get past the constructors."""
    return st.one_of(values, values, values, numpy_ints(values), NON_INTS)


def is_int(value):
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


def outcome(call, *args, **kwargs):
    """call(*args, **kwargs), or the error it raised if that error is the package's
    own; any other error, or any warning, fails the test."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return call(*args, **kwargs)
    except HypercountError as ex:
        return ex
    except (TypeError, ValueError) as ex:
        site = traceback.extract_tb(ex.__traceback__)[-1]
        assert site.filename.startswith(PACKAGE), (call, args, site)
        assert site.line.startswith("raise"), (call, args, site)
        return ex


def pure_count(p, family, d, a, b):
    """Affine points of y² = f(x) over F_p, by Euler's criterion."""
    n = 0
    for x in range(p):
        mid = a * (x if family == "A" else pow(x, d - 1, p))
        v = (pow(x, d, p) + mid + b) % p
        n += 1 if v == 0 else 1 + (1 if pow(v, (p - 1) // 2, p) == 1 else -1)
    return n


fields = st.sampled_from(PRIME_POWERS)
degrees = ints_or_not(st.one_of(st.integers(2, 8), st.integers(2, 8),
                                st.integers(2**60 - 4, 2**60 + 4)))


@CONTRACT
@given(p=st.one_of(st.sampled_from([q for q, _, _ in PRIME_POWERS]),
                   st.sampled_from(NOT_PRIME_POWERS),
                   numpy_ints(st.integers(-3, 2000)), NON_INTS),
       e=ints_or_not(st.integers(-1, 3)))
def test_build_field_contract(p, e):
    # A budget of 4096 keeps every field that builds small.
    ctx = outcome(build_field, p, e, 4096)
    if isinstance(ctx, hypercount.FieldCtx):
        assert ctx.q == int(p) ** int(e) <= 4096


@settings(CONTRACT, max_examples=600)
@given(field=fields, family=st.sampled_from("AB"), d=degrees,
       data=st.data(), backend=st.sampled_from(["exact", "float"]))
def test_curve_contract(field, family, d, data, backend):
    q, p, e = field
    # Mostly codes of the field, so that most curves get counted.
    coeff = st.one_of(st.integers(1, q - 1), ints_or_not(st.integers(-1, q)))
    a, b = data.draw(coeff), data.draw(coeff)
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    curve = outcome(CurveParams, family, d, a, b)
    if not isinstance(curve, CurveParams):
        return
    result = outcome(count_points, ctx, curve, ring=ring)
    n = outcome(brute_count, ctx, curve)
    quad = outcome(quad_component, ctx, curve, ring)
    in_field = 0 < curve.a < q and 0 < curve.b < q
    # A code outside the field is refused by every call.
    assert isinstance(n, int) == in_field, (curve, n)
    assert isinstance(quad, Exception) != in_field, (curve, quad)
    if not in_field:
        return
    if not isinstance(result, Exception):
        event("closed form")
        assert result.n_points == n, curve
    if e == 1:
        event("pure-Python count")
        assert n == pure_count(p, family, curve.d, curve.a, curve.b), curve
        phi_b = 1 if pow(curve.b, (p - 1) // 2, p) == 1 else -1
        assert quad.isclose(q * (n - q - phi_b), scale=q * q), curve


@CONTRACT
@given(field=fields, index=ints_or_not(st.integers(-2**64, 2**64)),
       data=st.data(), backend=st.sampled_from(["exact", "float"]))
def test_character_contract(field, index, data, backend):
    q, p, e = field
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    code = ints_or_not(st.integers(-1, q))
    x, argument = data.draw(code), data.draw(code)
    chi = outcome(MultChar, ctx, index)
    if isinstance(chi, MultChar):
        assert 0 <= chi.index < q - 1 and type(chi.index) is int
        value = outcome(eval_char, chi, x, ring)
        assert isinstance(value, Exception) != (is_int(x) and 0 <= x < q)
    phi = quadratic_char(ctx)
    spec = outcome(HgfSpec, (phi, phi), (phi,), argument)
    if isinstance(spec, HgfSpec):
        assert type(spec.argument) is int and 0 <= spec.argument < q
        outcome(evaluate_hgf, spec, ring)
