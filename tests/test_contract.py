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

The command line keeps the same contract through ``cli.main``, run in
process: ``count``, ``sweep`` and ``verify`` exit 0 or 1, never with a
traceback, and exit 1 prints one ``hypercount: error:`` line.  A count
that exits 0 on a prime field equals the pure-Python count.
"""

import contextlib
import io
import os
import re
import traceback
import warnings

import numpy as np
import sympy
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import hypercount
from hypercount import (
    DEFAULT_TABLE_BUDGET,
    CurveParams,
    HgfSpec,
    HypercountError,
    MultChar,
    binom_column,
    brute_count,
    build_field,
    char_of_order,
    cli,
    coefficient_vector,
    count_points,
    cubic_discriminant_linear,
    cubic_discriminant_quadratic,
    davenport_hasse_products,
    eval_char,
    evaluate_hgf,
    get_ring,
    quad_component,
    quadratic_char,
    required_congruence,
    series_values,
    theta,
    theta_scaled_sum,
    trace_map,
    verify_davenport_hasse,
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


def is_real(value):
    return (isinstance(value, (int, float, np.integer, np.floating))
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


@settings(CONTRACT, max_examples=200)
@given(field=fields, data=st.data(),
       backend=st.sampled_from(["exact", "float"]))
def test_field_function_contract(field, data, backend):
    q, p, e = field
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    code = ints_or_not(st.integers(-1, q))
    alpha, a, b = data.draw(code), data.draw(code), data.draw(code)
    trace = outcome(trace_map, ctx, alpha)
    assert isinstance(trace, Exception) != (is_int(alpha) and 0 <= alpha < q)
    outcome(theta, ctx, alpha, ring)
    zsum = outcome(theta_scaled_sum, ctx, alpha, ring)
    assert isinstance(zsum, Exception) != (is_int(alpha) and 0 <= alpha < q)
    in_field = all(is_int(c) and 0 <= c < q for c in (a, b))
    for disc in (cubic_discriminant_linear, cubic_discriminant_quadratic):
        value = outcome(disc, ctx, a, b)
        assert isinstance(value, Exception) != in_field, (disc, a, b)
    if in_field and e == 1:
        ai, bi = int(a), int(b)
        assert cubic_discriminant_linear(ctx, a, b) == \
            -16 * (4 * ai**3 + 27 * bi * bi) % p
        assert cubic_discriminant_quadratic(ctx, a, b) == \
            -16 * bi * (4 * ai**3 + 27 * bi) % p
    n = data.draw(ints_or_not(st.integers(-2, 2 * q)))
    chi = outcome(char_of_order, ctx, n)
    if isinstance(chi, MultChar):
        assert chi.order == n
    index = ints_or_not(st.integers(-2**64, 2**64))
    column = outcome(binom_column, ctx, data.draw(index), data.draw(index),
                     ring)
    if not isinstance(column, Exception):
        assert len(column) == q - 1


@settings(CONTRACT, max_examples=150)
@given(field=st.sampled_from([f for f in PRIME_POWERS if f[0] < 400]),
       m=ints_or_not(st.one_of(st.integers(1, 6), st.integers(-1, 12),
                               st.integers(2**62, 2**65))),
       psi=ints_or_not(st.integers(-2**64, 2**64)),
       backend=st.sampled_from(["exact", "float"]))
def test_davenport_hasse_contract(field, m, psi, backend):
    q, p, e = field
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    # A check that runs must pass: the relation holds on every field.
    report = outcome(davenport_hasse_products, ctx, m, ring)
    if not isinstance(report, Exception):
        event("Davenport-Hasse relation checked")
        assert report.passed, (q, m)
    reports = outcome(verify_davenport_hasse, ctx, m, psi, ring)
    if not isinstance(reports, Exception):
        assert all(r.passed for r in reports), (q, m, psi)


@settings(CONTRACT, max_examples=200)
@given(field=fields, data=st.data(),
       backend=st.sampled_from(["exact", "float"]))
def test_series_contract(field, data, backend):
    q, p, e = field
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    index = st.integers(-2 * q, 2 * q)
    n = data.draw(st.integers(0, 3))
    tops = data.draw(st.lists(index, min_size=n + 1, max_size=n + 1))
    bottoms = data.draw(st.lists(index, min_size=n, max_size=n))
    # An example gets at most one fault: an index that is not a plain
    # integer, or one lower index too many or too few.
    fault = data.draw(st.sampled_from([None, "index", "more", "fewer"]))
    if fault == "index":
        tops[data.draw(st.integers(0, n))] = data.draw(
            st.one_of(numpy_ints(index), NON_INTS))
    elif fault == "more":
        bottoms.append(0)
    elif fault == "fewer":
        bottoms = bottoms[:-1] if bottoms else [0, 0]
    for call in (coefficient_vector, series_values):
        values = outcome(call, ctx, tuple(tops), tuple(bottoms), ring)
        if not isinstance(values, Exception):
            event("series computed")
            assert len(tops) == len(bottoms) + 1 and len(values) == q - 1
            assert all(map(is_int, tops + bottoms))


@settings(CONTRACT, max_examples=200)
@given(field=st.sampled_from([f for f in PRIME_POWERS if f[0] < 200]),
       backend=st.sampled_from(["exact", "float", "other"]),
       tolerance=st.one_of(st.floats(), st.integers(-1, 2), NON_INTS),
       d_max=st.one_of(st.none(), ints_or_not(st.one_of(
           st.integers(-1, 8), st.integers(2**59, 2**64)))))
def test_get_ring_contract(field, backend, tolerance, d_max):
    q, p, e = field
    ring = outcome(get_ring, build_field(p, e), backend,
                   tolerance=tolerance, d_max=d_max)
    if not isinstance(ring, Exception):
        assert ring.backend == backend and ring.ctx.q == q
        assert is_real(tolerance) and (d_max is None or is_int(d_max))


@settings(CONTRACT, max_examples=100)
@given(family=st.sampled_from(["A", "B", "C", None]),
       d=ints_or_not(st.integers(-1, 8)))
def test_required_congruence_contract(family, d):
    modulus = outcome(required_congruence, family, d)
    if not isinstance(modulus, Exception):
        assert type(modulus) is int and modulus > 0
        assert family in ("A", "B") and is_int(d) and d >= 2


# ---------------------------------------------------------------------------
# The command line.
# ---------------------------------------------------------------------------

def run_cli(argv):
    """cli.main(argv) in process: (exit code, stdout, stderr).  Any warning
    fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(list(argv))
    err = err.getvalue()
    assert code in (0, 1), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        errors = [ln for ln in err.splitlines()
                  if ln.startswith("hypercount: error:")]
        assert len(errors) == 1, (argv, err)
    return code, out.getvalue(), err


def with_edge(data, options, edges):
    """argv from an option dict, after at most one edge case: a third of
    the time one (option, value) pair drawn from ``edges`` replaces or
    adds its option, so that most runs get past argument checks."""
    options = dict(options)
    edge = data.draw(st.one_of(st.none(), st.none(), st.sampled_from(edges)))
    if edge is not None:
        options[edge[0]] = edge[1]
    return [token for option, value in options.items()
            for token in ((option,) if value is None else (option, value))]


def common_edges(q):
    """Edge cases of the options every subcommand takes: tolerances,
    table budgets at and past their limits, and tokens that are not
    integers or numbers."""
    return ([("--tolerance", t) for t in ("1e-300", "0.25", "1e300", "nan",
                                          "inf", "0", "-1e-6", "x")]
            + [("--table-budget", b) for b in (
                str(q - 1), str(q), str(DEFAULT_TABLE_BUDGET),
                str(DEFAULT_TABLE_BUDGET + 1), "-1", "2.0")]
            + [("--seed", s) for s in ("-1", str(2**64), "x")]
            + [("--format", "yaml"), ("--backend", "both")])


backends = st.sampled_from(["exact", "float"])
formats = st.sampled_from(["text", "json", "csv"])


@settings(CONTRACT, max_examples=200)
@given(q=st.one_of(st.sampled_from([q for q, _, _ in PRIME_POWERS]),
                   st.sampled_from([q for q, _, _ in PRIME_POWERS]),
                   st.sampled_from([q for q, _, _ in PRIME_POWERS]),
                   st.sampled_from(NOT_PRIME_POWERS + [4099, 2**64 + 1])),
       family=st.sampled_from("AB"),
       d=st.one_of(st.integers(2, 8), st.integers(2, 8), st.integers(2, 8),
                   st.integers(2**59, 2**64)),
       mode=st.sampled_from([None, "--check", "--brute"]),
       backend=backends, output_format=formats, data=st.data())
def test_cli_count_contract(q, family, d, mode, backend, output_format, data):
    a, b = (data.draw(st.integers(1, max(1, q - 1))) for _ in range(2))
    options = {"--q": str(q), "--family": family, "--d": str(d),
               "--a": str(a), "--b": str(b), "--backend": backend,
               "--format": output_format}
    if mode:
        options[mode] = None
    edges = common_edges(q) + [
        ("--family", "C"), ("--d", "1"), ("--d", "4.0"), ("--a", "-1"),
        ("--a", "0"), ("--b", str(q)), ("--b", "x"), ("--q", "7.0")]
    argv = ["count", *with_edge(data, options, edges)]
    code, out, _ = run_cli(argv)
    if code == 0 and sympy.isprime(q):
        event("count checked against the pure-Python count")
        n = int(re.search(r'n_points"?[=:] ?(\d+)', out).group(1))
        a, b = (int(argv[argv.index(name) + 1]) for name in ("--a", "--b"))
        assert n == pure_count(q, family, d, a, b), argv


@settings(CONTRACT, max_examples=40)
@given(q_max=st.integers(3, 60),
       degrees=st.lists(st.integers(2, 6), min_size=1, max_size=3),
       samples=st.integers(1, 3),
       family=st.sampled_from(["A", "B", "AB"]),
       backend=backends, output_format=formats, data=st.data())
def test_cli_sweep_contract(q_max, degrees, samples, family, backend,
                            output_format, data):
    options = {"--q-max": str(q_max), "--d": ",".join(map(str, degrees)),
               "--samples": str(samples), "--family": family,
               "--backend": backend, "--format": output_format}
    edges = common_edges(q_max) + [
        ("--q-max", "2"), ("--q-max", "-1"), ("--d", ""), ("--d", "1,4"),
        ("--d", "4,x"), ("--d", str(2**64)), ("--samples", "0"),
        ("--family", "C")]
    run_cli(["sweep", *with_edge(data, options, edges)])


@settings(CONTRACT, max_examples=40)
@given(q=st.sampled_from([q for q, _, _ in PRIME_POWERS if q < 60]),
       backend=backends, output_format=formats, data=st.data())
def test_cli_verify_contract(q, backend, output_format, data):
    options = {"--q": str(q), "--backend": backend,
               "--format": output_format}
    edges = common_edges(q) + [
        ("--q", "4099"), ("--q", "15"), ("--q", "2"), ("--q", "x"),
        ("--q-max", "30"), ("--q-max", "-1"), ("--q-max", "2.0")]
    run_cli(["verify", *with_edge(data, options, edges)])
