"""Closed-form point counts: template pinning, oracle spot checks, errors.

The big grids run in the acceptance module; these tests pin the exact
character templates and series arguments the closed forms are built
from, and exercise every validation branch.
"""

import pytest

from hypercount import (
    BRUTE_FORCE,
    CongruenceViolated,
    CountResult,
    CurveParams,
    ZeroCoefficient,
    alpha_param,
    beta_param,
    brute_count,
    build_field,
    count_points,
    cubic_discriminant_linear,
    cubic_discriminant_quadratic,
    even_family_characters,
    family_a_odd_characters,
    family_b_odd_characters,
    get_ring,
    hasse_bound,
    required_congruence,
    trace_frobenius_linear,
    trace_frobenius_quadratic,
)


def indices(chars):
    return [c.index for c in chars]


# ---------------------------------------------------------------------------
# Curve parameter validation
# ---------------------------------------------------------------------------

def test_curve_params_validation():
    with pytest.raises(ValueError):
        CurveParams("C", 3, 1, 1)
    with pytest.raises(ValueError):
        CurveParams("A", 1, 1, 1)
    with pytest.raises(ZeroCoefficient):
        CurveParams("A", 3, 0, 1)
    with pytest.raises(ZeroCoefficient):
        CurveParams("B", 4, 1, 0)


def test_count_result_coerces_numpy_ints():
    import numpy as np

    res = CountResult(np.int64(7), BRUTE_FORCE, None, np.int64(3))
    assert type(res.n_points) is int and type(res.argument) is int


def test_required_congruence():
    assert required_congruence("A", 4) == 24
    assert required_congruence("A", 3) == 12
    assert required_congruence("B", 4) == 24
    assert required_congruence("B", 3) == 6
    assert required_congruence("B", 5) == 20
    assert required_congruence("A", 2) == 4


# ---------------------------------------------------------------------------
# Character templates, pinned by explicit exponent lists
# ---------------------------------------------------------------------------

def test_even_template_d4_q73():
    ctx = build_field(73)
    tops, bottoms = even_family_characters(ctx, 4)
    assert indices(tops) == [36, 0, 18, 54]
    assert indices(bottoms) == [36, 12, 60]


def test_even_template_d2_q13(f13):
    tops, bottoms = even_family_characters(f13, 2)
    assert indices(tops) == [6, 0]
    assert indices(bottoms) == [6]


def test_odd_templates_d5_q41():
    ctx = build_field(41)
    tops, bottoms = family_a_odd_characters(ctx, 5)
    assert indices(tops) == [3, 11, 19, 27]
    assert indices(bottoms) == [10, 20, 30]
    tops, bottoms = family_b_odd_characters(ctx, 5)
    assert indices(tops) == [4, 12, 28, 36]
    assert indices(bottoms) == [10, 30, 0]


def test_odd_templates_d3_q13(f13):
    tops, bottoms = family_a_odd_characters(f13, 3)
    assert indices(tops) == [1, 5]
    assert indices(bottoms) == [6]
    tops, bottoms = family_b_odd_characters(f13, 3)
    assert indices(tops) == [2, 10]
    assert indices(bottoms) == [0]


# ---------------------------------------------------------------------------
# Series arguments
# ---------------------------------------------------------------------------

def test_alpha_beta_formulas(f13):
    for a in range(1, f13.q):
        for b in range(1, f13.q):
            inv = f13.inv
            pe = f13.pow_elem
            # d=2: alpha = 4b/a^2, beta = 4b/a^2.
            expected = f13.mul(f13.from_int(4), f13.mul(b, inv(pe(a, 2))))
            assert alpha_param(f13, 2, a, b) == expected
            assert beta_param(f13, 2, a, b) == expected
            # d=4: alpha = 256 b^3 / (27 a^4), beta = 256 b / (27 a^4).
            denom = inv(f13.mul(f13.from_int(27), pe(a, 4)))
            assert alpha_param(f13, 4, a, b) == \
                f13.mul(f13.mul(f13.from_int(256), pe(b, 3)), denom)
            assert beta_param(f13, 4, a, b) == \
                f13.mul(f13.mul(f13.from_int(256), b), denom)
            # d=5: alpha = 3125 b^4 / (256 a^5), beta = 3125 b / (256 a^5).
            denom = inv(f13.mul(f13.from_int(256), pe(a, 5)))
            assert alpha_param(f13, 5, a, b) == \
                f13.mul(f13.mul(f13.from_int(3125), pe(b, 4)), denom)
            assert beta_param(f13, 5, a, b) == \
                f13.mul(f13.mul(f13.from_int(3125), b), denom)


def test_param_rejects_degenerate_degree(f13):
    # d = 1 (mod p) makes d-1 vanish in F_13 when d = 14: the alpha
    # denominator a*(d-1) is then zero.
    with pytest.raises(ZeroCoefficient):
        alpha_param(f13, 14, 1, 1)


# ---------------------------------------------------------------------------
# Counts against the oracle (spot; grids live in the acceptance suite)
# ---------------------------------------------------------------------------

CASES = [
    (13, 1, "A", 2), (13, 1, "A", 3), (13, 1, "B", 2), (13, 1, "B", 3),
    (73, 1, "A", 4), (73, 1, "B", 4), (41, 1, "A", 5), (41, 1, "B", 5),
    (5, 2, "A", 4), (5, 2, "B", 3), (7, 1, "B", 3), (11, 2, "A", 5),
]


@pytest.mark.parametrize("p,e,family,d", CASES)
def test_counts_match_oracle(p, e, family, d, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    for a, b in [(1, 1), (2, 3), (p - 1, 2), (3, p - 1)]:
        curve = CurveParams(family, d, a % ctx.q or 1, b % ctx.q or 1)
        result = count_points(ctx, curve, ring=ring)
        assert result.n_points == brute_count(ctx, curve), curve
        assert result.method == (
            f"family_{family.lower()}_{'even' if d % 2 == 0 else 'odd'}")
        assert result.hgf_value is not None


def test_congruence_guards(f13):
    with pytest.raises(CongruenceViolated):
        count_points(f13, CurveParams("A", 4, 1, 1))  # needs 24 | 12
    with pytest.raises(CongruenceViolated):
        count_points(f13, CurveParams("A", 5, 1, 1))  # needs 40 | 12
    ctx7 = build_field(7)
    with pytest.raises(CongruenceViolated):
        count_points(ctx7, CurveParams("A", 3, 1, 1))  # needs 12 | 6
    # ...while family B's weaker d(d-1) congruence admits q=7 at d=3.
    res = count_points(ctx7, CurveParams("B", 3, 1, 1))
    assert res.n_points == brute_count(ctx7, CurveParams("B", 3, 1, 1))


def test_argument_stored_matches_series_input(f13, backend):
    ring = get_ring(f13, backend)
    res = count_points(f13, CurveParams("A", 3, 2, 5), ring=ring)
    # Odd-degree closed forms evaluate the series at the negated parameter.
    assert res.argument == f13.neg(alpha_param(f13, 3, 2, 5))
    res = count_points(f13, CurveParams("B", 3, 2, 5), ring=ring)
    assert res.argument == f13.neg(beta_param(f13, 3, 2, 5))
    res = count_points(f13, CurveParams("A", 2, 2, 5), ring=ring)
    assert res.argument == alpha_param(f13, 2, 2, 5)


# ---------------------------------------------------------------------------
# Frobenius traces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(13, 1), (37, 1), (5, 2), (7, 2)])
def test_trace_linear_matches_affine_deficit(p, e, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    for a, b in [(1, 1), (2, 5), (3, 2), (4, 4)]:
        t = trace_frobenius_linear(ctx, a, b, ring=ring)
        assert t == ctx.q - brute_count(ctx, CurveParams("A", 3, a, b))
        # The paper's d = 3 corollary: the trace is q minus the count.
        assert t == ctx.q - count_points(ctx, CurveParams("A", 3, a, b),
                                         ring=ring).n_points
        if cubic_discriminant_linear(ctx, a, b) != 0:
            assert abs(t) <= hasse_bound(ctx.q)


@pytest.mark.parametrize("p,e", [(7, 1), (13, 1), (5, 2)])
def test_trace_quadratic_matches_affine_deficit(p, e, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    for a, b in [(1, 1), (2, 3), (3, 1), (5, 2)]:
        t = trace_frobenius_quadratic(ctx, a % ctx.q, b % ctx.q, ring=ring)
        curve = CurveParams("B", 3, a % ctx.q, b % ctx.q)
        assert t == ctx.q - brute_count(ctx, curve)
        assert t == ctx.q - count_points(ctx, curve, ring=ring).n_points
        if cubic_discriminant_quadratic(ctx, a % ctx.q, b % ctx.q) != 0:
            assert abs(t) <= hasse_bound(ctx.q)


def test_trace_congruence_guards(f25):
    ctx7 = build_field(7)
    with pytest.raises(CongruenceViolated):
        trace_frobenius_linear(ctx7, 1, 1)  # needs q = 1 (mod 12)
    t = trace_frobenius_quadratic(ctx7, 1, 1)  # q = 1 (mod 6) suffices
    assert t == 7 - brute_count(ctx7, CurveParams("B", 3, 1, 1))


def test_discriminants(f13):
    # y^2 = x^3 + ax + b is singular iff 4a^3 + 27b^2 = 0; check the code
    # against a hand expansion at a few points.
    for a in range(1, 13):
        for b in range(1, 13):
            expected = (-16 * (4 * a**3 + 27 * b**2)) % 13
            assert cubic_discriminant_linear(f13, a, b) == expected
            expected = (-16 * b * (4 * a**3 + 27 * b)) % 13
            assert cubic_discriminant_quadratic(f13, a, b) == expected
