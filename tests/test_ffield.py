"""Field construction and table-arithmetic checks.

The independent reference here is naive polynomial arithmetic modulo the
field's own modulus, reimplemented inline — it exercises none of the
log-table machinery the package uses.
"""

import hashlib
import random

import numpy as np
import pytest
import sympy

from hypercount import (
    LogOfZero,
    NotPrime,
    TableBudgetExceeded,
    build_field,
    dlog,
    get_ring,
    trace_map,
)
from hypercount.ffield import is_prime, least_primitive_root, prime_factors


def naive_mul(ctx, u, v):
    """Schoolbook polynomial product mod (modulus, p) on element codes."""
    p, e = ctx.p, ctx.e
    uc = [(u // p**i) % p for i in range(e)]
    vc = [(v // p**i) % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, a in enumerate(uc):
        for j, b in enumerate(vc):
            prod[i + j] = (prod[i + j] + a * b) % p
    mod = list(ctx.modulus)
    for top in range(len(prod) - 1, e - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for k in range(e):
                prod[top - e + k] = (prod[top - e + k] - c * mod[k]) % p
    return sum(c * p**i for i, c in enumerate(prod[:e]))


# ---------------------------------------------------------------------------
# Deterministic construction
# ---------------------------------------------------------------------------

def test_f9_construction_is_pinned(f9):
    # First monic irreducible of degree 2 over F_3 in code order is
    # x^2 + 1 (codes 9 = x^2 and lower are reducible or not monic deg 2).
    assert f9.modulus == (1, 0, 1)
    assert f9.q == 9 and f9.p == 3 and f9.e == 2
    # First code of full multiplicative order 8: code 3 is x itself,
    # which squares to -1 (order 4), so 1 + x at code 4 is the winner.
    assert f9.g == 4
    order = {f9.pow_elem(f9.g, k) for k in range(1, 9)}
    assert len(order) == 8


def test_f13_generator_is_smallest_primitive_root(f13):
    assert f13.g == 2
    assert sympy.is_primitive_root(2, 13)


def test_rebuild_is_identical():
    a = build_field(5, 2)
    b = build_field(5, 2)
    assert a is b  # cached
    # x^2 + 2 is the first monic irreducible over F_5 in code order:
    # x^2 and x^2 + 1 both factor.
    assert a.modulus == (2, 0, 1)


# ---------------------------------------------------------------------------
# Arithmetic against the naive polynomial reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (13, 1)])
def test_mul_matches_naive_polynomial_arithmetic(p, e):
    ctx = build_field(p, e)
    for u in ctx.elements():
        for v in ctx.elements():
            assert ctx.mul(u, v) == naive_mul(ctx, u, v)


@pytest.mark.parametrize("p,e", [(3, 2), (7, 1)])
def test_add_neg_sub_are_componentwise(p, e):
    ctx = build_field(p, e)
    for u in ctx.elements():
        cu = ctx.coeffs(u)
        for v in ctx.elements():
            cv = ctx.coeffs(v)
            s = tuple((x + y) % p for x, y in zip(cu, cv))
            assert ctx.coeffs(ctx.add(u, v)) == s
        assert ctx.add(u, ctx.neg(u)) == 0
        assert ctx.sub(u, u) == 0


def test_vectorized_ops_match_scalar(f25):
    us = np.arange(f25.q, dtype=np.int64)
    vs = (us * 7 + 3) % f25.q
    prod = f25.mul(us, vs)
    add = f25.add(us, vs)
    for i in range(f25.q):
        assert prod[i] == f25.mul(int(us[i]), int(vs[i]))
        assert add[i] == f25.add(int(us[i]), int(vs[i]))


def test_pow_elem_scalar_and_array_agree(f13):
    us = np.arange(f13.q, dtype=np.int64)
    for n in (0, 1, 2, 3, 7, 12, -1, -5):
        vec = f13.pow_elem(us, n)
        for u in f13.elements():
            if u == 0 and n < 0:
                continue
            expected = 1
            for _ in range(n % (f13.q - 1) if u else abs(n)):
                expected = f13.mul(expected, u)
            if u == 0:
                expected = 1 if n == 0 else 0
            assert f13.pow_elem(u, n) == expected
            assert vec[u] == expected


def test_inv_is_multiplicative_inverse(f25):
    for u in range(1, f25.q):
        assert f25.mul(u, f25.inv(u)) == 1
    with pytest.raises(LogOfZero):
        f25.inv(0)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def test_exp_log_roundtrip(f25):
    for i in range(f25.q - 1):
        assert dlog(f25, int(f25.exp_table[i])) == i
    assert f25.log_table[0] == -1
    with pytest.raises(LogOfZero):
        dlog(f25, 0)


def test_one_minus_log_table(f9):
    for i in range(f9.q - 1):
        gi = int(f9.exp_table[i])
        one_minus = f9.sub(1, gi)
        if i == 0:
            assert one_minus == 0
            assert f9.one_minus_log[i] == -1
        else:
            assert f9.one_minus_log[i] == dlog(f9, one_minus)


def test_trace_is_frobenius_sum(f25):
    # tr(x) = x + x^p, computed through pow_elem only.
    for u in f25.elements():
        frob = f25.add(u, f25.pow_elem(u, f25.p))
        assert frob == trace_map(f25, u)  # sum lies in the prime subfield


def test_trace_is_additive_and_balanced(f9):
    counts = {r: 0 for r in range(f9.p)}
    for u in f9.elements():
        counts[trace_map(f9, u)] += 1
        for v in f9.elements():
            s = (trace_map(f9, u) + trace_map(f9, v)) % f9.p
            assert trace_map(f9, f9.add(u, v)) == s
    # Trace is a surjective F_p-linear map, so every fiber has q/p elements.
    assert set(counts.values()) == {f9.q // f9.p}


@pytest.mark.parametrize("p,e", [(3, 2), (3, 5), (7, 3), (5, 4)])
def test_trace_table_is_the_conjugate_sum_everywhere(p, e):
    # tr(u) = u + u^p + ... + u^(p^(e-1)) over the whole table, where the
    # field builds it from the basis monomials only.
    ctx = build_field(p, e)
    codes = np.arange(ctx.q, dtype=np.int64)
    total = np.zeros(ctx.q, dtype=np.int64)
    for i in range(e):
        total = ctx.add(total, ctx.pow_elem(codes, p**i))
    assert np.array_equal(total, ctx.trace_table)


# Digests of the trace tables (as uint8 bytes) from the polynomial
# Frobenius-power construction the field used to run.
@pytest.mark.parametrize("p,e,digest", [
    (3, 5, "330407b651a0c368cc03dd95f897fa5aed58757d820f9c196373e49e0e59e899"),
    (7, 4, "d3eda77c5bcdecb259b1331a1e6867149357ec8b43a6b9a18019dd85e7561cc3"),
])
def test_trace_table_is_pinned(p, e, digest):
    table = build_field(p, e).trace_table
    assert table.dtype == np.int64
    assert hashlib.sha256(table.astype(np.uint8).tobytes()).hexdigest() == digest


def test_prime_field_trace_is_identity(f13):
    for u in f13.elements():
        assert trace_map(f13, u) == u


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 4, 9, 15, 1])
def test_rejects_non_odd_primes(p):
    with pytest.raises(NotPrime):
        build_field(p)


def test_rejects_bad_extension_degree():
    with pytest.raises(ValueError):
        build_field(3, 0)


def test_table_budget_is_enforced():
    with pytest.raises(TableBudgetExceeded):
        build_field(1009, table_budget=1000)
    with pytest.raises(TableBudgetExceeded):
        build_field(5, 9)  # 5^9 ~ 1.9M exceeds the default 2^20 budget


# ---------------------------------------------------------------------------
# Number theory, against sympy as the reference
# ---------------------------------------------------------------------------

# Two Carmichael numbers; the least strong pseudoprime to the bases 2, 3,
# 5, 7; and the least one to every prime base up to 23 (also up to 31).
PSEUDOPRIMES = (561, 41041, 3215031751, 3825123056546413051)


def test_is_prime_matches_sympy():
    rng = random.Random(1)
    ns = [*range(20000), *PSEUDOPRIMES,
          *(rng.randrange(2**63) for _ in range(1000)),
          *(rng.randrange(2**63) | 1 for _ in range(1000))]
    for n in ns:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_bound_is_the_least_pseudoprime_to_its_bases():
    # The docstring's bound: composite, yet passes all twelve bases.
    psi12 = 318665857834031151167461
    assert is_prime(psi12) and not sympy.isprime(psi12)


def test_prime_factors_match_sympy():
    rng = random.Random(2)
    semiprime = sympy.nextprime(2**31) * sympy.nextprime(2**31 + 10**6)
    ns = [*range(1, 20000), *PSEUDOPRIMES, semiprime,
          *(rng.randrange(1, 2**62) for _ in range(300))]
    for n in ns:
        assert prime_factors(n) == sympy.primefactors(n), n


def test_least_primitive_root_matches_sympy_on_every_small_ring():
    for q in range(3, 257, 2):
        (p, e), *rest = sympy.factorint(q).items()
        if rest:
            continue
        ctx = build_field(p, e)
        ell = get_ring(ctx, "exact").ell
        assert least_primitive_root(ell) == sympy.primitive_root(ell), q
        if e == 1:
            assert ctx.g == least_primitive_root(p) == sympy.primitive_root(p)
