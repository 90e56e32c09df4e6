"""Field construction and table-arithmetic checks.

The independent reference here is naive polynomial arithmetic modulo the
field's own modulus, reimplemented inline — it exercises none of the
log-table machinery the package uses.
"""

import hashlib
import json
import random
import time
import tracemalloc

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
from hypercount import ffield
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


# (p, e, modulus, g, first 16 hex digits of the sha256 of exp_table as
# little-endian int64), from the polynomial construction the field used
# to run: every odd prime power below 257, then the extension fields of the
# benchmark's cold ladders.
PINNED_FIELDS = [
    (3, 1, (1, 1), 2, "0c730b69905c5ef7"),
    (5, 1, (3, 1), 2, "92ebfe56a187e071"),
    (7, 1, (4, 1), 3, "b731ea0a2c721d83"),
    (3, 2, (1, 0, 1), 4, "107beef16789fe21"),
    (11, 1, (9, 1), 2, "e8247f1507e27d11"),
    (13, 1, (11, 1), 2, "ca9c8cdd04b2e88a"),
    (17, 1, (14, 1), 3, "e476e6863df6b11b"),
    (19, 1, (17, 1), 2, "2b4b78ab4bf54424"),
    (23, 1, (18, 1), 5, "c226474ceb41c805"),
    (5, 2, (2, 0, 1), 6, "f819a08972b8bf0f"),
    (3, 3, (1, 2, 0, 1), 3, "94de5a129fc907c9"),
    (29, 1, (27, 1), 2, "f47cf404e60d14a9"),
    (31, 1, (28, 1), 3, "6886e5b4177e7e1e"),
    (37, 1, (35, 1), 2, "8fb7ed40200796fd"),
    (41, 1, (35, 1), 6, "02fe2bc43d52518f"),
    (43, 1, (40, 1), 3, "c1d192ebfb2e1ecb"),
    (47, 1, (42, 1), 5, "71a2a63c3414113c"),
    (7, 2, (1, 0, 1), 9, "bfbb44080945d046"),
    (53, 1, (51, 1), 2, "95694a96309aff66"),
    (59, 1, (57, 1), 2, "ec02b0bbc2ff42ed"),
    (61, 1, (59, 1), 2, "5b97c7e6eeee4291"),
    (67, 1, (65, 1), 2, "d84b6d69d48729a7"),
    (71, 1, (64, 1), 7, "390c8132236782e9"),
    (73, 1, (68, 1), 5, "9f7aa7c358053bab"),
    (79, 1, (76, 1), 3, "2777025543e2dced"),
    (3, 4, (2, 1, 0, 0, 1), 3, "6d1eb4f77b46bca3"),
    (83, 1, (81, 1), 2, "2c557dab6fc177c0"),
    (89, 1, (86, 1), 3, "d4da13e028ffd182"),
    (97, 1, (92, 1), 5, "63d3ef8e46d679c2"),
    (101, 1, (99, 1), 2, "3a4c98105d34ce02"),
    (103, 1, (98, 1), 5, "76992d37527cccd9"),
    (107, 1, (105, 1), 2, "42656dc59560843b"),
    (109, 1, (103, 1), 6, "ce327448ec5c9b91"),
    (113, 1, (110, 1), 3, "02a48443978605e9"),
    (11, 2, (1, 0, 1), 15, "43e329be59e51cd3"),
    (5, 3, (1, 1, 0, 1), 9, "3cd23adf3501f4d1"),
    (127, 1, (124, 1), 3, "710764230b425eb0"),
    (131, 1, (129, 1), 2, "bbbbe657b1aca6c9"),
    (137, 1, (134, 1), 3, "8087fa342ce3f311"),
    (139, 1, (137, 1), 2, "e030a80a8e0827e7"),
    (149, 1, (147, 1), 2, "9777e79dd308a781"),
    (151, 1, (145, 1), 6, "1b8fad1d51bd5a07"),
    (157, 1, (152, 1), 5, "e389446e66323ca9"),
    (163, 1, (161, 1), 2, "008b6131bf955d1e"),
    (167, 1, (162, 1), 5, "e055285408c8ab52"),
    (13, 2, (2, 0, 1), 15, "4db08ae6778e608d"),
    (173, 1, (171, 1), 2, "cedb3aafc6a47d7b"),
    (179, 1, (177, 1), 2, "16488d858ab7c571"),
    (181, 1, (179, 1), 2, "bc2a1e33cac20fe6"),
    (191, 1, (172, 1), 19, "0f25c6a9a2679de2"),
    (193, 1, (188, 1), 5, "97b2615b42d8de35"),
    (197, 1, (195, 1), 2, "0d03cef86c54ecc2"),
    (199, 1, (196, 1), 3, "511abd83ae0e3649"),
    (211, 1, (209, 1), 2, "52ef89066d10a6e8"),
    (223, 1, (220, 1), 3, "778b1c5dbe2e4220"),
    (227, 1, (225, 1), 2, "4eeef1cd0af61321"),
    (229, 1, (223, 1), 6, "d4f689f0597abfb0"),
    (233, 1, (230, 1), 3, "1c9816b82bd0c09c"),
    (239, 1, (232, 1), 7, "cf4f5e26c47cd77b"),
    (241, 1, (234, 1), 7, "fd10947e2794b422"),
    (3, 5, (1, 2, 0, 0, 0, 1), 3, "e9772cc891777b15"),
    (251, 1, (245, 1), 6, "5c28685a000db2b9"),
    (7, 4, (1, 1, 0, 0, 1), 12, "b76386e260d301b0"),
    (13, 3, (2, 0, 0, 1), 15, "63222d54f1b02488"),
    (11, 4, (2, 1, 0, 0, 1), 11, "e72fb601fe79de28"),
    (17, 4, (3, 0, 0, 0, 1), 307, "add6852a5f9860fc"),
    (5, 4, (2, 0, 0, 0, 1), 6, "4b374c497587d894"),
    (13, 4, (2, 0, 0, 0, 1), 17, "e094c3ab2f613ecd"),
    (37, 3, (2, 0, 0, 1), 75, "b730599c1b63160a"),
]


# (p, e): the same digests of trace_table and one_minus_log, for every
# extension field above, from the field that added by a digit table.
PINNED_EXTENSION_TABLES = {
    (3, 2): ("8cc825d972544d25", "1a12d6c8ad035f52"),
    (5, 2): ("60e2686151985c37", "3bda73c04e859178"),
    (3, 3): ("6a6e60a5df3c7ada", "aabd087fa81a5a3e"),
    (7, 2): ("db3db3d8afcc65cf", "7e33c8fe33d36707"),
    (3, 4): ("a9c7793ec8ae0468", "1fd2fb1fb548fd5b"),
    (11, 2): ("f63c6c79a7ca9554", "ff3ed0b77bff7f8f"),
    (5, 3): ("4630abaddb8861ae", "358d79381872efbf"),
    (13, 2): ("cc5ab5001c689ef4", "b13a8b0c3ac5a66b"),
    (3, 5): ("0e9e49ec4dfa2c8b", "085b7761b51d6e07"),
    (7, 4): ("2ac52ad9c6266357", "538d714b6ee0e87b"),
    (13, 3): ("dfcb6eccfe9b13e9", "2868029e48759031"),
    (11, 4): ("59101476bdd2fbf1", "889cbdc902f6c2ce"),
    (17, 4): ("782724590f3b1362", "ccd9cd873b004f97"),
    (5, 4): ("874b67cd49d676ff", "cd7478ec7feadeef"),
    (13, 4): ("d0cc4af6f57f86a3", "c051c86c70195ee2"),
    (37, 3): ("241edf7e67a3a14e", "df937d4e5d002129"),
}


def digest16(table):
    return hashlib.sha256(table.astype("<i8").tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("p,e,modulus,g,digest", PINNED_FIELDS)
def test_construction_is_pinned(p, e, modulus, g, digest):
    ctx = build_field(p, e)
    assert (ctx.modulus, ctx.g) == (modulus, g)
    assert digest16(ctx.exp_table) == digest
    if e > 1:
        assert (digest16(ctx.trace_table), digest16(ctx.one_minus_log)) \
            == PINNED_EXTENSION_TABLES[p, e]


def test_extension_modulus_is_the_first_irreducible_in_code_order():
    x = sympy.symbols("x")
    for p, e, modulus, *_ in PINNED_FIELDS:
        if e == 1 or p**e >= 257:
            continue
        first = next(code for code in range(p**e) if sympy.Poly(
            [1, *(code // p**i % p for i in reversed(range(e)))], x,
            modulus=p).is_irreducible)
        assert modulus == (*(first // p**i % p for i in range(e)), 1)


# ---------------------------------------------------------------------------
# Arithmetic against the naive polynomial reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (3, 4), (7, 2),
                                 (13, 1)])
def test_mul_matches_naive_polynomial_arithmetic(p, e):
    ctx = build_field(p, e)
    for u in ctx.elements():
        for v in ctx.elements():
            assert ctx.mul(u, v) == naive_mul(ctx, u, v)


def digitwise(ctx, u, v, sign):
    """Codes of u + sign·v, digit by digit, with digits taken by division."""
    w = ctx.p ** np.arange(ctx.e)
    du = np.asarray(u)[..., None] // w % ctx.p
    dv = np.asarray(v)[..., None] // w % ctx.p
    return (du + sign * dv) % ctx.p @ w


SMALL_EXTENSION_FIELDS = [(p, e) for p, e, *_ in PINNED_FIELDS
                          if e > 1 and p**e < 256]


@pytest.mark.parametrize("p,e", [(7, 1), *SMALL_EXTENSION_FIELDS])
def test_add_neg_sub_are_componentwise(p, e):
    # Every pair, on the array path (a column against a row) and on the
    # scalar path, which returns Python ints.
    ctx = build_field(p, e)
    codes = np.arange(ctx.q, dtype=np.int64)
    add = ctx.add(codes[:, None], codes)
    sub = ctx.sub(codes[:, None], codes)
    assert np.array_equal(add, digitwise(ctx, codes[:, None], codes, 1))
    assert np.array_equal(sub, digitwise(ctx, codes[:, None], codes, -1))
    assert np.array_equal(ctx.neg(codes), digitwise(ctx, 0, codes, -1))
    for u in ctx.elements():
        for v in ctx.elements():
            s, d = ctx.add(u, v), ctx.sub(u, v)
            assert type(s) is type(d) is int  # so json.dumps takes them
            assert (s, d) == (add[u, v], sub[u, v])
        assert type(ctx.neg(u)) is int
        assert ctx.add(u, ctx.neg(u)) == 0
        assert ctx.sub(u, u) == 0


@pytest.mark.parametrize("p,e", [(13, 4), (37, 3), (17, 4)])
def test_add_neg_sub_on_seeded_pairs(p, e):
    ctx = build_field(p, e)
    rng = np.random.default_rng(p**e)
    us, vs = rng.integers(0, ctx.q, (2, 10**4))
    assert np.array_equal(ctx.add(us, vs), digitwise(ctx, us, vs, 1))
    assert np.array_equal(ctx.sub(us, vs), digitwise(ctx, us, vs, -1))
    assert np.array_equal(ctx.neg(us), digitwise(ctx, 0, us, -1))


def test_vectorized_ops_match_scalar(f25):
    us = np.arange(f25.q, dtype=np.int64)
    for vs in ((us * 7 + 3) % f25.q, f25.neg(us)):  # zeros, and v = -u
        prod = f25.mul(us, vs)
        add = f25.add(us, vs)
        sub = f25.sub(us, vs)
        for i in range(f25.q):
            u, v = int(us[i]), int(vs[i])
            assert prod[i] == f25.mul(u, v)
            assert add[i] == f25.add(u, v)
            assert sub[i] == f25.sub(u, v)
    assert not f25.add(us, f25.neg(us)).any()
    # A scalar with an array, either way round, zero included.
    for c in (0, 1, 7):
        assert f25.add(c, us).tolist() == [f25.add(c, u) for u in range(25)]
        assert f25.sub(c, us).tolist() == [f25.sub(c, u) for u in range(25)]
        assert f25.sub(us, c).tolist() == [f25.sub(u, c) for u in range(25)]
    # The (rows, 1) by (q - 1,) broadcast of decompose_theta_sum.
    squares = f25.mul(us[1:], us[1:])
    diff = f25.sub(us[:6, None], squares)
    assert diff.shape == (6, 24)
    assert diff.tolist() == [[f25.sub(u, s) for s in squares.tolist()]
                             for u in range(6)]


@pytest.mark.parametrize("p,e", [(13, 1), (100801, 1), (5, 2), (17, 4)])
def test_scalar_add_sub_neg_return_ints_for_numpy_scalars(p, e):
    # Table entries are numpy.int32; a result fed back in must still come
    # out a Python int, as mul, inv and pow_elem return.
    ctx = build_field(p, e)
    rng = random.Random(p**e)
    for _ in range(50):
        u, v = rng.randrange(ctx.q), rng.randrange(ctx.q)
        for kind in (int, np.int32, np.int64):
            results = (ctx.add(kind(u), kind(v)), ctx.sub(kind(u), kind(v)),
                       ctx.neg(kind(u)), ctx.add(kind(u), v),
                       ctx.sub(u, kind(v)))
            assert all(type(r) is int for r in results), (kind, results)
            assert results == (ctx.add(u, v), ctx.sub(u, v), ctx.neg(u),
                               ctx.add(u, v), ctx.sub(u, v))
            json.dumps(results)
    entry = ctx.exp_table[rng.randrange(ctx.q - 1)]
    assert type(entry) is np.int32
    assert type(ctx.add(entry, entry)) is type(ctx.neg(entry)) is int


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


@pytest.mark.parametrize("n", [2**60 + 1, 2**63, 2**64 + 5, -(2**63) - 1])
@pytest.mark.parametrize("p,e", [(13, 1), (5, 2)])
def test_pow_elem_huge_exponents_agree_with_their_residue(p, e, n):
    # n·log once wrapped int64 on arrays (and an n past int64 raised).
    ctx = build_field(p, e)
    us = np.arange(ctx.q, dtype=np.int64)
    small = n % (ctx.q - 1) + (ctx.q - 1)    # same residue, a nonzero n
    assert ctx.pow_elem(us, n).tolist() == ctx.pow_elem(us, small).tolist()
    for u in range(1, ctx.q):
        assert ctx.pow_elem(u, n) == ctx.pow_elem(u, small)
    assert ctx.pow_elem(0, n) == 0 and ctx.pow_elem(us, n)[0] == 0
    # 0**0 = 1 still, also where n = 0 (mod q - 1) is not 0 itself.
    assert ctx.pow_elem(0, 0) == 1 and ctx.pow_elem(us, 0)[0] == 1
    assert ctx.pow_elem(0, ctx.q - 1) == 0
    assert ctx.pow_elem(us, ctx.q - 1)[0] == 0


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


@pytest.mark.parametrize("x", [-1, -25, 25, 26, 10**30])
def test_codes_outside_the_field_are_refused(f25, x):
    # -1 would index the table from the end, q - 1 past it.
    refusal = r"not a field-element code in \[0, 25\)"
    with pytest.raises(ValueError, match=refusal):
        dlog(f25, x)
    with pytest.raises(ValueError, match=refusal):
        trace_map(f25, x)


@pytest.mark.parametrize("p,e", [(p, e) for p, e, *_ in PINNED_FIELDS])
def test_field_tables_are_read_only(p, e):
    # Read-only int32 of their stated lengths, on every pinned field.
    ctx = build_field(p, e)
    q = ctx.q
    for table, length in ((ctx.exp_table, q - 1), (ctx.log_table, q),
                          (ctx.trace_table, q), (ctx.one_minus_log, q - 1)):
        assert table.dtype == np.int32
        assert table.shape == (length,)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0
    assert ctx._digits is None and ctx._pows is None


EXTENSION_FIELDS = [(p, e) for p, e, *_ in PINNED_FIELDS if e > 1]


def int_exp_table(m, q, p):
    """The exponent table as the field built it in int64 arithmetic:
    ``rows[:n] @ m % p`` doubles the rows of g^i, then digits to codes."""
    e = len(m)
    m = np.asarray(m, dtype=np.int64)
    rows = np.zeros((q - 1, e), dtype=np.int64)
    rows[0, 0] = 1
    s = 1
    while s < q - 1:
        n = min(s, q - 1 - s)
        rows[s:s + n] = rows[:n] @ m % p
        m = m @ m % p
        s += n
    return rows @ p ** np.arange(e, dtype=np.int64)


@pytest.mark.parametrize("p", [3, 5, 13, 601, 9601, 100801])
def test_prime_power_table_is_the_matrix_doubling(p):
    g = least_primitive_root(p)
    table = ffield._power_table(g, p)
    assert table.dtype == np.int32
    assert np.array_equal(table, int_exp_table([[g]], p, p))
    assert np.array_equal(build_field(p).exp_table, table)


@pytest.mark.parametrize("p,e", EXTENSION_FIELDS)
def test_float_exp_table_is_the_int64_doubling(p, e):
    modulus, c = ffield._find_modulus(p, e)
    g, m = ffield._find_generator(p, e, c)
    table = ffield._exp_table(m, p**e, p)
    assert table.dtype == np.int32
    assert np.array_equal(table, int_exp_table(m, p**e, p))


def test_mod_is_exact_up_to_two_to_the_forty():
    for p in (3, 1021, 1048573):
        x = np.array([0, 1, p - 1, p, p + 1, 2**40 - 1, 2**40 - 2,
                      (2**40 // p) * p, (2**40 // p) * p - 1], dtype=np.int64)
        x = np.concatenate([x, np.random.default_rng(p).integers(0, 2**40,
                                                                  1000)])
        assert np.array_equal(ffield._mod(x.astype(np.float64), p), x % p)


def test_one_minus_log_table():
    # 1 - g^i by digits taken by division, where the field builds its table
    # of 1 - x from per-digit tables (and ctx.sub reads the table back).
    for p, e in EXTENSION_FIELDS:
        ctx = build_field(p, e)
        one_minus = digitwise(ctx, 1, ctx.exp_table, -1)
        assert np.array_equal(ctx.sub(np.int64(1), ctx.exp_table), one_minus)
        assert np.flatnonzero(one_minus == 0).tolist() == [0]
        assert ctx.one_minus_log[0] == -1
        assert np.array_equal(ctx.exp_table[ctx.one_minus_log[1:]],
                              one_minus[1:]), (p, e)


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


@pytest.mark.parametrize("p,e", sorted({*EXTENSION_FIELDS, (7, 3), (5, 4)}))
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
    assert table.dtype == np.int32
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


@pytest.mark.parametrize("args,name", [
    ((7.0,), "p"), ((True,), "p"), ((np.float64(7),), "p"), (("7",), "p"),
    ((7, 2.0), "e"), ((7, False), "e"), ((7, np.bool_(True)), "e"),
])
def test_build_field_refuses_non_integers(args, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        build_field(*args)


@pytest.mark.parametrize("alpha", [2.0, True, np.float64(2), "2"])
def test_trace_map_refuses_non_integer_codes(f13, alpha):
    # trace_map(ctx, 2.0) once ended in numpy's IndexError.
    with pytest.raises(TypeError, match="^alpha must be an integer"):
        trace_map(f13, alpha)
    assert trace_map(f13, np.int64(2)) == trace_map(f13, 2)


@pytest.mark.parametrize("x", [2.0, True, np.float64(2), "2"])
def test_dlog_refuses_non_integer_codes(f13, x):
    # dlog(ctx, 2.0) once ended in numpy's IndexError.
    with pytest.raises(TypeError, match="^x must be an integer"):
        dlog(f13, x)
    assert dlog(f13, np.int64(2)) == dlog(f13, 2)


def test_build_field_converts_numpy_integers():
    ctx = build_field(np.int64(7), np.uint8(2))
    assert ctx is build_field(7, 2)
    assert type(ctx.p) is int and type(ctx.e) is int


def test_rejects_bad_extension_degree():
    with pytest.raises(ValueError):
        build_field(3, 0)


def test_table_budget_is_enforced():
    with pytest.raises(TableBudgetExceeded):
        build_field(1009, table_budget=1000)
    with pytest.raises(TableBudgetExceeded):
        build_field(5, 9)  # 5^9 ~ 1.9M exceeds the default 2^20 budget


@pytest.mark.parametrize("p,e", [
    (2147483659, 1),   # the least prime past 2^31: int32 cannot hold q
    (2**31 - 1, 1),    # a Mersenne prime: int32 holds q but not 2q
    (1073741827, 1),   # the least prime past 2^30
    (3, 19),           # 3^19 ~ 1.16·2^30
])
def test_fields_past_two_to_the_thirty_are_refused_whatever_the_budget(p, e):
    # Two table entries must sum below 2^31.  The refusal comes before any
    # table is allocated, so it takes neither time nor memory.
    assert p**e > ffield.MAX_FIELD_SIZE == 2**30
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(TableBudgetExceeded) as info:
            build_field(p, e, table_budget=2**40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 2**20
    assert info.value.budget == 2**30


def test_huge_extension_degree_is_refused_before_computing_q():
    start = time.perf_counter()
    with pytest.raises(TableBudgetExceeded, match=r"q=3\^1000000 exceeds"):
        build_field(3, 10**6)
    assert time.perf_counter() - start < 0.5


def test_errors_show_huge_integers_by_bit_length():
    # str() of an integer past 4300 digits raises ValueError.
    with pytest.raises(NotPrime) as info:
        build_field(10**5000)
    assert info.value.p == 10**5000
    with pytest.raises(TableBudgetExceeded, match=r"q=3\^<16610-bit integer>"):
        build_field(3, 10**5000)
    for err in (NotPrime(10**5000), TableBudgetExceeded(10**5000, 2**20)):
        assert len(str(err)) < 80 and "16610-bit" in str(err)
    assert TableBudgetExceeded(10**5000, 2**20).q == 10**5000
    assert str(NotPrime(2**256 - 1)) == f"{2**256 - 1} is not an odd prime"
    assert str(NotPrime(2**256)) == "<257-bit integer> is not an odd prime"


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
