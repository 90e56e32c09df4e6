"""Value-ring backends: exact residue arithmetic vs complex floats.

The reference for Gauss tables is a literal scalar sum through the
root-of-unity tables — no FFT, no blocking — so the two computation
routes are independent.
"""

import hashlib
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from hypercount import (
    ComplexRing,
    CurveParams,
    ExactModulusTooLarge,
    FloatRangeExceeded,
    HypercountError,
    MixedFieldContexts,
    NonIntegerResult,
    ResidueRing,
    brute_count,
    build_field,
    count_points,
    get_ring,
)
from hypercount.oracle import _product_down
from hypercount.values import (
    _EPS,
    _FFT_MAX_LEN,
    _FLOAT_MULMOD_LIMIT,
    _MATMUL_BLOCK,
    _MATMUL_COLS,
    _MATMUL_INNER,
    _MATMUL_LIMB_BITS,
    _RING_CACHE,
    _ROOT_ERR,
    _Ring,
    _limb_bits,
)


def naive_gauss(ctx, ring, m):
    """G(T^m) summed one element at a time."""
    total = ring.zero()
    for i in range(ctx.q - 1):
        x = int(ctx.exp_table[i])
        term = ring.root_unity(m * i) * ring.theta_root(int(ctx.trace_table[x]))
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Exact-modulus construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,e,ell", [(13, 1, 1099511627917),
                                     (9, 2, 1099511627953),
                                     (25, 2, 1099511629081)])
def test_exact_modulus_is_pinned_and_valid(q, e, ell):
    p = sympy.primefactors(q)[0]
    ctx = build_field(p, e)
    ring = get_ring(ctx, "exact")
    assert ring.ell == ell
    assert sympy.isprime(ring.ell)
    n = ctx.p * (ctx.q - 1)
    assert ring.ell % n == 1
    bound = max(2**40, 8 * ctx.q**2)
    assert ring.ell > bound > 2 * (ctx.q**2 + ctx.q)  # balanced lift room
    # Least qualifying prime: nothing smaller above the bound works.
    first = bound + 1 + (-bound) % n
    while not sympy.isprime(first):
        first += n
    assert ring.ell == first


@pytest.mark.parametrize("p,ell", [(4201, 1099604188201),
                                   (19681, 1105804538401),
                                   (1048573, 28587111481657)])
def test_default_modulus_keeps_uint64_path(p, ell):
    # Fields whose old d_max-sized modulus passed 2**50 (4201, 19681) or
    # 2**63 (1048573, the top of the table budget).  No Gauss table here.
    ring = get_ring(build_field(p), "exact")
    assert ring.ell == ell
    assert ring.ell < _FLOAT_MULMOD_LIMIT
    assert ring._use_numpy


def test_modulus_past_uint64_path_is_refused():
    # 8q² >= 2**50 needs q beyond any table budget, so the ring is built
    # on a stand-in that carries only p and q.
    p = sympy.nextprime(2**24)
    with pytest.raises(ExactModulusTooLarge, match="float backend"):
        ResidueRing(SimpleNamespace(p=p, q=p))


def test_exact_counts_at_4201_match_brute_force():
    ctx = build_field(4201)
    ring = get_ring(ctx, "exact")
    for family in "AB":
        for d in (2, 3, 4, 5):
            curve = CurveParams(family, d, 5, 11)
            assert count_points(ctx, curve, ring=ring).n_points \
                == brute_count(ctx, curve), curve


def test_root_of_unity_orders(f13):
    ring = get_ring(f13, "exact")
    n = f13.p * (f13.q - 1)
    assert pow(ring.w, n, ring.ell) == 1
    for r in sympy.primefactors(n):
        assert pow(ring.w, n // r, ring.ell) != 1
    # Table entries really are the advertised powers.
    z = int(ring.roots_q1[1])
    for j in range(f13.q - 1):
        assert int(ring.roots_q1[j]) == pow(z, j, ring.ell)
    t = int(ring.roots_p[1])
    for j in range(f13.p):
        assert int(ring.roots_p[j]) == pow(t, j, ring.ell)
    assert not ring.roots_q1.flags.writeable
    assert not ring.roots_p.flags.writeable


# Tables filled in one short step (q = 3), two steps (17, 257), four (4201)
# and on the object path over F_121.
@pytest.mark.parametrize("p,e,d_max", [(3, 1, None), (17, 1, None),
                                       (257, 1, None), (4201, 1, None),
                                       (11, 2, 11)])
def test_power_tables_are_the_powers(p, e, d_max):
    ctx = build_field(p, e)
    ring = get_ring(ctx, "exact", d_max=d_max)
    for table, count in ((ring.roots_q1, ctx.q - 1), (ring.roots_p, p)):
        assert table.dtype == np.uint64 and len(table) == count
        z = int(table[1])
        assert [int(x) for x in table] == [pow(z, j, ring.ell)
                                           for j in range(count)]


# numpy divides a complex number by the real n through 1/n, so the
# in-place root tables take that product, not a division.  The fields give
# odd and even lengths up to the top of the benchmark's float ladder.
@pytest.mark.parametrize("p,e", [(13, 1), (3, 5), (1201, 1), (11, 4),
                                 (17, 4), (100801, 1)])
def test_float_ring_tables_are_bitwise_the_old_expressions(p, e):
    ctx = build_field(p, e)
    ring = get_ring(ctx, "float")
    q = ctx.q
    for table, n in ((ring.roots_q1, q - 1), (ring.roots_p, p)):
        assert not table.flags.writeable
        assert table.tobytes() == \
            np.exp(2j * np.pi * np.arange(n) / n).tobytes()
    u = ring.roots_p[ctx.trace_table[ctx.exp_table]]
    assert ring.gauss_array.tobytes() == \
        (np.fft.ifft(u) * (q - 1)).tobytes()


def test_prime_field_count_keeps_no_p_root_table():
    # On a prime field p = q, so a p-root table is as long as the field;
    # the Gauss table reads its additive characters off exp_table instead.
    ctx = build_field(100801)
    ring = ComplexRing(ctx)
    count_points(ctx, CurveParams("B", 4, 5, 11), ring=ring)
    held = [a for a in vars(ring).values() if isinstance(a, np.ndarray)]
    for cache in (v for v in vars(ring).values() if isinstance(v, dict)):
        held += [a for a in cache.values() if isinstance(a, np.ndarray)]
    assert held and all(a.shape != (ctx.p,) for a in held)
    assert "roots_p" not in vars(ring)
    assert not ring.roots_p.flags.writeable
    assert ring.roots_p.tobytes() == \
        np.exp(2j * np.pi * np.arange(ctx.p) / ctx.p).tobytes()


def test_get_ring_caches_per_field(f13):
    assert get_ring(f13, "exact") is get_ring(f13, "exact")
    assert get_ring(f13, "float") is get_ring(f13, "float")
    assert get_ring(f13, "float", tolerance=1e-9) is not get_ring(f13, "float")
    with pytest.raises(ValueError):
        get_ring(f13, "symbolic")


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_get_ring_refuses_a_tolerance_that_checks_nothing(f13, tolerance):
    # NaN compares false with every residual, and never equals a cache key.
    cached = dict(_RING_CACHE.get(f13, {}))
    for _ in range(2):
        with pytest.raises(ValueError, match="finite and positive"):
            get_ring(f13, "float", tolerance=tolerance)
    assert _RING_CACHE.get(f13, {}) == cached


# ---------------------------------------------------------------------------
# Scalar CharValue arithmetic
# ---------------------------------------------------------------------------

def test_ring_arithmetic_mirrors_integers(ring13):
    for a in (-7, -1, 0, 1, 3, 12, 40):
        for b in (-5, 0, 2, 11):
            va, vb = ring13.from_int(a), ring13.from_int(b)
            assert (va + vb).lift_int() == a + b
            assert (va - vb).lift_int() == a - b
            assert (va * vb).lift_int() == a * b
            assert (-va).lift_int() == -a
            assert (3 * va + b).lift_int() == 3 * a + b  # int coercion


def test_divide_by_q_inverts_multiplication(ring13):
    q = ring13.ctx.q
    for n in (-9, 0, 4, 27):
        assert ring13.from_int(n * q).divide_by_q().lift_int() == n


def test_balanced_lift(f13):
    ring = get_ring(f13, "exact")
    assert ring.from_int(-3).lift_int() == -3
    assert ring.from_int(ring.ell - 2).lift_int() == -2
    assert ring.from_int(ring.ell // 2).lift_int() == ring.ell // 2


def test_float_lift_guards_against_non_integers(f13):
    ring = get_ring(f13, "float")
    assert ring.wrap(2.9999999 + 0j).lift_int() == 3
    with pytest.raises(NonIntegerResult):
        ring.wrap(3.01 + 0j).lift_int()
    with pytest.raises(NonIntegerResult):
        ring.wrap(3 + 0.01j).lift_int()


@pytest.mark.parametrize("payload", [float("nan"), float("inf"),
                                     -float("inf"), complex(float("inf"), 0),
                                     complex(0, float("nan"))])
def test_float_lift_refuses_nan_and_inf(f13, payload):
    with pytest.raises(NonIntegerResult) as info:
        get_ring(f13, "float").lift_int(payload)
    assert isinstance(info.value, HypercountError)


def test_float_from_int_refuses_integers_past_double_range(f13):
    ring = get_ring(f13, "float")
    assert ring.from_int(10**308).payload == complex(10**308)
    with pytest.raises(FloatRangeExceeded) as info:
        ring.from_int(10**309)
    assert isinstance(info.value, HypercountError)
    assert "exact backend" in str(info.value)


def test_mixed_rings_do_not_combine(f13, f25):
    a = get_ring(f13, "exact").one()
    b = get_ring(f25, "exact").one()
    with pytest.raises(MixedFieldContexts):
        a + b
    assert (a == b) is False


def test_values_close_scales_with_magnitude(f13):
    ring = get_ring(f13, "float")
    big = 1e8
    assert ring.values_close(big, big + 0.5 * big * ring.tolerance, scale=big)
    assert not ring.values_close(big, big + 3 * big * ring.tolerance, scale=big)
    assert ring.residual(4.0, 3.0, 2.0) == 0.5


# ---------------------------------------------------------------------------
# Vector kernels
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def widest_ring():
    # The widest ell below 2**50 that an explicit d_max gives over any odd
    # prime power q < 70000: mul_vec's rounded quotient has the least
    # margin here (its error grows with ell and must stay below 1/2).
    ring = get_ring(build_field(65519), "exact", d_max=3)
    assert 2**50 - 2**40 < ring.ell < _FLOAT_MULMOD_LIMIT and ring._use_numpy
    return ring


def assert_products_exact(ring, u, v, out):
    expect = u.astype(object) * v.astype(object) % ring.ell
    assert out.dtype == np.uint64 and out.shape == expect.shape
    assert np.array_equal(out.astype(object), expect)


def test_mul_vec_matches_python_ints(ring13, widest_ring):
    rng = np.random.default_rng(5)
    if ring13.backend == "float":
        u = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        assert np.allclose(ring13.mul_vec(u, u), u * u)
        return
    for ring in (ring13, widest_ring):
        ell = ring.ell
        edges = np.array([0, 1, ell - 1, ell - 2, ell // 2, ell // 2 + 1],
                         dtype=np.uint64)
        # Random residues, then every pair of edge residues.
        u = np.concatenate([rng.integers(0, ell, 300, dtype=np.uint64),
                            np.repeat(edges, edges.size)])
        v = np.concatenate([rng.integers(0, ell, 300, dtype=np.uint64),
                            np.tile(edges, edges.size)])
        assert_products_exact(ring, u, v, ring.mul_vec(u, v))
        # A column times a row broadcasts to a matrix.
        assert_products_exact(ring, u[:, None], v[None, :50],
                              ring.mul_vec(u[:, None], v[None, :50]))
        # out may be u itself.
        w = u.copy()
        assert ring.mul_vec(w, v, out=w) is w
        assert_products_exact(ring, u, v, w)
        # or v.
        w = v.copy()
        assert ring.mul_vec(u, w, out=w) is w
        assert_products_exact(ring, u, v, w)
        # Two scalars give a 0-d array.
        prod = ring.mul_vec(u[0], v[0])
        assert prod.shape == () and int(prod) == int(u[0]) * int(v[0]) % ell


def test_rings_share_one_copy_of_each_helper():
    # bench/spans.py times the Gauss table by wrapping
    # cls.__dict__["gauss_array"] on each ring class, so each ring keeps
    # that property in its own class; the helpers that only index a root
    # table are defined once, on the base.
    for cls in (ComplexRing, ResidueRing):
        assert issubclass(cls, _Ring)
        assert isinstance(cls.__dict__["gauss_array"], property)
    for name in ("nbytes", "zero", "one", "root_unity", "theta_root",
                 "root_unity_vec", "theta_root_vec"):
        assert name in _Ring.__dict__
        assert name not in ComplexRing.__dict__
        assert name not in ResidueRing.__dict__
    assert "gauss_array" not in _Ring.__dict__


def test_sum_vec_chunks_are_exact(f13):
    ring = get_ring(f13, "exact")
    vals = np.full(10_000, ring.ell - 1, dtype=np.uint64)
    assert ring.sum_vec(vals) == (10_000 * (ring.ell - 1)) % ring.ell
    mat = np.full((3, 5000), ring.ell - 1, dtype=np.uint64)
    rows = ring.sum_rows(mat)
    assert all(int(r) == (5000 * (ring.ell - 1)) % ring.ell for r in rows)


def test_residue_mismatches_finds_every_differing_entry(f13):
    ring = get_ring(f13, "exact")
    u = np.arange(12, dtype=np.uint64).reshape(3, 4)
    bad, worst = ring.mismatches(u, u.copy())
    assert bad.size == 0 and worst == 0.0
    v = u.copy()
    v[0, 1] += 1
    v[2, 3] = ring.ell - 1
    bad, worst = ring.mismatches(u, v)
    assert bad.tolist() == [1, 11] and worst == 1.0


# ---------------------------------------------------------------------------
# Matrix products and pairwise row products
# ---------------------------------------------------------------------------

def reference_matmul(ring, a, b):
    """The product summed term by term: Python ints mod ell, or complex."""
    cols = b if b.ndim == 2 else b[:, None]
    if ring.backend == "exact":
        au = [[int(x) for x in row] for row in a]
        bu = [[int(x) for x in col] for col in cols.T]
        out = np.array([[sum(x * y for x, y in zip(r, c)) % ring.ell
                         for c in bu] for r in au], dtype=np.uint64)
    else:
        out = np.sum(a[:, :, None] * cols[None, :, :], axis=1)
    return out if b.ndim == 2 else out[:, 0]


def random_payloads(ring, rng, shape):
    if ring.backend == "exact":
        return rng.integers(0, ring.ell, shape, dtype=np.uint64)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# (M, K, N), N = None for a vector: small, inner dimensions crossing
# _MATMUL_INNER, a b wide enough to be split in several column blocks, and
# a K of three inner blocks, whose columns come in blocks of _MATMUL_COLS.
MATMUL_SHAPES = [(4, 7, 5), (3, _MATMUL_INNER + 5, 2), (3, 40, 2000),
                 (6, 9, None), (2, _MATMUL_INNER + 1, None),
                 (2, 2 * _MATMUL_INNER + 3, _MATMUL_COLS + 5)]


@pytest.mark.parametrize("m,k,n", MATMUL_SHAPES)
def test_matmul_matches_the_termwise_sum(ring13, m, k, n):
    rng = np.random.default_rng(m * k)
    a = random_payloads(ring13, rng, (m, k))
    b = random_payloads(ring13, rng, (k,) if n is None else (k, n))
    out = ring13.matmul(a, b)
    assert out.shape == ((m,) if n is None else (m, n))
    if ring13.backend == "exact":
        assert out.dtype == np.uint64
        assert np.array_equal(out, reference_matmul(ring13, a, b))
    else:
        assert np.allclose(out, reference_matmul(ring13, a, b))
    # b split once, whole or three rows at a time, gives the same product.
    assert np.array_equal(ring13.matmul(a, ring13.split(b)), out)
    rows = ring13.split_empty(b.shape)
    for lo in range(0, k, 3):
        ring13.split(b[lo:lo + 3], out=rows[lo:lo + 3])
    assert np.array_equal(ring13.matmul(a, rows), out)


def test_matmul_limb_bounds(f13, big_ring):
    # Each float64 partial sum holds _MATMUL_INNER products of two limbs.
    assert _MATMUL_INNER * (2**_MATMUL_LIMB_BITS - 1) ** 2 < 2**53
    assert _MATMUL_BLOCK // (2 * 40) < 2000   # (3, 40, 2000) takes blocks
    # Every entry ell - 1 makes every limb, and so every partial sum, as
    # large as this ell allows; (ell - 1)² = 1 mod ell.
    for ring in (get_ring(f13, "exact"), big_ring[1]):
        for m, k, n in MATMUL_SHAPES:
            a = np.full((m, k), ring.ell - 1, dtype=np.uint64)
            b = np.full((k,) if n is None else (k, n), ring.ell - 1,
                        dtype=np.uint64)
            assert np.all(ring.matmul(a, b) == k % ring.ell)
            assert np.all(ring.matmul(a, ring.split(b)) == k % ring.ell)
    # K spans three inner blocks, and the block rule of ResidueRing.matmul
    # puts all N columns in one block, where _MATMUL_BLOCK alone would give
    # 7 at two limbs and 5 at three.  Every entry is the residue whose
    # limbs below the top are all 2**21 - 1, the top limb as large as ell
    # allows beneath them, less a random r < 2**8, so the partial sums of
    # the lowest limbs reach about _MATMUL_INNER·(2**21 - 1)², just below
    # 2**53, with low bits that a rounding would lose.
    K, N = 2 * _MATMUL_INNER + 3, _MATMUL_COLS
    for ring, limbs in ((get_ring(f13, "exact"), 2),
                        (get_ring(build_field(101), "exact", d_max=15), 3)):
        assert -(-ring.ell.bit_length() // _MATMUL_LIMB_BITS) == limbs
        assert _MATMUL_BLOCK // (limbs * K) < 8
        assert max(_MATMUL_COLS, _MATMUL_BLOCK // (limbs * K)) == N
        low = _MATMUL_LIMB_BITS * (limbs - 1)
        worst = (ring.ell >> low << low) - 1
        assert worst < ring.ell and worst % 2**low == 2**low - 1
        rng = np.random.default_rng(limbs)
        u, v = np.uint64(worst) - rng.integers(0, 2**8, (2, K),
                                               dtype=np.uint64)
        out = ring.matmul(np.broadcast_to(u, (3, K)),
                          np.broadcast_to(v[:, None], (K, N)))
        assert out.shape == (3, N)
        expect = sum(int(x) * int(y) for x, y in zip(u, v)) % ring.ell
        assert np.all(out == expect)


def test_object_path_matmul(big_ring):
    ctx, ring = big_ring
    assert ring.ell.bit_length() > 2 * _MATMUL_LIMB_BITS   # three limbs
    rng = np.random.default_rng(121)
    a = random_payloads(ring, rng, (5, ctx.q - 1))
    b = random_payloads(ring, rng, (ctx.q - 1, 6))
    assert np.array_equal(ring.matmul(a, b), reference_matmul(ring, a, b))
    assert np.array_equal(ring.matmul(a, b[:, 2]),
                          reference_matmul(ring, a, b[:, 2]))
    assert np.array_equal(ring.matmul(a, ring.split(b)),
                          reference_matmul(ring, a, b))


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8])
def test_pairwise_row_product_matches_sequential(ring13, m):
    rows = random_payloads(ring13, np.random.default_rng(m), (m, 12))
    expected = rows[0]
    for row in rows[1:]:
        expected = ring13.mul_vec(expected, row)
    out = _product_down(ring13, rows)
    if ring13.backend == "exact":
        assert np.array_equal(out, expected)
    else:
        assert np.allclose(out, expected)


def test_pairwise_row_product_takes_log2_m_products(f13):
    ring = get_ring(f13, "exact")
    calls = []
    counting = SimpleNamespace(
        mul_vec=lambda u, v: calls.append(1) or ring.mul_vec(u, v))
    rows = np.arange(1, 8 * 7 + 1, dtype=np.uint64).reshape(7, 8)
    _product_down(counting, rows)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# Exact DFT kernel against the O(Q^2) definition
# ---------------------------------------------------------------------------

def naive_dft(ring, u):
    """sum_i u[i]·zeta^(m·i) mod ell with Python ints, one m at a time."""
    z = [int(x) for x in ring.roots_q1]
    Q, ell = len(z), ring.ell
    return [sum(int(u[i]) * z[m * i % Q] for i in range(Q)) % ell
            for m in range(Q)]


def check_dft(ring, seed):
    rng = np.random.default_rng(seed)
    Q = ring.ctx.q - 1
    u = np.array([int(x) for x in rng.integers(0, ring.ell, Q)],
                 dtype=np.uint64)
    out = ring.dft(u)
    assert out.dtype == np.uint64 and out.shape == (Q,)
    assert [int(x) for x in out] == naive_dft(ring, u)


# Q = q - 1 is even, as fields of characteristic 2 are refused.  The chirp
# has 2Q - 1 entries and N is the next power of two: Q = 2 (3 of N = 4),
# 16 (31 of 32), 22 (43 of 64), 256 (511 of 512) and 262 (523 of 1024).
@pytest.mark.parametrize("q", [3, 17, 23, 257, 263])
def test_dft_mod_matches_naive_dft(q):
    check_dft(get_ring(build_field(q), "exact"), seed=q)


def test_dft_mod_rejects_a_wrong_length(f13):
    ring = get_ring(f13, "exact")
    with pytest.raises(ValueError):
        ring.dft(np.zeros(13, dtype=np.uint64))


def percival_bound(n, sqrt5):
    """Percival's E(n) in exact rationals, with sqrt(5) replaced by the
    rational ``sqrt5``: an upper bound when sqrt5 > sqrt(5)."""
    eps, beta = Fraction(1, 2**53), Fraction(1, 2**51)
    return ((1 + eps) ** (3 * n) * (1 + eps * sqrt5) ** (3 * n + 1)
            * (1 + beta) ** (3 * n) - 1)


def test_limb_width_keeps_the_fft_bound():
    # Random inputs almost never reach the bound, so it is checked here, in
    # exact arithmetic, for every transform length dft accepts and
    # every modulus width from the default ell (41 bits) to 2**63.
    assert (_EPS, _ROOT_ERR) == (2.0**-53, 2.0**-51)
    above, below = Fraction(22360679775, 10**10), Fraction(2236067977, 10**9)
    assert below**2 < 5 < above**2
    for n in range(1, _FFT_MAX_LEN.bit_length()):
        upper, lower = percival_bound(n, above), percival_bound(n, below)
        for bits in range(41, 64):
            B = _limb_bits(n, bits)
            L = -(-bits // B)
            worst = L * 2**n * (2**B - 1) ** 2
            assert worst * upper <= Fraction(1, 4), (n, bits)
            assert worst < 2**53   # rounded entries are exact in float64
            for wider in range(B + 1, bits + 1):   # B is the widest
                wider_worst = -(-bits // wider) * 2**n * (2**wider - 1) ** 2
                assert wider_worst * lower > Fraction(1, 4), (n, bits, wider)


@pytest.mark.parametrize("which", ["default-263", "d_max-121"])
def test_dft_mod_exact_at_worst_magnitude(which, big_ring):
    # Every convolution entry a[k] = u[k]·zeta^(-C(k, 2)) is made the
    # residue whose limbs below the top are all 2**B - 1, the top limb as
    # large as ell allows beneath them; the chirp is the ring's own.
    ring = (get_ring(build_field(263), "exact") if which == "default-263"
            else big_ring[1])
    Q, ell = ring.ctx.q - 1, ring.ell
    bits = ell.bit_length()
    B = _limb_bits((2 * Q - 2).bit_length(), bits)
    low = B * (-(-bits // B) - 1)
    worst = (ell >> low << low) - 1
    assert worst < ell and worst % 2**low == 2**low - 1
    z = [int(x) for x in ring.roots_q1]
    u = np.array([worst * z[k * (k - 1) // 2 % Q] % ell for k in range(Q)],
                 dtype=np.uint64)
    assert [int(x) for x in ring.dft(u)] == naive_dft(ring, u)


# sha256 of the exact Gauss tables (uint64, little-endian) as the
# three-prime NTT built them; the float convolution must reproduce them.
SMALL_GAUSS_DIGEST = \
    "5cce6f703a5c74a176d2e57f434c3974a8838bb8367d33d8bbef4ad62fde4b44"
GAUSS_DIGESTS = {
    (601, 1): "cb0de20afbb48cdb881bb5ca1bf681afaaa45ef940c7f9e5c5f31b57c1a45601",
    (7, 4): "c7241dd56bd9abcde5e8436572d610292814cc0fca3e788c64a7eb077e8eb9fa",
    (3001, 1): "a4312dae43ed48d660dcd19972946a61189178e4bec95b05e15599f427259f54",
    (4201, 1): "62a4a0e96d3839a7cecefe5cc3e2498c0dbbf4134f2b20f142801bee7fda0221",
    (19681, 1): "dbb561240e24d40c2cccf2b98510e0ecd05e458b66745b4d1dea6537e44d81f6",
    (3, 9): "447716f68f9e8d3784364299fb1af44886fa15031657816df3ecbfa8b3e2c96a",
    # N = 2**21 and five limbs: the top of the default table budget.
    (1048573, 1):
        "7439dc60ef0e7472802910e7e69ae496421b973a5fc93b39ce4ec272a004b6ad",
}


def table_bytes(ring):
    return ring.gauss_array.astype("<u8").tobytes()


def test_small_gauss_tables_are_pinned():
    digest = hashlib.sha256()
    for q in range(3, 257, 2):
        factors = sympy.factorint(q)
        if len(factors) == 1:
            (p, e), = factors.items()
            digest.update(table_bytes(get_ring(build_field(p, e), "exact")))
    assert digest.hexdigest() == SMALL_GAUSS_DIGEST


@pytest.mark.parametrize("p,e", list(GAUSS_DIGESTS))
def test_gauss_table_is_pinned(p, e):
    # A ring of its own, so the largest tables are freed after the test.
    ring = ResidueRing(build_field(p, e))
    assert hashlib.sha256(table_bytes(ring)).hexdigest() == \
        GAUSS_DIGESTS[p, e]


def test_inexact_convolution_raises_and_caches_nothing(monkeypatch):
    ring = ResidueRing(build_field(601))   # a ring of its own, uncached
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    with pytest.raises(NonIntegerResult):
        ring.gauss_array
    assert ring._gauss is None
    monkeypatch.undo()
    assert hashlib.sha256(table_bytes(ring)).hexdigest() == \
        GAUSS_DIGESTS[601, 1]


# ---------------------------------------------------------------------------
# Gauss tables against the literal sum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(13, 1), (3, 2)])
def test_gauss_array_matches_literal_sum(p, e, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    table = ring.gauss_array
    for m in range(ctx.q - 1):
        expected = naive_gauss(ctx, ring, m)
        assert ring.wrap(table[m]).isclose(expected, scale=ctx.q**0.5)


@pytest.mark.parametrize("p,e", [(3001, 1), (7, 4), (19681, 1)])
def test_exact_gauss_table_at_large_q(p, e):
    ctx = build_field(p, e)
    ring = get_ring(ctx, "exact")
    q, Q, ell = ctx.q, ctx.q - 1, ring.ell
    table = ring.gauss_array
    assert table.dtype == np.uint64 and not table.flags.writeable
    zeta = [int(x) for x in ring.roots_q1]
    theta = [int(ring.roots_p[t])
             for t in ctx.trace_table[ctx.exp_table].tolist()]
    rng = np.random.default_rng(q)
    for m in [0, 1, Q // 2, Q - 1, *rng.integers(2, Q - 1, 4).tolist()]:
        literal = sum(zeta[m * i % Q] * theta[i] for i in range(Q)) % ell
        assert int(table[m]) == literal, m
    # G_m·G_(-m) = q·(-1)^m for every m != 0.
    ms = np.arange(1, Q)
    expected = np.where(ms % 2 == 1, ell - q, q).astype(np.uint64)
    assert np.array_equal(ring.mul_vec(table[1:], table[:0:-1]), expected)


def test_gauss_magnitudes(f13):
    ring = get_ring(f13, "float")
    table = ring.gauss_array
    assert abs(table[0] - (-1)) < 1e-9
    assert np.allclose(np.abs(table[1:]) ** 2, f13.q, atol=1e-9)
    exact = get_ring(f13, "exact")
    assert exact.wrap(exact.gauss_array[0]).lift_int() == -1


# ---------------------------------------------------------------------------
# Large-modulus object-dtype fallback
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def big_ring():
    ctx = build_field(11, 2)
    ring = get_ring(ctx, "exact", d_max=11)
    assert ring.ell >= _FLOAT_MULMOD_LIMIT  # forces the object path
    return ctx, ring


def test_object_path_mul_and_sum(big_ring):
    _, ring = big_ring
    assert not ring._use_numpy
    rng = np.random.default_rng(11)
    u = [int(x) for x in rng.integers(0, ring.ell, 50)]
    v = [int(x) for x in rng.integers(0, ring.ell, 50)]
    out = ring.mul_vec(np.array(u, dtype=np.uint64), np.array(v, dtype=np.uint64))
    for x, y, z in zip(u, v, out):
        assert int(z) == x * y % ring.ell
    assert ring.sum_vec(np.array(u, dtype=object)) == sum(u) % ring.ell


def test_object_path_sums_uint64_residues_as_integers():
    # A 62-bit ell: 4096 uint64 residues near ell would wrap a uint64 sum.
    ring = get_ring(build_field(101), "exact", d_max=15)
    assert not ring._use_numpy and ring.ell.bit_length() == 62
    vals = np.full(5000, ring.ell - 1, dtype=np.uint64)
    assert ring.sum_vec(vals) == 5000 * (ring.ell - 1) % ring.ell
    rows = ring.sum_rows(vals.reshape(2, 2500))
    assert [int(r) for r in rows] == [2500 * (ring.ell - 1) % ring.ell] * 2


def test_object_path_gauss_matches_literal(big_ring):
    ctx, ring = big_ring
    table = ring.gauss_array
    for m in (0, 1, 7, 60, 119):
        assert ring.wrap(table[m]).isclose(naive_gauss(ctx, ring, m))


def test_object_path_dft_matches_naive_dft(big_ring):
    _, ring = big_ring
    check_dft(ring, seed=121)


@pytest.mark.parametrize("p,d_max,bits", [(13, 2, 10), (101, 15, 62)])
def test_dft_mod_at_narrowest_and_widest_moduli(p, d_max, bits):
    # The smallest and the widest moduli an explicit d_max builds here: one
    # 10-bit limb at N = 32 on the uint64 path, four 16-bit limbs at N = 256
    # on the object path.
    ring = get_ring(build_field(p), "exact", d_max=d_max)
    assert ring.ell.bit_length() == bits
    n = (2 * p - 4).bit_length()
    assert -(-bits // _limb_bits(n, bits)) == {10: 1, 62: 4}[bits]
    check_dft(ring, seed=bits)


def test_oversized_modulus_is_rejected():
    ctx = build_field(13, 2)
    with pytest.raises(ValueError):
        get_ring(ctx, "exact", d_max=16)
