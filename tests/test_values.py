"""Value-ring backends: exact residue arithmetic vs complex floats.

The reference for Gauss tables is a literal scalar sum through the
root-of-unity tables — no FFT, no blocking — so the two computation
routes are independent.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from hypercount import (
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
from hypercount.values import _FLOAT_MULMOD_LIMIT


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


def test_get_ring_caches_per_field(f13):
    assert get_ring(f13, "exact") is get_ring(f13, "exact")
    assert get_ring(f13, "float") is get_ring(f13, "float")
    assert get_ring(f13, "float", tolerance=1e-9) is not get_ring(f13, "float")
    with pytest.raises(ValueError):
        get_ring(f13, "symbolic")


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

def test_mul_vec_matches_python_ints(ring13):
    rng = np.random.default_rng(5)
    if ring13.backend == "exact":
        u = rng.integers(0, ring13.ell, 300).astype(np.uint64)
        v = rng.integers(0, ring13.ell, 300).astype(np.uint64)
        out = ring13.mul_vec(u, v)
        for x, y, z in zip(u, v, out):
            assert int(z) == int(x) * int(y) % ring13.ell
    else:
        u = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        assert np.allclose(ring13.mul_vec(u, u), u * u)


def test_sum_vec_chunks_are_exact(f13):
    ring = get_ring(f13, "exact")
    vals = np.full(10_000, ring.ell - 1, dtype=np.uint64)
    assert ring.sum_vec(vals) == (10_000 * (ring.ell - 1)) % ring.ell
    mat = np.full((3, 5000), ring.ell - 1, dtype=np.uint64)
    rows = ring.sum_rows(mat)
    assert all(int(r) == (5000 * (ring.ell - 1)) % ring.ell for r in rows)


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


def test_object_path_gauss_matches_literal(big_ring):
    ctx, ring = big_ring
    table = ring.gauss_array
    for m in (0, 1, 7, 60, 119):
        assert ring.wrap(table[m]).isclose(naive_gauss(ctx, ring, m))


def test_oversized_modulus_is_rejected():
    ctx = build_field(13, 2)
    with pytest.raises(ValueError):
        get_ring(ctx, "exact", d_max=16)
