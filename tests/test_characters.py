"""Multiplicative/additive characters, Gauss/Jacobi sums, binomials.

The load-bearing check here is binomial dual-routing: the definitional
Jacobi-sum binomial against the Gauss-table column kernel, exhaustively.
"""

import numpy as np
import pytest

from hypercount import (
    MixedFieldContexts,
    MultChar,
    OrderDoesNotDivide,
    binom,
    binom_column,
    build_field,
    char_of_order,
    eval_char,
    gauss_sum,
    get_ring,
    jacobi_sum,
    quadratic_char,
    quadratic_sign,
    theta,
    trivial_char,
)

# ---------------------------------------------------------------------------
# Group structure
# ---------------------------------------------------------------------------


def test_index_normalization_and_group_law(f13):
    Q = f13.q - 1
    assert MultChar(f13, 13).index == 1
    assert MultChar(f13, -1).index == Q - 1
    a, b = MultChar(f13, 5), MultChar(f13, 9)
    assert (a * b).index == (5 + 9) % Q
    assert (a**3).index == 15 % Q
    assert a.bar().index == Q - 5
    assert (a * a.bar()).is_trivial


def test_char_orders(f13):
    assert trivial_char(f13).order == 1
    assert trivial_char(f13).is_trivial
    phi = quadratic_char(f13)
    assert phi.order == 2 and phi.index == 6
    for n in (1, 2, 3, 4, 6, 12):
        assert char_of_order(f13, n).order == n
    with pytest.raises(OrderDoesNotDivide):
        char_of_order(f13, 5)
    with pytest.raises(OrderDoesNotDivide):
        char_of_order(f13, 0)


def test_mixed_contexts_rejected(f13, f25):
    with pytest.raises(MixedFieldContexts):
        MultChar(f13, 1) * MultChar(f25, 1)


# ---------------------------------------------------------------------------
# Evaluation semantics
# ---------------------------------------------------------------------------

def test_char_is_multiplicative_with_zero_convention(f9, backend):
    ring = get_ring(f9, backend)
    for chi in (MultChar(f9, 1), MultChar(f9, 3), trivial_char(f9)):
        assert eval_char(chi, 0, ring) == ring.zero()
        for x in f9.elements():
            for y in f9.elements():
                lhs = eval_char(chi, f9.mul(x, y), ring)
                rhs = eval_char(chi, x, ring) * eval_char(chi, y, ring)
                assert lhs == rhs


def test_trivial_char_is_one_on_units(f13, backend):
    ring = get_ring(f13, backend)
    eps = trivial_char(f13)
    for x in range(1, f13.q):
        assert eps(x, ring) == ring.one()


def test_quadratic_sign_detects_squares(f25):
    squares = {f25.mul(x, x) for x in range(1, f25.q)}
    for x in f25.elements():
        expected = 0 if x == 0 else (1 if x in squares else -1)
        assert quadratic_sign(f25, x) == expected


@pytest.mark.parametrize("index", [2.5, 2.0, True, "2", np.float64(2)])
def test_mult_char_refuses_non_integer_indices(f13, index):
    # MultChar(f13, 2.5) once built a character with index 2.5.
    with pytest.raises(TypeError, match="^index must be an integer"):
        MultChar(f13, index)


def test_mult_char_converts_numpy_integers(f13):
    chi = MultChar(f13, np.int64(14))
    assert chi == MultChar(f13, 2) and type(chi.index) is int


@pytest.mark.parametrize("x", [2.0, True, np.float64(2), "2"])
def test_eval_char_refuses_non_integer_codes(f13, backend, x):
    # eval_char(chi, 2.0) once ended in numpy's IndexError.
    with pytest.raises(TypeError, match="^x must be an integer"):
        eval_char(quadratic_char(f13), x, get_ring(f13, backend))


@pytest.mark.parametrize("alpha", [2.0, True, np.float64(2), "2"])
def test_theta_refuses_non_integer_codes(f13, backend, alpha):
    # theta(ctx, 2.0) once ended in numpy's IndexError.
    with pytest.raises(TypeError, match="^alpha must be an integer"):
        theta(f13, alpha, get_ring(f13, backend))


@pytest.mark.parametrize("n", [True, 3.0, np.float64(3), "3"])
def test_char_of_order_refuses_non_integer_orders(f13, n):
    # char_of_order(ctx, True) once returned the trivial character.
    with pytest.raises(TypeError, match="^n must be an integer"):
        char_of_order(f13, n)
    assert char_of_order(f13, np.int64(3)) == char_of_order(f13, 3)


@pytest.mark.parametrize("m0,n0,name", [(1.0, 2, "m0"), (1, 2.5, "n0"),
                                        (True, 2, "m0")])
def test_binom_column_refuses_non_integer_indices(f13, backend, m0, n0,
                                                  name):
    # binom_column(ctx, 1.0, 2) once ended in numpy's "slice indices must
    # be integers".
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        binom_column(f13, m0, n0, get_ring(f13, backend))


@pytest.mark.parametrize("x", [-1, 13, 14])
def test_characters_refuse_codes_outside_the_field(f13, backend, x):
    ring = get_ring(f13, backend)
    for call in (lambda: eval_char(quadratic_char(f13), x, ring),
                 lambda: MultChar(f13, 3)(x, ring),
                 lambda: quadratic_sign(f13, x),
                 lambda: theta(f13, x, ring)):
        with pytest.raises(ValueError, match="not a field-element code"):
            call()


def test_sign_at_minus_one_matches_evaluation(f13, backend):
    ring = get_ring(f13, backend)
    minus_one = f13.neg(1)
    for k in range(f13.q - 1):
        chi = MultChar(f13, k)
        assert chi(minus_one, ring).lift_int() == chi.sign_at_minus_one()


def test_theta_is_additive(f9, backend):
    ring = get_ring(f9, backend)
    for x in f9.elements():
        for y in f9.elements():
            assert theta(f9, f9.add(x, y), ring) == \
                theta(f9, x, ring) * theta(f9, y, ring)


def test_character_sum_orthogonality(f7, backend):
    ring = get_ring(f7, backend)
    for k in range(f7.q - 1):
        chi = MultChar(f7, k)
        total = ring.zero()
        for x in range(1, f7.q):
            total = total + chi(x, ring)
        assert total.lift_int() == (f7.q - 1 if k == 0 else 0)


# ---------------------------------------------------------------------------
# Gauss and Jacobi sums
# ---------------------------------------------------------------------------

def test_gauss_sum_matches_definition(f7, backend):
    ring = get_ring(f7, backend)
    for k in range(f7.q - 1):
        chi = MultChar(f7, k)
        total = ring.zero()
        for x in range(1, f7.q):
            total = total + chi(x, ring) * theta(f7, x, ring)
        assert gauss_sum(chi, ring) == total


def test_jacobi_sum_matches_definition(f9, backend):
    ring = get_ring(f9, backend)
    for ka in range(f9.q - 1):
        for kb in range(f9.q - 1):
            A, B = MultChar(f9, ka), MultChar(f9, kb)
            total = ring.zero()
            for x in f9.elements():
                total = total + A(x, ring) * B(f9.sub(1, x), ring)
            assert jacobi_sum(A, B, ring) == total


def test_jacobi_magnitude_and_gauss_ratio(f13):
    ring = get_ring(f13, "float")
    A, B = MultChar(f13, 1), MultChar(f13, 2)
    j = jacobi_sum(A, B, ring)
    assert abs(abs(j.payload) ** 2 - f13.q) < 1e-9
    ratio = gauss_sum(A, ring) * gauss_sum(B, ring)
    assert abs(j.payload * gauss_sum(A * B, ring).payload - ratio.payload) < 1e-6


def test_jacobi_gauss_ratio_where_index_products_pass_int32(backend):
    # At q = 100801, B.index·dlog(1 - x) reaches (q-1)^2 > 2^31, past the
    # field's int32 tables: J(A, B) = G(A)G(B)/G(AB) for AB nontrivial.
    ctx = build_field(100801)
    ring = get_ring(ctx, backend)
    Q = ctx.q - 1
    assert Q * Q > 2**31
    rng = np.random.default_rng(100801)
    pairs = rng.integers(Q // 2, Q, (4, 2)).tolist() + [[Q - 1, Q - 2]]
    for ka, kb in pairs:
        A, B = MultChar(ctx, ka), MultChar(ctx, kb)
        assert not (A * B).is_trivial
        j = jacobi_sum(A, B, ring)
        lhs = j * gauss_sum(A * B, ring)
        rhs = gauss_sum(A, ring) * gauss_sum(B, ring)
        assert lhs.isclose(rhs, scale=ctx.q ** 1.5), (ka, kb)
        if backend == "float":
            ratio = rhs.payload / gauss_sum(A * B, ring).payload
            assert abs(j.payload - ratio) <= 1e-6 * ctx.q, (ka, kb)


# ---------------------------------------------------------------------------
# Binomial dual-routing: definitional vs Gauss-kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(13, 1), (3, 2)])
def test_binom_column_matches_definitional_binom(p, e, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    Q = ctx.q - 1
    for m0, n0 in [(0, 0), (1, 0), (0, 1), (3, 7), (5, 5), (Q - 1, 2)]:
        col = binom_column(ctx, m0, n0, ring)
        for j in range(Q):
            direct = binom(MultChar(ctx, m0 + j), MultChar(ctx, n0 + j), ring)
            assert ring.wrap(col[j]).isclose(direct), (m0, n0, j)


def gather_binom_column(ctx, m0, n0, ring):
    """binom_column as it was first written: the G_{-(n0+j)} row by an
    index gather and the sign by a multiply (float) or a masked negation
    (exact), off the diagonal."""
    Q, q = ctx.q - 1, ctx.q
    G = ring.gauss_array
    ga = np.roll(G, -m0)
    gb = np.roll(G[(-np.arange(Q)) % Q], -n0)
    terms = ring.mul_vec(ring.mul_vec(ga, gb),
                         np.broadcast_to(G[(n0 - m0) % Q], (Q,)))
    scaled = ring.scale(terms, 1, q * q)
    odd = (np.arange(Q) + m0) % 2 == 1
    if ring.backend == "float":
        return scaled * np.where(odd, -1.0, 1.0)
    return np.where(odd, (ring.ell - scaled) % ring.ell, scaled)


def roll_binom_column(ctx, m0, n0, ring):
    """binom_column as it was before it wrote into its output buffer: two
    np.roll rows, a new array for every product, the scale and the sign."""
    Q, q = ctx.q - 1, ctx.q
    if m0 == n0:
        nums = np.full(Q, -1, dtype=np.int64)
        nums[(-m0) % Q] = q - 2
        return ring.rational_vec(nums, q)
    G = ring.gauss_array
    terms = ring.mul_vec(np.roll(G, -m0), np.roll(G[::-1], 1 - n0))
    terms = ring.mul_vec(terms, G[(n0 - m0) % Q], out=terms)
    out = ring.scale(terms, 1, q * q)
    ring.negate(out[(m0 + 1) % 2::2])
    return out


# Q = q - 1 is 0, 2, 4 and 6 mod 8, so the rows end at every offset of a
# SIMD block.
@pytest.mark.parametrize("p,e", [(601, 1), (3, 5), (5, 3), (7, 3), (1201, 1)])
def test_binom_column_matches_gather_reference(p, e, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    Q = ctx.q - 1
    rng = np.random.default_rng(12)
    pairs = [(Q - 1, 5), (7, 0), (Q - 1, 0), (3, Q - 1), (0, Q - 1),
             (0, 1), (1, 0), (1, Q - 1), (Q // 2, 1),
             *rng.integers(0, Q, size=(20, 2)).tolist()]
    buffer = np.empty_like(ring.roots_q1)
    for m0, n0 in pairs:
        if m0 == n0:
            continue
        col = binom_column(ctx, m0, n0, ring)
        ref = gather_binom_column(ctx, m0, n0, ring)
        assert col.dtype == ref.dtype and col.shape == ref.shape
        assert col.tobytes() == ref.tobytes(), (m0, n0)
        assert col.tobytes() == roll_binom_column(ctx, m0, n0, ring).tobytes()
        # The same column, written into coefficient_vector's buffer.
        ring._binom_cache.clear()
        assert binom_column(ctx, m0, n0, ring, _out=buffer) is buffer
        assert buffer.tobytes() == ref.tobytes(), (m0, n0)
        ring._binom_cache.clear()
    for m in (0, 1, Q // 2, Q - 1):  # the diagonal, -1/q + [j = -m]
        col = binom_column(ctx, m, m, ring)
        nums = np.full(Q, -1)
        nums[(-m) % Q] = ctx.q - 2
        assert col.tobytes() == ring.rational_vec(nums, ctx.q).tobytes()


def test_binom_column_is_cached_and_frozen(f13, backend):
    ring = get_ring(f13, backend)
    col = binom_column(f13, 2, 5, ring)
    assert binom_column(f13, 2, 5, ring) is col
    assert binom_column(f13, 2 + (f13.q - 1), 5, ring) is col  # index mod Q
    assert not col.flags.writeable
    # A hit returns the cached column, not the caller's buffer.
    assert binom_column(f13, 2, 5, ring, _out=np.empty_like(col)) is col
