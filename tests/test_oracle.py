"""Oracle internals: brute counts, identity suites, decomposition.

brute_count is itself the oracle for the closed forms, so here it is
pinned against hand-frozen values and an all-pairs enumeration that
shares no code with the vectorized path.
"""

import tracemalloc

import numpy as np
import pytest

from hypercount import (
    ComplexRing,
    CongruenceViolated,
    CurveParams,
    IdentityReport,
    ResidueRing,
    brute_count,
    build_field,
    davenport_hasse_products,
    decompose_theta_sum,
    get_ring,
    quad_component,
    quadratic_sign,
    rhs_table,
    theta_scaled_sum,
    verify_davenport_hasse,
    verify_lemmas,
)
from hypercount.ffield import _build_tables
from hypercount.oracle import _compare, _coset_product, _product_down


def all_pairs_count(ctx, curve):
    """Double loop over (x, y), testing y^2 = f(x) by table arithmetic."""
    n = 0
    for x in ctx.elements():
        if curve.family == "A":
            fx = ctx.add(ctx.add(ctx.pow_elem(x, curve.d),
                                 ctx.mul(curve.a, x)), curve.b)
        else:
            fx = ctx.add(ctx.add(ctx.pow_elem(x, curve.d),
                                 ctx.mul(curve.a,
                                         ctx.pow_elem(x, curve.d - 1))),
                         curve.b)
        for y in ctx.elements():
            if ctx.mul(y, y) == fx:
                n += 1
    return n


# ---------------------------------------------------------------------------
# Brute-force counting
# ---------------------------------------------------------------------------

def test_brute_count_frozen_base_cases():
    ctx = build_field(3)
    assert brute_count(ctx, CurveParams("A", 3, 1, 1)) == 3
    assert brute_count(ctx, CurveParams("B", 3, 1, 2)) == 2
    assert brute_count(build_field(5), CurveParams("A", 2, 1, 1)) == 4


@pytest.mark.parametrize("p,e", [(3, 1), (7, 1), (3, 2), (13, 1), (5, 2)])
def test_brute_count_matches_all_pairs_enumeration(p, e):
    ctx = build_field(p, e)
    for family in "AB":
        for d in (2, 3, 4):
            for a, b in [(1, 1), (2, 1), (1, 2), (2, 2)]:
                curve = CurveParams(family, d, a % ctx.q, b % ctx.q)
                assert brute_count(ctx, curve) == all_pairs_count(ctx, curve)


@pytest.mark.parametrize("d,expected", [(2**60 + 1, 17), (2**63, 13)])
def test_brute_count_at_a_huge_degree_on_f13(d, expected):
    # d·log(x) once wrapped int64 (2**60 + 1 gave 18) or raised
    # OverflowError (2**63).  Reference: Euler's criterion on Python ints.
    q = 13

    def roots(f):   # solutions y of y² = f
        return 1 if f == 0 else 2 if pow(f, (q - 1) // 2, q) == 1 else 0

    assert sum(roots((pow(x, d, q) + x + 2) % q) for x in range(q)) == expected
    assert brute_count(build_field(q), CurveParams("A", d, 1, 2)) == expected


def test_brute_count_at_a_huge_degree_on_f1048573():
    # 10**13·(q - 2) passes 2**63, so the table product once wrapped and
    # gave 1047103.
    ctx = build_field(1048573)
    d = 10**13
    same = d % (ctx.q - 1) + (ctx.q - 1)
    assert brute_count(ctx, CurveParams("B", d, 5, 11)) == 1047203
    assert brute_count(ctx, CurveParams("B", same, 5, 11)) == 1047203


def test_rhs_table_values(f13):
    curve = CurveParams("A", 3, 2, 5)
    tab = rhs_table(f13, curve)
    for x in f13.elements():
        expected = (x**3 + 2 * x + 5) % 13
        assert tab[x] == expected


# ---------------------------------------------------------------------------
# Scaled theta sums
# ---------------------------------------------------------------------------

def test_theta_scaled_sum_collapses(f9, backend):
    ring = get_ring(f9, backend)
    assert theta_scaled_sum(f9, 0, ring).lift_int() == f9.q - 1
    for u in range(1, f9.q):
        assert theta_scaled_sum(f9, u, ring).lift_int() == -1


# ---------------------------------------------------------------------------
# Lemma suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(13, 1), (3, 2), (7, 1), (5, 2)])
def test_verify_lemmas_passes(p, e, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    reports = verify_lemmas(ctx, ring)
    names = [r.identity for r in reports]
    assert names == ["gauss_reflection", "gauss_to_jacobi",
                     "orthogonality", "theta_from_gauss"]
    for rep in reports:
        assert rep.passed, rep
        assert rep.mismatch_count == 0
        assert rep.cases > 0
        if backend == "float":
            assert rep.worst_residual < 1e-9
        else:
            assert rep.worst_residual == 0.0


def test_identity_report_passed_semantics():
    good = IdentityReport("x", 10, 0, 0.0)
    bad = IdentityReport("x", 10, 2, 1.0, ((1, 2),))
    assert good.passed and not bad.passed


# ---------------------------------------------------------------------------
# Product relations over character orbits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(13, 1), (3, 2)])
def test_davenport_hasse_all_divisors_all_psi(p, e, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    Q = ctx.q - 1
    for m in range(1, Q + 1):
        if Q % m:
            continue
        bulk = davenport_hasse_products(ctx, m, ring)
        assert bulk.passed and bulk.cases == Q
        for psi in range(Q):
            reports = verify_davenport_hasse(ctx, m, psi, ring)
            assert all(r.passed for r in reports), (m, psi)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_davenport_hasse_every_divisor_at_601(backend):
    # Up to 600 Gauss factors per product: 601^300 overflows a double
    # unless the float factors are scaled to unit modulus.
    ctx = build_field(601)
    ring = get_ring(ctx, backend)
    for m in (m for m in range(1, 601) if 600 % m == 0):
        bulk = davenport_hasse_products(ctx, m, ring)
        assert bulk.passed and bulk.cases == 600, m
        reports = verify_davenport_hasse(ctx, m, 1, ring)
        assert [r.cases for r in reports] == [1, 1200 if m > 1 else 0], m
        assert all(r.passed for r in reports), m


def test_compare_counts_non_finite_residuals_as_mismatches(f13):
    ring = get_ring(f13, "float")
    lhs = np.ones(4, dtype=np.complex128)
    rhs = lhs.copy()
    rhs[1] = np.nan
    rhs[3] = np.inf
    mismatches, _, first = _compare(ring, lhs, rhs, lambda i: i)
    assert (mismatches, first) == (2, (1, 3))


def test_nan_gauss_sum_fails_the_product_check(f13):
    ring = ComplexRing(f13)
    table = ring.gauss_array.copy()
    table[5] = np.nan
    ring._gauss = table
    rep = davenport_hasse_products(f13, 2, ring)
    assert not rep.passed and rep.mismatch_count > 0


# Davenport–Hasse cases that fail once G(T^5) over F_13 is off by one, per
# m: psi with T^5 among the psi·chi (the entries at m = 12 cancel).  Pinned
# from separate products of each side; fused products must not mix rows.
DH_FAILURES_G5 = {1: (), 2: (5, 11), 3: (1, 5, 9), 4: (2, 5, 8, 11),
                  6: (1, 3, 5, 7, 9, 11), 12: ()}


@pytest.mark.parametrize("ring_type", [ResidueRing, ComplexRing])
def test_corrupt_gauss_sum_fails_the_identity_checks(f13, ring_type):
    ring = ring_type(f13)
    table = ring.gauss_array.copy()
    table[5] = (ring.wrap(table[5]) + 1).payload
    ring._gauss = table
    for m, psis in DH_FAILURES_G5.items():
        rep = davenport_hasse_products(f13, m, ring)
        assert rep.mismatch_count == len(psis), m
        assert rep.first_mismatches == tuple((m, psi) for psi in psis), m
        for psi in range(12):
            rel = verify_davenport_hasse(f13, m, psi, ring)[0]
            assert rel.identity == "davenport_hasse_product"
            assert rel.first_mismatches == (((m, psi),) if psi in psis
                                            else ()), (m, psi)
    lemmas = {r.identity: r for r in verify_lemmas(f13, ring)}
    assert not lemmas["gauss_reflection"].passed
    assert lemmas["gauss_reflection"].first_mismatches == (5, 7)


# Fields for the coset products: prime and extension, with Q = q - 1 of
# several divisors, and an entry k of the Gauss table with gcd(k, Q) = 1.
COSET_FIELDS = [(13, 1, 5), (5, 2, 5), (61, 1, 7), (3, 4, 7)]


def gather_product(ring, G, m, t):
    """The progression products as one (m, q-1) gather multiplied down:
    entry l is the product of G[(l + j·t·(q-1)/m) mod (q-1)] over j < m."""
    Q = len(G)
    ls = np.arange(Q, dtype=np.int64)
    js = np.arange(m, dtype=np.int64) * (Q // m)
    return _product_down(ring, G[(ls + t * js[:, None]) % Q])


@pytest.mark.parametrize("p,e", [(p, e) for p, e, _ in COSET_FIELDS])
def test_coset_products_equal_the_gather_products(p, e, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    G, _ = ring.unit_gauss()
    Q = ctx.q - 1
    for m in (d for d in range(1, Q + 1) if Q % d == 0):
        for t in (1, -1):
            coset = _coset_product(ring, G, m, t)
            gather = gather_product(ring, G, m, t)
            if backend == "exact":
                assert coset.dtype == gather.dtype == np.uint64
                assert np.array_equal(coset, gather), (m, t)
            else:
                assert np.allclose(coset, gather, rtol=0, atol=1e-12), (m, t)


@pytest.mark.parametrize("ring_type", [ResidueRing, ComplexRing])
@pytest.mark.parametrize("p,e,k", COSET_FIELDS)
def test_corrupt_gauss_entry_fails_exactly_on_its_cosets(ring_type, p, e, k):
    # G(T^k) enters the left side of every product whose coset holds k, and,
    # k being prime to Q, no right side at m > 1: the relation fails at
    # every psi = k (mod Q/m) for 1 < m < Q (at m = Q its constant side
    # cancels the change), and the progression at every l = k (mod Q/m),
    # in both directions.
    ctx = build_field(p, e)
    ring = ring_type(ctx)
    Q = ctx.q - 1
    table = ring.gauss_array.copy()
    table[k] = (ring.wrap(table[k]) + 1).payload
    ring._gauss = table
    for m in (d for d in range(2, Q + 1) if Q % d == 0):
        ls = tuple(range(k % (Q // m), Q, Q // m))
        rep = davenport_hasse_products(ctx, m, ring)
        expect = ls if m < Q else ()
        assert rep.mismatch_count == len(expect), m
        assert rep.first_mismatches == tuple((m, l) for l in expect[:8]), m
        rep = verify_davenport_hasse(ctx, m, 1, ring)[1]
        assert rep.identity == "gauss_product_progression"
        labels = [(l, t) for t in (1, -1) for l in ls]
        assert rep.mismatch_count == len(labels) == 2 * m, m
        assert rep.first_mismatches == tuple(labels[:8]), m


@pytest.mark.parametrize("ring_type", [ResidueRing, ComplexRing])
@pytest.mark.parametrize("q,mismatches,first", [
    (13, 66, ((0, 1), (0, 3), (0, 5), (0, 7), (0, 9), (0, 11), (1, 3),
              (1, 5))),
    # Q = 96 takes two row blocks of the comparison.
    (97, 4560, ((0, 1), (0, 3), (0, 5), (0, 7), (0, 9), (0, 11), (0, 13),
                (0, 15))),
])
def test_corrupt_jacobi_term_fails_gauss_to_jacobi(ring_type, q, mismatches,
                                                   first):
    # A field of its own, outside build_field's cache, with a modified copy
    # of its read-only table: dlog(1 - g^5) moves by Q/2, so T^-n(1 - g^5)
    # changes sign exactly for odd n.  Counts and labels were pinned from
    # the per-m loop this check replaced.
    ctx = _build_tables(q, 1)
    Q = ctx.q - 1
    corrupt = ctx.one_minus_log.copy()
    corrupt[5] = (corrupt[5] + Q // 2) % Q
    ctx.one_minus_log = corrupt
    reports = {r.identity: r for r in verify_lemmas(ctx, ring_type(ctx))}
    rep = reports.pop("gauss_to_jacobi")
    assert (rep.cases, rep.mismatch_count, rep.first_mismatches) == \
        (Q * (Q - 1), mismatches, first)
    assert all(r.passed for r in reports.values())


def test_davenport_hasse_degenerate_and_errors(f13):
    ring = get_ring(f13, "exact")
    reports = verify_davenport_hasse(f13, 1, 3, ring)
    assert [r.identity for r in reports] == \
        ["davenport_hasse_product", "gauss_product_progression"]
    assert reports[1].cases == 0  # no progression content at m = 1
    with pytest.raises(CongruenceViolated):
        verify_davenport_hasse(f13, 5, 0, ring)
    with pytest.raises(ValueError):
        verify_davenport_hasse(f13, 0, 0, ring)
    with pytest.raises(CongruenceViolated):
        davenport_hasse_products(f13, 7, ring)


def test_progression_covers_all_offsets_both_directions(f13, backend):
    ring = get_ring(f13, backend)
    rep = verify_davenport_hasse(f13, 4, 1, ring)[1]
    assert rep.identity == "gauss_product_progression"
    assert rep.cases == 2 * (f13.q - 1)  # every l, t = +1 and t = -1
    assert rep.passed


# ---------------------------------------------------------------------------
# Additive-character decomposition of the count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e,family,d", [
    (13, 1, "A", 2), (13, 1, "A", 3), (13, 1, "B", 3), (13, 1, "B", 4),
    (3, 2, "A", 2), (5, 2, "B", 3), (7, 1, "B", 3), (11, 2, "A", 5),
])
def test_decomposition_reconstructs_count(p, e, family, d, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    for a, b in [(1, 1), (2, 1), (1, 2)]:
        curve = CurveParams(family, d, a, b)
        rep = decompose_theta_sum(ctx, curve, ring)
        assert rep.z_sum.lift_int() == -1
        assert rep.yz_sum.lift_int() == 1 + ctx.q * quadratic_sign(ctx, b)
        assert rep.n_reconstructed == brute_count(ctx, curve)
        if rep.quad_component is not None:
            total = (ctx.q * ctx.q
                     + ctx.q * quadratic_sign(ctx, b)
                     + rep.quad_component)
            assert total.divide_by_q().lift_int() == rep.n_reconstructed


@pytest.mark.parametrize("p,e", [(2399, 1), (7, 4)])
def test_decomposition_holds_no_square_table(p, e, backend):
    # Counting the pairs by value keeps a call's peak at O(q): it was 88 MB
    # (exact) and 132 MB (float) at q = 2399 with the (q-1)² codes held.
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    decompose_theta_sum(ctx, CurveParams("A", 2, 1, 1), ring)  # ring tables
    curve = CurveParams("B", 3, 5, 11)
    tracemalloc.start()
    try:
        rep = decompose_theta_sum(ctx, curve, ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_reconstructed == brute_count(ctx, curve)
    assert peak < 5 * 2**20


def test_quad_component_requires_divisibility():
    # q = 7: 2(d-1) = 4 does not divide 6, so family A at d = 3 has no
    # closed quadratic component, while family B's odd form (2d = 6) does.
    ctx = build_field(7)
    assert quad_component(ctx, CurveParams("A", 3, 1, 1)) is None
    assert quad_component(ctx, CurveParams("B", 3, 1, 1)) is not None
    rep = decompose_theta_sum(ctx, CurveParams("A", 3, 1, 1))
    assert rep.quad_component is None
    assert rep.n_reconstructed == brute_count(ctx, CurveParams("A", 3, 1, 1))
