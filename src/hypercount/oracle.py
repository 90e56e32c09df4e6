"""Ground truth and identity verification.

Everything the closed-form counts are tested against lives here:

* :func:`brute_count` — an O(q) enumeration of y² = f(x) solutions via
  discrete-log parity, independent of all character-sum machinery.
* :func:`verify_lemmas` — exhaustive checks of the four character-sum
  lemmas the closed forms rest on (Gauss-sum reflection, the
  Gauss/Jacobi product identity, orthogonality in both directions, and
  the additive character's expansion through Gauss sums).  Three of them
  share one pass over row blocks of the character table; every Jacobi
  sum is its defining sum, taken a block of rows at a time as a
  ``ring.matmul``.
* :func:`verify_davenport_hasse` — the Davenport–Hasse product relation
  plus its specialization to products of Gauss sums along arithmetic
  progressions of indices; :func:`davenport_hasse_products` checks the
  relation for every psi at once.  A product of the m Gauss factors
  G(T^(l + j·(q-1)/m)), j < m, depends on l only mod (q-1)/m, so it is
  taken once per coset: the m rows of the table reshaped to
  (m, (q-1)/m) are multiplied down in pairs, ceil(log2 m) ``mul_vec``
  calls on rows of (q-1)/m entries, and the result is tiled, O(q) per
  divisor m.  A verifier takes the relation's constant side, the product
  at psi = T^0, from the same coset products.
* :func:`decompose_theta_sum` — the q·N = q² + (sum over z) + (sum over
  y,z) + (sum over x,z) + (sum over x,y,z) decomposition obtained by
  counting curve points with additive characters, each term computed by
  literal summation, together with the closed quadratic-twist component
  that the x,y,z-term collapses to.

All verifiers work in either value ring; failures are reported, never
raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .characters import quadratic_sign
from .curvecount import CurveParams
from .errors import CongruenceViolated
from .ffield import FieldCtx, dlog
from .values import CharValue, get_ring

#: Entries of an O(q²) table that a verifier builds at once: tables of q²
#: entries are built and checked in blocks of about this many.
_BLOCK = 2**12

#: Most entries of a (q-1)×(q-1) table that ``hypercount verify`` lets the
#: verifiers build.  One such table is left: the Jacobi products' right
#: operand in :func:`verify_lemmas`, held in the split form ``ring.matmul``
#: takes (8 to 16 bytes an entry).  The CLI refuses a larger field before
#: it builds anything; the largest q it verifies is 4093, and the first it
#: refuses 4099.
VERIFY_TABLE_LIMIT = 2**24


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exhaustively checked identity."""

    identity: str
    cases: int
    mismatch_count: int
    worst_residual: float
    first_mismatches: tuple = field(default=())

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0


@dataclass(frozen=True)
class DecompositionReport:
    """Terms of the additive-character point-count decomposition.

    For P(x,y) = f(x) - y², summing theta(z·P(x,y)) over all z and all
    (x,y) yields q·N.  Splitting off zero values of z, x, y leaves

        q·N = q² + z_sum + yz_sum + xz_sum + xyz_sum

    where each term ranges over the named variables being nonzero.  The
    x,y,z-term further collapses to -xz_sum plus a single quadratic-twist
    component (the y-sum survives only at the quadratic character), so

        q·N = q² + q·phi(b) + quad_component.

    quad_component is None when q-1 lacks the divisibility its closed
    form needs (2(d-1) for family A and even-d family B, 2d for odd-d
    family B).
    """

    z_sum: CharValue
    yz_sum: CharValue
    xz_sum: CharValue
    xyz_sum: CharValue
    quad_component: CharValue | None
    n_reconstructed: int


# ---------------------------------------------------------------------------
# Brute-force counting.
# ---------------------------------------------------------------------------

def rhs_table(ctx: FieldCtx, curve: CurveParams) -> np.ndarray:
    """Codes of f(x) for x = 0..q-1, f the curve's right-hand side."""
    xs = np.arange(ctx.q, dtype=np.int64)
    lead = ctx.pow_elem(xs, curve.d)
    if curve.family == "A":
        mid = ctx.mul(curve.a, xs)
    else:
        mid = ctx.mul(curve.a, ctx.pow_elem(xs, curve.d - 1))
    return ctx.add(ctx.add(lead, mid), curve.b)


def brute_count(ctx: FieldCtx, curve: CurveParams) -> int:
    """Count solutions of y² = f(x) by discrete-log parity.

    Each x contributes 2 points if f(x) is a nonzero square, 1 if
    f(x) = 0, and 0 otherwise; squareness is evenness of the discrete
    log.  Uses no character-sum machinery.
    """
    fx = rhs_table(ctx, curve)
    signs = 1 - 2 * (ctx.log_table[fx] & 1)
    return int(ctx.q + np.sum(np.where(fx == 0, 0, signs)))


# ---------------------------------------------------------------------------
# z-sum helper: sum of theta(z*u) over nonzero z, by literal summation.
# ---------------------------------------------------------------------------

def theta_scaled_sum(ctx: FieldCtx, u: int, ring=None) -> CharValue:
    """Sum of theta(z*u) over z in F_q^x, summed term by term.

    Equals q-1 when u = 0 and -1 otherwise (adding the z = 0 term turns
    it into q times the indicator of u = 0); computing it literally is
    the point — decomposition checks must not assume the collapse.
    """
    ring = get_ring(ctx, "exact") if ring is None else ring
    return ring.wrap(_zsum_rows(ctx, ring, np.array([u]))[0])


def _zsum_rows(ctx: FieldCtx, ring, us) -> np.ndarray:
    """Payloads of theta_scaled_sum(u) for each u in us, summed term by
    term, one row of q - 1 terms per u."""
    zs = np.arange(1, ctx.q, dtype=np.int64)
    return ring.sum_rows(ring.theta_root_vec(
        ctx.trace_table[ctx.mul(us[:, None], zs)]))


def _theta_zsum_table(ctx: FieldCtx, ring) -> np.ndarray:
    """Payloads of theta_scaled_sum(u) for every u, in one O(q²) pass over
    blocks of about ``_BLOCK`` products.

    Cached on the ring: the table depends only on the field and backend,
    and decomposition checks reuse it across many curves.
    """
    tab = ring._zsum_table
    if tab is None:
        us = np.arange(ctx.q, dtype=np.int64)
        rows = max(1, _BLOCK // ctx.q)
        tab = np.concatenate([_zsum_rows(ctx, ring, us[lo:lo + rows])
                              for lo in range(0, ctx.q, rows)])
        tab.setflags(write=False)
        ring._zsum_table = tab
    return tab


# ---------------------------------------------------------------------------
# Identity comparison plumbing.
# ---------------------------------------------------------------------------

def _compare(ring, lhs, rhs, label_of, scale=1.0):
    """Mismatch count, worst residual, first few failing labels.

    label_of maps a flat position to a human-readable case label and is
    only invoked for failures.  Float residuals are normalized by the
    identity's natural magnitude ``scale`` so the report stays
    meaningful when both sides are large.
    """
    bad, worst = ring.mismatches(np.asarray(lhs), np.asarray(rhs), scale)
    first = tuple(label_of(int(i)) for i in bad[:8])
    return int(bad.size), worst, first


def _product_down(ring, factors):
    """Product of the rows of ``factors`` (down axis 0), multiplied in
    pairs: ceil(log2 m) ``mul_vec`` calls for m rows."""
    while len(factors) > 1:
        half = len(factors) // 2
        paired = ring.mul_vec(factors[:half], factors[half:2 * half])
        if len(factors) % 2:
            paired = np.concatenate([paired, factors[-1:]])
        factors = paired
    return factors[0]


def _coset_product(ring, G, m, t=1):
    """Entry l is the product of G[(l + j·t·(q-1)/m) mod (q-1)] over j < m,
    for t = 1 or -1.

    The product depends on l only mod (q-1)/m, so the m rows of
    ``G.reshape(m, (q-1)/m)`` are multiplied down once, which gives it for
    l < (q-1)/m, and the result is tiled.  For t = -1 the rows are taken
    in the order of the factors, 0, m-1, ..., 1.
    """
    rows = G.reshape(m, -1)
    if t == -1:
        rows = rows[-np.arange(m) % m]
    return np.tile(_product_down(ring, rows), m)


def _merge(identity, chunks):
    """Combine per-chunk (cases, mismatches, worst, first) accumulations."""
    cases = sum(c[0] for c in chunks)
    mism = sum(c[1] for c in chunks)
    worst = max((c[2] for c in chunks), default=0.0)
    first = tuple(x for c in chunks for x in c[3])[:8]
    return IdentityReport(identity, cases, mism, worst, first)


# ---------------------------------------------------------------------------
# Lemma suite.
# ---------------------------------------------------------------------------

def verify_lemmas(ctx: FieldCtx, ring=None) -> list[IdentityReport]:
    """Exhaustively check the four foundational character-sum identities.

    gauss_reflection:   G(T^k)·G(T^-k) = q·T^k(-1) for every k with
                        T^k nontrivial.
    gauss_to_jacobi:    G(T^m)·G(T^-n) = J(T^m, T^-n)·G(T^(m-n)) for all
                        m, n with T^(m-n) nontrivial, J computed by its
                        defining sum over x != 0, 1.
    orthogonality:      sum over x of T^k(x) vanishes unless k = 0, and
                        sum over k of T^k(x) vanishes unless x = 1.
    theta_from_gauss:   theta(a) = (1/(q-1))·sum_m G(T^-m)·T^m(a) for
                        every nonzero a.

    One pass over row blocks of the character table chars[k, i] = T^k(g^i),
    about ``_BLOCK`` entries each (or 1/16 of the table, if more), serves
    the last three: each block is built once, and the whole table never
    is.  The Jacobi sums are still their defining sums, taken for a block
    of m and every n at once as the matrix product of chars with
    terms[i, n] = T^-n(1 - g^i): no transform, so the check shares no
    kernel with the Gauss table.  terms is built in the split form
    ``ring.matmul`` takes, once.  Mismatches are reported m-major, n
    ascending.
    """
    ring = get_ring(ctx, "exact") if ring is None else ring
    Q = ctx.q - 1
    G = ring.gauss_array
    roots = ring.roots_q1
    ks = np.arange(Q, dtype=np.int64)
    neg = (Q - ks) % Q
    reports = []

    # Gauss-sum reflection.
    nz = ks[1:]
    lhs = ring.mul_vec(G[nz], G[Q - nz])
    rhs = ring.rational_vec(np.where(nz % 2 == 1, -ctx.q, ctx.q))
    reports.append(_merge(
        "gauss_reflection",
        [(len(nz), *_compare(ring, lhs, rhs, lambda i: int(nz[i]),
                             scale=float(ctx.q)))]))

    # At least Q/16 rows a block, so that few products share the work of
    # folding their limb products once q is large.
    rows = max(1, _BLOCK // Q, Q // 16)
    # The right operand of every Jacobi product, split for ring.matmul once
    # and a row block at a time, so that it is never held twice.
    terms = ring.split_empty((Q, Q))
    for lo in range(0, Q, rows):
        oml = ctx.one_minus_log[lo:lo + rows, None]
        # neg is int64, so the int32 table entries multiply in int64.
        ring.split(roots[oml * neg % Q], out=terms[lo:lo + rows])
    terms[0] = 0                 # x = 1, where 1 - x = 0
    jacobi, by_char, col_sums, theta = [], [], [], []
    for lo in range(0, Q, rows):
        ms = ks[lo:lo + rows, None]
        chars = roots[ms * ks % Q]
        # Gauss product to Jacobi sum, for these m and every n != m.
        jac = ring.matmul(chars, terms)
        lhs = ring.mul_vec(G[ms], G[neg])
        rhs = ring.mul_vec(jac, G[(ms - ks) % Q])
        keep = ms != ks
        mi, ni = np.nonzero(keep)
        jacobi.append((len(mi),
                       *_compare(ring, lhs[keep], rhs[keep],
                                 lambda i: (lo + int(mi[i]), int(ni[i])),
                                 scale=float(ctx.q) ** 1.5)))
        # Orthogonality sums over x = g^i (rows) and, in part, over k.
        by_char.append(ring.sum_rows(chars))
        col_sums.append(ring.sum_rows(chars.T))
        # Additive character from Gauss sums: chars is symmetric, so its
        # row r also lists T^k(g^r) over every k.
        theta.append(ring.matmul(chars, G[neg]))
    reports.append(_merge("gauss_to_jacobi", jacobi))

    expect = ring.rational_vec(np.where(ks == 0, Q, 0))
    by_char = np.concatenate(by_char)
    by_elem = ring.sum_rows(np.stack(col_sums, axis=1))
    reports.append(_merge("orthogonality", [
        (Q, *_compare(ring, by_char, expect, lambda i: ("char", i),
                      scale=float(Q))),
        (Q, *_compare(ring, by_elem, expect, lambda i: ("elem", i),
                      scale=float(Q))),
    ]))

    lhs = ring.theta_root_vec(ctx.trace_table[ctx.exp_table])
    rhs = ring.scale(np.concatenate(theta), 1, Q)
    reports.append(_merge(
        "theta_from_gauss",
        [(Q, *_compare(ring, lhs, rhs, lambda i: int(ctx.exp_table[i])))]))
    return reports


# ---------------------------------------------------------------------------
# Davenport–Hasse product relation and its progression corollary.
# ---------------------------------------------------------------------------

def verify_davenport_hasse(ctx: FieldCtx, m: int, psi_index: int,
                           ring=None) -> list[IdentityReport]:
    """Check the Davenport–Hasse relation for one (m, psi), plus the
    Gauss-product progression identity it specializes to.

    davenport_hasse_product: with psi = T^psi_index and chi running over
    the m characters with chi^m trivial,

        prod_chi G(chi·psi) = -G(psi^m)·psi(m^-m)·prod_chi G(chi).

    gauss_product_progression: for every l in [0, q-1) and t in {1, -1},
    the product of G(T^(l + j·t·(q-1)/m)) over j = 0..m-1 equals a
    closed form in G(T^(l·m)): for odd m > 1,

        q^((m-1)/2) · (-1)^((m-1)(m+1)(q-1)/(8m)) · T^-l(m^m) · G(T^(lm)),

    and for even m,

        q^((m-2)/2) · G(phi) · (-1)^((m-2)(q-1)/8) · T^-l(m^m) · G(T^(lm)).

    Each direction's products for every l are one coset product
    (:func:`_coset_product`), and the relation reads both of its sides off
    the t = 1 products, so a call costs O(q), not O(m·q).

    Requires q = 1 (mod m); m = 1 exercises only the product relation.
    """
    Q = ctx.q - 1
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if Q % m:
        raise CongruenceViolated(ctx.q, m)
    ring = get_ring(ctx, "exact") if ring is None else ring
    G, unit = ring.unit_gauss()
    roots = ring.roots_q1
    psi_index %= Q
    reports = []

    # Entry l of the progression product along t = 1 is the product of
    # G(T^(l + j·(q-1)/m)) over j < m, so its entries psi_index and 0 are
    # the two sides' products of the relation.
    ls = np.arange(Q, dtype=np.int64)
    up = _coset_product(ring, G, m)

    # Product relation at this (m, psi).
    lhs = ring.wrap(up[psi_index])
    rhs = ring.wrap(up[0])
    m_inv_pow = ctx.pow_elem(ctx.inv(ctx.from_int(m)), m)
    twist = ring.root_unity(psi_index * dlog(ctx, m_inv_pow))
    # The right side has m + 1 Gauss factors to the left side's m.
    rhs = -ring.wrap(G[(m * psi_index) % Q]) * twist * rhs * ring.wrap(unit)
    mism = 0 if lhs.isclose(rhs) else 1
    residual = ring.residual(lhs.payload, rhs.payload)
    reports.append(IdentityReport(
        "davenport_hasse_product", 1, mism, residual,
        ((m, psi_index),) if mism else ()))

    # Progression identity for all l and both directions t.
    if m == 1:
        reports.append(IdentityReport("gauss_product_progression", 0, 0, 0.0))
        return reports
    k0 = dlog(ctx, ctx.pow_elem(ctx.from_int(m), m))
    base = ring.mul_vec(roots[(-k0 * ls) % Q], G[(m * ls) % Q])
    # Both sides have m Gauss factors, so the power of q is taken in the
    # table's units (with unit-modulus float factors it cancels to 1).
    if m % 2:
        sign = -1 if ((m - 1) * (m + 1) * Q // (8 * m)) % 2 else 1
        scalar = sign * ring.wrap(ring.q_pow_unit((m - 1) // 2))
    else:
        sign = -1 if ((m - 2) * Q // 8) % 2 else 1
        scalar = sign * ring.wrap(ring.q_pow_unit((m - 2) // 2)) \
            * ring.wrap(G[Q // 2])
    rhs_vec = ring.mul_vec(base, scalar.payload)
    down = _coset_product(ring, G, m, t=-1)
    chunks = [(Q, *_compare(ring, lhs_vec, rhs_vec, lambda i, t=t: (i, t)))
              for t, lhs_vec in ((1, up), (-1, down))]
    reports.append(_merge("gauss_product_progression", chunks))
    return reports


def davenport_hasse_products(ctx: FieldCtx, m: int,
                             ring=None) -> IdentityReport:
    """Check the Davenport–Hasse product relation for every psi at once.

    Same identity as the davenport_hasse_product case of
    verify_davenport_hasse, vectorized over all q-1 choices of
    psi = T^i: with chi running over the m characters with chi^m
    trivial,

        prod_chi G(chi·psi) = -G(psi^m)·psi(m^-m)·prod_chi G(chi).

    The left sides for every psi are one coset product
    (:func:`_coset_product`), and the constant prod_chi G(chi) is its
    entry at psi = T^0, so a call costs O(q), not O(m·q).

    Requires q = 1 (mod m).
    """
    Q = ctx.q - 1
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if Q % m:
        raise CongruenceViolated(ctx.q, m)
    ring = get_ring(ctx, "exact") if ring is None else ring
    G, unit = ring.unit_gauss()
    psis = np.arange(Q, dtype=np.int64)

    lhs = _coset_product(ring, G, m)
    # The constant product over chi alone is the entry at psi = T^0.
    const = -ring.wrap(lhs[0])
    k1 = dlog(ctx, ctx.pow_elem(ctx.inv(ctx.from_int(m)), m))
    rhs = ring.mul_vec(G[(m * psis) % Q], ring.roots_q1[(k1 * psis) % Q])
    # The right side has m + 1 Gauss factors to the left side's m.
    rhs = ring.mul_vec(rhs, (const * ring.wrap(unit)).payload)

    chunk = (Q, *_compare(ring, lhs, rhs, lambda i, m=m: (m, i)))
    return _merge("davenport_hasse_product_all_psi", [chunk])


# ---------------------------------------------------------------------------
# Point-count decomposition through additive characters.
# ---------------------------------------------------------------------------

def decompose_theta_sum(ctx: FieldCtx, curve: CurveParams,
                        ring=None) -> DecompositionReport:
    """Evaluate every term of the additive-character count decomposition.

    All four partial sums are computed by literal summation over their
    index sets (cost O(q²)), so the reconstruction

        n = (q² + z_sum + yz_sum + xz_sum + xyz_sum) / q

    is an independent check of the counting identity rather than of any
    closed form.  The z-sums are the literal sums of the table
    :func:`_theta_zsum_table`; xyz_sum counts the pairs x, y != 0 by the
    value of f(x) - y², in O(q) memory, and sums the table against those
    counts.  The quadratic-twist component is evaluated from its
    Gauss-sum series when the required divisibility holds.
    """
    ring = get_ring(ctx, "exact") if ring is None else ring
    q = ctx.q
    ztab = _theta_zsum_table(ctx, ring)
    fx = rhs_table(ctx, curve)
    ys = np.arange(1, q, dtype=np.int64)
    squares = ctx.mul(ys, ys)

    z_sum = ring.wrap(ztab[curve.b])
    yz_sum = ring.wrap(ring.sum_vec(ztab[ctx.sub(curve.b, squares)]))
    xz_sum = ring.wrap(ring.sum_vec(ztab[fx[1:]]))
    # hits[u] counts the pairs x, y != 0 with f(x) - y² = u.  Their codes
    # are made and counted in row blocks, which bound the temporaries of
    # the Zech-log subtraction on F_{p^e}: no (q-1)² table is held.
    hits = np.zeros(q, dtype=np.int64)
    rows = max(1, _BLOCK // q)
    for lo in range(0, q - 1, rows):
        diff = ctx.sub(fx[1 + lo:1 + lo + rows, None], squares)
        hits += np.bincount(diff.ravel(), minlength=q)
    xyz_sum = ring.wrap(ring.sum_vec(ring.mul_vec(ring.rational_vec(hits),
                                                  ztab)))

    total = (q * q) + z_sum + yz_sum + xz_sum + xyz_sum
    n_rec = total.divide_by_q().lift_int()
    return DecompositionReport(z_sum, yz_sum, xz_sum, xyz_sum,
                               quad_component(ctx, curve, ring), n_rec)


def quad_component(ctx: FieldCtx, curve: CurveParams,
                   ring=None) -> CharValue | None:
    """Closed Gauss-sum series for the quadratic-twist component.

    This is the single term of the x,y,z-sum surviving at the quadratic
    character, normalized so that q·N = q² + q·phi(b) + quad_component.
    Returns None when q-1 lacks the divisibility the series needs.
    """
    ring = get_ring(ctx, "exact") if ring is None else ring
    Q = ctx.q - 1
    d, a, b = curve.d, curve.a, curve.b
    ms = np.arange(Q, dtype=np.int64)
    if curve.family == "A" or curve.d % 2 == 0:
        if Q % (2 * (d - 1)):
            return None
        shift = Q // (2 * (d - 1))
        i1 = ((-(ms + shift)) * (d - 1)) % Q
        i3 = (d * ms) % Q
        if curve.family == "A":
            ratio = ctx.mul(ctx.pow_elem(b, d - 1), ctx.inv(ctx.pow_elem(a, d)))
            sign = quadratic_sign(ctx, ctx.neg(b))
        else:
            ratio = ctx.mul(b, ctx.inv(ctx.pow_elem(a, d)))
            sign = quadratic_sign(ctx, ctx.neg(ctx.from_int(1)))
    else:
        if Q % (2 * d):
            return None
        shift = Q // (2 * d)
        i1 = (-(d - 1) * ms) % Q
        i3 = (d * (ms + shift)) % Q
        ratio = ctx.mul(b, ctx.inv(ctx.pow_elem(a, d)))
        sign = quadratic_sign(ctx, ctx.neg(a))
    # Past the divisibility tests d < q, so d·ms and k0·ms stay below q².
    G = ring.gauss_array
    k0 = dlog(ctx, ratio)
    terms = ring.mul_vec(ring.mul_vec(G[i1], G[(Q - ms) % Q]),
                         ring.mul_vec(G[i3], ring.roots_q1[(k0 * ms) % Q]))
    total = ring.wrap(ring.sum_vec(terms))
    prefactor = sign * ring.wrap(G[Q // 2]) * ring.wrap(ring.inv_int(Q))
    return prefactor * total
