"""Multiplicative and additive characters of F_q and their standard sums.

A multiplicative character is a power T^k of the fixed generator T of the
character group, where T sends the field generator g to zeta_{q-1}.  The
character is identified by its index k modulo q-1 and evaluated through
the field's discrete-log table.  Every character is extended to all of
F_q by the convention chi(0) = 0 — including the trivial character.

The additive character is theta(alpha) = zeta_p^tr(alpha).

On top of these the module computes Gauss sums G(chi), Jacobi sums
J(A, B), and the normalized binomial coefficient

    binom(A, B) = B(-1)/q * J(A, conj(B)),

the building block of the hypergeometric series.  ``jacobi_sum`` always
sums its defining series directly (it doubles as an independent check on
Gauss-sum identities); Gauss sums are cached per value ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MixedFieldContexts, OrderDoesNotDivide
from .ffield import FieldCtx, dlog, trace_map
from .values import CharValue, get_ring


def _default_ring(ctx: FieldCtx, ring):
    return get_ring(ctx, "float") if ring is None else ring


@dataclass(frozen=True)
class MultChar:
    """The multiplicative character T^index on a fixed field context."""

    ctx: FieldCtx
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", self.index % (self.ctx.q - 1))

    @property
    def order(self) -> int:
        Q = self.ctx.q - 1
        return Q // math.gcd(self.index, Q)

    @property
    def is_trivial(self) -> bool:
        return self.index == 0

    def _check_ctx(self, other: "MultChar") -> None:
        if other.ctx is not self.ctx:
            raise MixedFieldContexts()

    def __mul__(self, other: "MultChar") -> "MultChar":
        self._check_ctx(other)
        return MultChar(self.ctx, self.index + other.index)

    def __pow__(self, n: int) -> "MultChar":
        return MultChar(self.ctx, self.index * n)

    def bar(self) -> "MultChar":
        """The inverse (= complex conjugate) character."""
        return MultChar(self.ctx, -self.index)

    def sign_at_minus_one(self) -> int:
        """chi(-1) as a rational integer: (-1)**index.

        dlog(-1) = (q-1)/2, so chi(-1) = zeta_{q-1}^{index*(q-1)/2}.
        """
        return -1 if self.index % 2 else 1

    def __call__(self, x: int, ring=None) -> CharValue:
        return eval_char(self, x, ring)


def trivial_char(ctx: FieldCtx) -> MultChar:
    return MultChar(ctx, 0)


def quadratic_char(ctx: FieldCtx) -> MultChar:
    return MultChar(ctx, (ctx.q - 1) // 2)


def char_of_order(ctx: FieldCtx, n: int) -> MultChar:
    """The distinguished character of exact order n, namely T^((q-1)/n)."""
    Q = ctx.q - 1
    if n < 1 or Q % n != 0:
        raise OrderDoesNotDivide(n, Q)
    return MultChar(ctx, Q // n)


def eval_char(chi: MultChar, x: int, ring=None) -> CharValue:
    """chi(x) in the value ring, with chi(0) = 0."""
    ring = _default_ring(chi.ctx, ring)
    if x == 0:
        return ring.zero()
    return ring.root_unity(chi.index * dlog(chi.ctx, x))


def quadratic_sign(ctx: FieldCtx, x: int) -> int:
    """phi(x) as a rational integer in {-1, 0, 1}."""
    if x == 0:
        return 0
    return -1 if dlog(ctx, x) % 2 else 1


def theta(ctx: FieldCtx, alpha: int, ring=None) -> CharValue:
    """The additive character theta(alpha) = zeta_p^tr(alpha)."""
    ring = _default_ring(ctx, ring)
    return ring.theta_root(trace_map(ctx, alpha))


def gauss_sum(chi: MultChar, ring=None) -> CharValue:
    """G(chi) = sum_x chi(x) theta(x), from the per-ring cached table."""
    ring = _default_ring(chi.ctx, ring)
    return ring.wrap(ring.gauss_array[chi.index])


def jacobi_sum(A: MultChar, B: MultChar, ring=None) -> CharValue:
    """J(A, B) = sum_x A(x) B(1-x), summed directly from the definition.

    The x = 0 and x = 1 terms vanish under the chi(0) = 0 convention, so
    the sum runs over x = g^i for all i, dropping i = 0 where 1 - x = 0.
    """
    A._check_ctx(B)
    ctx = A.ctx
    ring = _default_ring(ctx, ring)
    Q = ctx.q - 1
    i = np.arange(1, Q, dtype=np.int64)
    # int64: the table is int32, and B.index·dlog(1 - x) reaches (q-1)^2.
    lom = ctx.one_minus_log[1:].astype(np.int64)
    exps = (A.index * i + B.index * lom) % Q
    return ring.wrap(ring.sum_vec(ring.root_unity_vec(exps)))


def binom(A: MultChar, B: MultChar, ring=None) -> CharValue:
    """Normalized binomial: binom(A, B) = B(-1)/q * J(A, conj(B))."""
    ring = _default_ring(A.ctx, ring)
    j = jacobi_sum(A, B.bar(), ring)
    value = j.divide_by_q()
    return -value if B.sign_at_minus_one() < 0 else value


# ---------------------------------------------------------------------------
# Fast binomial kernels for the hypergeometric series.
#
# For m != n (mod q-1), Lemmas relating Gauss and Jacobi sums give
#
#     binom(T^m, T^n) = (-1)^m * G_m * G_{-n} * G_{n-m} / q**2,
#
# and on the diagonal binom(A, A) = -1/q + [A trivial] * (q-1)/q.  These
# let a whole column binom(T^(m0+j), T^(n0+j)), j = 0..q-2, be filled from
# the Gauss table in O(q); the direct ``binom`` above stays definitional
# and the test suite cross-checks the two routes against each other.
# Both Gauss rows are rotations of the table: G_{m0+j} is G rotated left
# by m0, and G_{-(n0+j)} is the reversed table, whose entry j is
# G_{-(j+1)}, rotated right by 1 - n0.  Each rotation is two slice copies,
# the first into a work array and the second into the output buffer,
# which then takes the product, the constant G_{n0-m0} and 1/q² in place;
# the sign (-1)^(m0+j) negates every other entry.  Every float product
# runs on whole contiguous rows, as numpy's SIMD complex loop computes
# them: a negative-stride or length-1 operand may take its scalar loop,
# which can change the last bits.
# ---------------------------------------------------------------------------


def binom_column(ctx: FieldCtx, m0: int, n0: int, ring=None,
                 _out=None) -> np.ndarray:
    """Payload array of binom(T^(m0+j), T^(n0+j)) for j = 0..q-2.

    Cached on the ring: a hit returns the cached read-only array, a miss
    a new read-only one.  ``_out`` is for
    :func:`~hypercount.hypergeom.coefficient_vector` only: a writable
    payload array of length q-1 that a miss writes into and caches as it
    is, so the caller must pop ``(m0 % (q-1), n0 % (q-1))`` from the
    ring's ``_binom_cache`` before it writes into the buffer again.
    """
    ring = _default_ring(ctx, ring)
    Q = ctx.q - 1
    m0 %= Q
    n0 %= Q
    key = (m0, n0)
    cached = ring._binom_cache.get(key)
    if cached is not None:
        return cached

    q = ctx.q
    column = np.empty_like(ring.roots_q1) if _out is None else _out
    if m0 == n0:
        values = ring.rational_vec(np.array([-1, q - 2]), q)
        column[...] = values[0]
        column[(-m0) % Q] = values[1]
    else:
        G = ring.gauss_array
        row = np.empty_like(column)
        row[:Q - m0] = G[m0:]
        row[Q - m0:] = G[:m0]
        s = (1 - n0) % Q
        reverse = G[::-1]
        column[:s] = reverse[Q - s:]
        column[s:] = reverse[:Q - s]
        ring.mul_vec(row, column, out=column)
        del row
        ring.mul_vec(column, G[(n0 - m0) % Q], out=column)
        ring.scale(column, 1, q * q, out=column)
        ring.negate(column[(m0 + 1) % 2::2])

    if _out is None:
        column.setflags(write=False)
    ring._binom_cache[key] = column
    return column
