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
from .ffield import FieldCtx, dlog
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
    return ring.theta_root(int(ctx.trace_table[alpha]))


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
    lom = ctx.one_minus_log[1:]
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
# ---------------------------------------------------------------------------


def binom_column(ctx: FieldCtx, m0: int, n0: int, ring=None) -> np.ndarray:
    """Payload array of binom(T^(m0+j), T^(n0+j)) for j = 0..q-2."""
    ring = _default_ring(ctx, ring)
    Q = ctx.q - 1
    m0 %= Q
    n0 %= Q
    key = (m0, n0)
    cached = ring._binom_cache.get(key)
    if cached is not None:
        return cached

    q = ctx.q
    G = ring.gauss_array
    if m0 == n0:
        nums = np.full(Q, -1, dtype=np.int64)
        nums[(-m0) % Q] = q - 2
        out = ring.rational_vec(nums, q)
    else:
        ga = np.roll(G, -m0)                       # G_{m0+j}
        grev = G[(-np.arange(Q)) % Q]              # G_{-j}
        gb = np.roll(grev, -n0)                    # G_{-(n0+j)}
        scalar = G[(n0 - m0) % Q]
        terms = ring.mul_vec(ring.mul_vec(ga, gb),
                             np.broadcast_to(scalar, (Q,)))
        # Divide by q^2 and apply the alternating sign (-1)^(m0+j).
        out = ring.negate_where((np.arange(Q) + m0) % 2 == 1,
                                ring.scale(terms, 1, q * q))

    out.setflags(write=False)
    ring._binom_cache[key] = out
    return out
