"""Gaussian hypergeometric series over F_q.

The series with n+1 upper characters A_0..A_n, n lower characters
B_1..B_n, and argument x is the normalized character sum

    F(x) = q/(q-1) * sum_chi binom(A_0 chi, chi)
                             * binom(A_1 chi, B_1 chi) ... binom(A_n chi, B_n chi)
                             * chi(x),

the sum running over all q-1 characters chi = T^0 .. T^(q-2).

Evaluation is split into an argument-independent coefficient vector
(the product of binomial columns, cached per value ring and parameter
list) and an O(q) twisted sum per argument, so sweeps over many
arguments of the same series pay the coefficient cost once.  The
summation runs in fixed ascending chi-index order, making float-backend
results reproducible per build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import MultChar, binom_column
from .errors import MixedFieldContexts
from .ffield import FieldCtx, dlog
from .values import CharValue, get_ring


@dataclass(frozen=True)
class HgfSpec:
    """Parameters of one series evaluation.

    tops:     the n+1 upper characters (A_0, ..., A_n).
    bottoms:  the n lower characters (B_1, ..., B_n); slot i >= 1 of the
              product pairs tops[i] with bottoms[i-1].
    argument: the field-element code x.
    """

    tops: tuple[MultChar, ...]
    bottoms: tuple[MultChar, ...]
    argument: int

    def __post_init__(self):
        object.__setattr__(self, "tops", tuple(self.tops))
        object.__setattr__(self, "bottoms", tuple(self.bottoms))
        if len(self.tops) != len(self.bottoms) + 1:
            raise ValueError(
                f"need exactly one more upper character than lower ones, "
                f"got {len(self.tops)} over {len(self.bottoms)}"
            )
        ctx = self.tops[0].ctx
        for ch in (*self.tops, *self.bottoms):
            if ch.ctx is not ctx:
                raise MixedFieldContexts()
        if not 0 <= self.argument < ctx.q:
            raise ValueError(f"argument {self.argument} outside [0, q)")

    @property
    def ctx(self) -> FieldCtx:
        return self.tops[0].ctx


def coefficient_vector(ctx: FieldCtx, top_indices: tuple[int, ...],
                       bottom_indices: tuple[int, ...], ring) -> np.ndarray:
    """Payloads of prod-of-binomials coefficients c_j, j = 0..q-2.

    c_j = binom(T^(a_0+j), T^j) * prod_i binom(T^(a_i+j), T^(b_i+j)).
    Cached on the ring, keyed by the index lists.
    """
    Q = ctx.q - 1
    key = (tuple(i % Q for i in top_indices),
           tuple(i % Q for i in bottom_indices))
    cached = ring._hgf_cache.get(key)
    if cached is not None:
        return cached
    coeffs = binom_column(ctx, top_indices[0], 0, ring)
    for a_i, b_i in zip(top_indices[1:], bottom_indices):
        coeffs = ring.mul_vec(coeffs, binom_column(ctx, a_i, b_i, ring))
    coeffs.setflags(write=False)
    ring._hgf_cache[key] = coeffs
    return coeffs


def evaluate_hgf(spec: HgfSpec, ring=None) -> CharValue:
    """Evaluate the series by its defining character sum."""
    ctx = spec.ctx
    ring = get_ring(ctx, "float") if ring is None else ring
    if spec.argument == 0:
        # chi(0) = 0 for every chi, so each summand vanishes.
        return ring.zero()
    coeffs = coefficient_vector(
        ctx,
        tuple(ch.index for ch in spec.tops),
        tuple(ch.index for ch in spec.bottoms),
        ring,
    )
    Q = ctx.q - 1
    k = dlog(ctx, spec.argument)
    twists = ring.root_unity_vec((np.arange(Q, dtype=np.int64) * k) % Q)
    total = ring.sum_vec(ring.mul_vec(coeffs, twists))
    # Normalize by q/(q-1).
    return ring.wrap(ring.scale(total, ctx.q, Q))
