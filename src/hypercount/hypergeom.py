"""Gaussian hypergeometric series over F_q.

The series with n+1 upper characters A_0..A_n, n lower characters
B_1..B_n, and argument x is the normalized character sum

    F(x) = q/(q-1) * sum_chi binom(A_0 chi, chi)
                             * binom(A_1 chi, B_1 chi) ... binom(A_n chi, B_n chi)
                             * chi(x),

the sum running over all q-1 characters chi = T^0 .. T^(q-2).

The coefficient vector c_j, the product of the binomial columns, does
not depend on x, so with x = g^k the series is F(g^k) = q/(q-1) *
sum_j c_j * zeta_{q-1}^(j*k): at every argument at once it is one
length-(q-1) DFT of c, the series' *spectrum*.  A series' first
evaluations on a ring each take that O(q) twisted sum directly, over a
coefficient vector cached on the ring; once it has been evaluated often
enough to have paid for about one transform, the ring builds and keeps
its spectrum (:func:`series_values`) and drops the coefficient vector,
and every later evaluation is a lookup.  The switch depends on the
evaluation count alone and both routes sum in a fixed order, so float
results are reproducible per build; on the float backend the two routes
may differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import MultChar, binom_column
from .errors import MixedFieldContexts
from .ffield import FieldCtx, dlog
from .values import CharValue, get_ring


def _check_shape(tops, bottoms) -> None:
    if len(tops) != len(bottoms) + 1:
        raise ValueError(
            f"need exactly one more upper character than lower ones, "
            f"got {len(tops)} over {len(bottoms)}"
        )


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
        _check_shape(self.tops, self.bottoms)
        ctx = self.tops[0].ctx
        for ch in (*self.tops, *self.bottoms):
            if ch.ctx is not ctx:
                raise MixedFieldContexts()
        if not 0 <= self.argument < ctx.q:
            raise ValueError(f"argument {self.argument} outside [0, q)")

    @property
    def ctx(self) -> FieldCtx:
        return self.tops[0].ctx


#: Direct sums a series takes on a ring before its next evaluation builds
#: the spectrum: a ski-rental rule, switching once the direct sums have
#: cost about one transform.  One exact transform (:meth:`ResidueRing.dft`)
#: costs this many direct evaluations, by median times: q = 73: 9.9,
#: 241: 12.0, 601: 9.6, 3001: 18.5, 4201: 42.8, 19681: 67.5, 100801: 48.2;
#: a float transform costs 0.8-2.5.  Building it at a series' second
#: evaluation made a sweep of 2 samples per series and field up to q = 8000
#: about 60% slower on a 2-vCPU machine.
_DIRECT_EVALS = 31


def _series_key(ctx: FieldCtx, top_indices, bottom_indices) -> tuple:
    _check_shape(top_indices, bottom_indices)
    Q = ctx.q - 1
    return (tuple(i % Q for i in top_indices),
            tuple(i % Q for i in bottom_indices))


def coefficient_vector(ctx: FieldCtx, top_indices: tuple[int, ...],
                       bottom_indices: tuple[int, ...], ring) -> np.ndarray:
    """Payloads of prod-of-binomials coefficients c_j, j = 0..q-2.

    c_j = binom(T^(a_0+j), T^j) * prod_i binom(T^(a_i+j), T^(b_i+j)).
    Cached on the ring, keyed by the index lists; the binomial columns
    it multiplies are dropped from the ring's column cache.  The first
    column is written into the owned result and every later one into one
    scratch buffer, freed on return.
    """
    key = _series_key(ctx, top_indices, bottom_indices)
    cached = ring._hgf_cache.get(key)
    if cached is not None:
        return cached
    columns = list(zip(key[0], (0, *key[1])))
    coeffs = np.empty_like(ring.roots_q1)
    scratch = np.empty_like(coeffs) if len(columns) > 1 else None
    for i, column in enumerate(columns):
        factor = binom_column(ctx, *column, ring,
                              _out=scratch if i else coeffs)
        ring._binom_cache.pop(column, None)
        if i:
            ring.mul_vec(coeffs, factor, out=coeffs)
        elif factor is not coeffs:  # a cached column
            coeffs[...] = factor
    coeffs.setflags(write=False)
    ring._hgf_cache[key] = coeffs
    return coeffs


def series_values(ctx: FieldCtx, top_indices: tuple[int, ...],
                  bottom_indices: tuple[int, ...], ring) -> np.ndarray:
    """The series' spectrum: payload k is F(g^k), k = 0..q-2.

    One :meth:`dft` of the coefficient vector, scaled by q/(q-1).  Cached
    read-only on the ring, keyed by the index lists; building it drops the
    coefficient vector from the ring.  A transform that raises caches
    nothing.  A ring of another field raises :class:`MixedFieldContexts`.
    """
    if ring.ctx is not ctx:
        raise MixedFieldContexts()
    key = _series_key(ctx, top_indices, bottom_indices)
    spectrum = ring._spectra.get(key)
    if spectrum is None:
        coeffs = coefficient_vector(ctx, top_indices, bottom_indices, ring)
        spectrum = ring.scale(ring.dft(coeffs), ctx.q, ctx.q - 1)
        spectrum.setflags(write=False)
        ring._spectra[key] = spectrum
        ring._hgf_cache.pop(key, None)
        ring._hgf_uses.pop(key, None)
    return spectrum


def evaluate_hgf(spec: HgfSpec, ring=None) -> CharValue:
    """Evaluate the series at one argument.

    The first ``_DIRECT_EVALS`` evaluations of a series on a ring at
    nonzero arguments take the defining O(q) twisted sum; the next builds
    the series' spectrum (:func:`series_values`), and from then on an
    evaluation is one lookup.  A ring of another field raises
    :class:`MixedFieldContexts`.
    """
    ctx = spec.ctx
    ring = get_ring(ctx, "float") if ring is None else ring
    if ring.ctx is not ctx:
        raise MixedFieldContexts()
    if spec.argument == 0:
        # chi(0) = 0 for every chi, so each summand vanishes.
        return ring.zero()
    tops = tuple(ch.index for ch in spec.tops)
    bottoms = tuple(ch.index for ch in spec.bottoms)
    k = dlog(ctx, spec.argument)
    key = _series_key(ctx, tops, bottoms)
    uses = ring._hgf_uses.get(key, 0)
    if key in ring._spectra or uses >= _DIRECT_EVALS:
        return ring.wrap(series_values(ctx, tops, bottoms, ring)[k])
    coeffs = coefficient_vector(ctx, tops, bottoms, ring)
    Q = ctx.q - 1
    exps = np.arange(Q, dtype=np.int64)
    exps *= k   # k < q - 1, so every product is below q² and cannot wrap
    twists = ring.root_unity_vec(exps)
    del exps
    total = ring.sum_vec(ring.mul_vec(coeffs, twists, out=twists))
    ring._hgf_uses[key] = uses + 1
    # Normalize by q/(q-1).
    return ring.wrap(ring.scale(total, ctx.q, Q))
