"""Dual-backend value rings for character-sum arithmetic.

Character sums over F_q live in the cyclotomic ring Z[zeta_{p(q-1)}]:
multiplicative characters contribute (q-1)-th roots of unity and the
additive character contributes p-th roots (p and q-1 are coprime).  Two
interchangeable backends realize this ring:

* :class:`ComplexRing` — double-precision complex numbers.  Fast and
  approximate; integer-valued results are recovered by rounding, with a
  configurable tolerance guarding against silent corruption.

* :class:`ResidueRing` — residues modulo an auxiliary prime ``ell`` with
  ``ell = 1 (mod p*(q-1))``, chosen as the least such prime exceeding
  ``max(2**40, 8 * q**2)``: large enough to lift every integer the
  package recovers, small enough that vector products stay in uint64.
  The images of the two roots of unity are fixed powers of an element
  ``w`` of order ``p*(q-1)`` derived from the least primitive root of
  ``ell``, so runs are reproducible.  Every rational-integer result is
  recovered exactly from its balanced residue.

Scalar values are wrapped in :class:`CharValue`; bulk kernels work on raw
numpy arrays through the ring's vector helpers (``mul_vec``, ``sum_vec``,
``sum_rows``, ``root_unity_vec``, ``rational_vec``, ``scale``,
``negate_where``, ``mismatches``, ``unit_gauss``, ``q_pow_unit``) to keep
hot loops free of per-element wrappers.  Both rings implement every
helper, so no kernel branches on the backend.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
import sympy

from .errors import (
    ExactModulusTooLarge,
    FloatRangeExceeded,
    MixedFieldContexts,
    NonIntegerResult,
)
from .ffield import FieldCtx

#: Default absolute tolerance for integer-valued float results.
DEFAULT_TOLERANCE = 1e-6

#: Least modulus of the default exact ring: an accidental agreement of two
#: distinct values mod ell then has chance about 2**-40.
_ELL_FLOOR = 2**40

#: Above this modulus the float-assisted vector mulmod loses its safety
#: margin.  The default exact ring refuses to go there; a ring sized by an
#: explicit ``d_max`` falls back to object-dtype arithmetic instead.
_FLOAT_MULMOD_LIMIT = 2**50


class CharValue:
    """A single element of the value ring, tagged with its backend ring."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, CharValue):
            if other.ring is not self.ring:
                raise MixedFieldContexts()
            return other.payload
        if isinstance(other, int):
            return self.ring.from_int(other).payload
        return NotImplemented

    def __add__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return CharValue(self.ring, self.ring._add(self.payload, p))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return CharValue(self.ring, self.ring._add(self.payload, self.ring._neg(p)))

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return CharValue(self.ring, self.ring._add(p, self.ring._neg(self.payload)))

    def __mul__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return CharValue(self.ring, self.ring._mul(self.payload, p))

    __rmul__ = __mul__

    def __neg__(self):
        return CharValue(self.ring, self.ring._neg(self.payload))

    def divide_by_q(self) -> "CharValue":
        """Exact division by q (multiplication by q^-1 in the ring)."""
        return CharValue(self.ring, self.ring._div_q(self.payload))

    def lift_int(self) -> int:
        """Recover a rational-integer value exactly (see ring docs)."""
        return self.ring.lift_int(self.payload)

    def isclose(self, other, scale: float = 1.0) -> bool:
        p = self._coerce(other)
        return self.ring.values_close(self.payload, p, scale)

    def __eq__(self, other):
        try:
            p = self._coerce(other)
        except MixedFieldContexts:
            return False
        if p is NotImplemented:
            return NotImplemented
        return self.ring.values_close(self.payload, p, 1.0)

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CharValue({self.payload!r}, backend={self.ring.backend})"


class ComplexRing:
    """Floating-point backend: values are numpy complex128 scalars/arrays."""

    backend = "float"

    def __init__(self, ctx: FieldCtx, tolerance: float = DEFAULT_TOLERANCE):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.ctx = ctx
        self.tolerance = tolerance
        q = ctx.q
        self.roots_q1 = np.exp(2j * np.pi * np.arange(q - 1) / (q - 1))
        self.roots_p = np.exp(2j * np.pi * np.arange(ctx.p) / ctx.p)
        self._gauss = None
        self._binom_cache: dict = {}
        self._hgf_cache: dict = {}

    # -- scalar payload ops -------------------------------------------------

    def _add(self, u, v):
        return u + v

    def _mul(self, u, v):
        return u * v

    def _neg(self, u):
        return -u

    def _div_q(self, u):
        return u / self.ctx.q

    def from_int(self, n: int) -> CharValue:
        try:
            return CharValue(self, complex(n))
        except OverflowError:
            raise FloatRangeExceeded(n) from None

    def zero(self) -> CharValue:
        return CharValue(self, 0j)

    def one(self) -> CharValue:
        return CharValue(self, 1 + 0j)

    def inv_int(self, n: int):
        """Payload of 1/n for a nonzero rational integer n."""
        return 1.0 / n

    def root_unity(self, j: int) -> CharValue:
        """zeta_{q-1}^j as a ring value."""
        return CharValue(self, self.roots_q1[j % (self.ctx.q - 1)])

    def theta_root(self, t: int) -> CharValue:
        """zeta_p^t as a ring value."""
        return CharValue(self, self.roots_p[t % self.ctx.p])

    def lift_int(self, u) -> int:
        n = round(float(np.real(u)))
        residual = abs(u - n)
        if residual > self.tolerance:
            raise NonIntegerResult(complex(u), float(residual), self.tolerance)
        return int(n)

    def values_close(self, u, v, scale: float = 1.0) -> bool:
        return bool(abs(u - v) <= self.tolerance * max(1.0, scale))

    def residual(self, u, v, scale: float = 1.0) -> float:
        """Normalized distance between two payloads (0 when equal)."""
        return float(abs(u - v) / max(1.0, scale))

    # -- vector ops (complex128 arrays) --------------------------------------

    def root_unity_vec(self, exps) -> np.ndarray:
        return self.roots_q1[np.asarray(exps) % (self.ctx.q - 1)]

    def theta_root_vec(self, ts) -> np.ndarray:
        return self.roots_p[np.asarray(ts) % self.ctx.p]

    def mul_vec(self, u, v) -> np.ndarray:
        return u * v

    def sum_vec(self, u):
        return np.sum(u)

    def sum_rows(self, mat) -> np.ndarray:
        """Per-row sums of a 2-D payload matrix."""
        return np.sum(mat, axis=1)

    def rational_vec(self, nums, den: int = 1) -> np.ndarray:
        """Payloads of the rationals nums/den (nums an integer array)."""
        return (np.asarray(nums) / den).astype(np.complex128)

    def scale(self, u, num: int, den: int = 1):
        """Payload(s) u·num/den for integers num, den; unit factors skipped."""
        if num != 1:
            u = u * num
        if den != 1:
            u = u / den
        return u

    def negate_where(self, mask, u) -> np.ndarray:
        """u with the entries where mask is true negated."""
        return u * np.where(mask, -1.0, 1.0)

    def mismatches(self, u, v, scale: float = 1.0):
        """Flat indices where u and v differ, and the worst residual, both
        relative to the natural magnitude ``scale``."""
        diffs = np.abs(u - v) / max(1.0, scale)
        worst = float(diffs.max()) if diffs.size else 0.0
        # Written as "not within tolerance" so NaN and inf count as failures.
        return np.flatnonzero(~(diffs <= self.tolerance)), worst

    def wrap(self, payload) -> CharValue:
        return CharValue(self, payload)

    # -- Gauss sums -----------------------------------------------------------

    @property
    def gauss_array(self) -> np.ndarray:
        """All q-1 Gauss sums; entry m is G(T^m).

        Computed in one pass: with u[i] = zeta_p^tr(g^i), the sum
        G_m = sum_i u[i] * zeta_{q-1}^{m*i} is the length-(q-1) inverse DFT
        of u scaled by q-1.
        """
        if self._gauss is None:
            ctx = self.ctx
            u = self.roots_p[ctx.trace_table[ctx.exp_table]]
            self._gauss = np.fft.ifft(u) * (ctx.q - 1)
            self._gauss.setflags(write=False)
        return self._gauss

    def unit_gauss(self):
        """Gauss table for long products, and the factor it was divided by.

        Every G(T^m) with m != 0 has modulus sqrt(q), so a product of m of
        them overflows double precision once q^(m/2) passes about 1e308
        (q = 257, m = 256).  Dividing the table by sqrt(q) once keeps every
        product at modulus at most 1; an identity with one more Gauss
        factor on one side than the other takes the factor back once.
        """
        unit = math.sqrt(self.ctx.q)
        return self.gauss_array / unit, unit

    def q_pow_unit(self, k: int):
        """q^k in the units of :meth:`unit_gauss`: q^k / unit^(2k) = 1."""
        return 1


class ResidueRing:
    """Exact backend: values are residues modulo an auxiliary prime ell.

    ell is the least prime exceeding a bound with ell = 1 (mod p*(q-1)), so
    Z/ell holds the roots of unity of Z[zeta_{p(q-1)}].  The ring map sends
    a rational integer n to n mod ell, and the balanced residue in
    (-ell/2, ell/2] gives n back whenever |n| < ell/2.  The integers the
    package lifts are

    * point counts N, with 0 <= N <= 2q (also the N that
      ``decompose_theta_sum`` reconstructs from q·N);
    * Frobenius traces of the d = 3 curves, with |a_q| <= 2·sqrt(q);
    * the decomposition terms ``yz_sum`` and ``quad_component``, with
      absolute value at most q² + q.

    So ell > 2(q² + q) suffices, and the default bound ``max(2**40, 8q²)``
    clears it with room to spare.  The 2**40 floor keeps an accidental
    agreement mod ell negligible when the exact verifiers compare residues.
    Within the default table budget ell stays far below 2**50 (45 bits at
    q = 1048573), so vector products take the uint64 path; a field large
    enough to push ell to ``_FLOAT_MULMOD_LIMIT`` raises
    :class:`ExactModulusTooLarge` instead of falling back.

    An explicit ``d_max`` instead sizes ell above 4·q^(ceil(d_max/2) + 1)
    and falls back to object-dtype arithmetic once ell reaches 2**50.
    """

    backend = "exact"

    def __init__(self, ctx: FieldCtx, d_max: int | None = None):
        if d_max is not None and d_max < 2:
            raise ValueError("d_max must be >= 2")
        self.ctx = ctx
        self.d_max = d_max
        p, q = ctx.p, ctx.q
        n = p * (q - 1)
        if d_max is None:
            bound = max(_ELL_FLOOR, 8 * q * q)
        else:
            bound = 4 * q ** (math.ceil(d_max / 2) + 1)
        k = bound // n + 1
        while not sympy.isprime(k * n + 1):
            k += 1
        self.ell = k * n + 1
        if d_max is None and self.ell >= _FLOAT_MULMOD_LIMIT:
            raise ExactModulusTooLarge(q, self.ell, _FLOAT_MULMOD_LIMIT)
        if self.ell >= 2**63:
            raise ValueError(
                f"auxiliary modulus {self.ell} is too large for the exact "
                f"backend at q={q}, d_max={d_max}; use the float backend"
            )
        gamma = self._least_primitive_root(self.ell)
        self.w = pow(gamma, (self.ell - 1) // n, self.ell)
        w_q1 = pow(self.w, p, self.ell)       # image of zeta_{q-1}
        w_p = pow(self.w, q - 1, self.ell)    # image of zeta_p
        self.roots_q1 = self._power_table(w_q1, q - 1)
        self.roots_p = self._power_table(w_p, p)
        self._inv_q = pow(q, -1, self.ell)
        self._use_numpy = self.ell < _FLOAT_MULMOD_LIMIT
        self._gauss = None
        self._binom_cache: dict = {}
        self._hgf_cache: dict = {}

    @staticmethod
    def _least_primitive_root(ell: int) -> int:
        factors = sympy.primefactors(ell - 1)
        for cand in range(2, ell):
            if all(pow(cand, (ell - 1) // r, ell) != 1 for r in factors):
                return cand
        raise RuntimeError("no primitive root found")  # unreachable

    def _power_table(self, base: int, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.uint64)
        acc = 1
        for i in range(count):
            out[i] = acc
            acc = (acc * base) % self.ell
        out.setflags(write=False)
        return out

    # -- scalar payload ops (plain python ints in [0, ell)) -------------------

    def _add(self, u, v):
        return (u + v) % self.ell

    def _mul(self, u, v):
        return (u * v) % self.ell

    def _neg(self, u):
        return (-u) % self.ell

    def _div_q(self, u):
        return (u * self._inv_q) % self.ell

    def from_int(self, n: int) -> CharValue:
        return CharValue(self, n % self.ell)

    def zero(self) -> CharValue:
        return CharValue(self, 0)

    def one(self) -> CharValue:
        return CharValue(self, 1)

    def inv_int(self, n: int):
        return pow(n, -1, self.ell)

    def root_unity(self, j: int) -> CharValue:
        return CharValue(self, int(self.roots_q1[j % (self.ctx.q - 1)]))

    def theta_root(self, t: int) -> CharValue:
        return CharValue(self, int(self.roots_p[t % self.ctx.p]))

    def lift_int(self, u) -> int:
        """Balanced residue in (-ell/2, ell/2]."""
        u = int(u) % self.ell
        return u - self.ell if u > self.ell // 2 else u

    def values_close(self, u, v, scale: float = 1.0) -> bool:
        return int(u) % self.ell == int(v) % self.ell

    def residual(self, u, v, scale: float = 1.0) -> float:
        return 0.0 if self.values_close(u, v) else 1.0

    # -- vector ops (uint64 arrays of residues) --------------------------------

    def root_unity_vec(self, exps) -> np.ndarray:
        return self.roots_q1[np.asarray(exps) % (self.ctx.q - 1)]

    def theta_root_vec(self, ts) -> np.ndarray:
        return self.roots_p[np.asarray(ts) % self.ctx.p]

    def mul_vec(self, u, v) -> np.ndarray:
        """Elementwise modular product of residue arrays."""
        u = np.asarray(u, dtype=np.uint64)
        v = np.asarray(v, dtype=np.uint64)
        if not self._use_numpy:
            ub, vb = np.broadcast_arrays(u, v)
            flat = [(int(a) * int(b)) % self.ell
                    for a, b in zip(np.ravel(ub), np.ravel(vb))]
            return np.array(flat, dtype=object).reshape(ub.shape)
        ell = self.ell
        # Float-assisted Barrett-style reduction: the float64 quotient is off
        # by at most one for ell < 2**50, and the uint64 products wrap
        # identically mod 2**64, so one correction pass fixes the result.
        with np.errstate(over="ignore"):
            quot = np.floor(u.astype(np.float64) * v.astype(np.float64) / ell)
            r = np.ascontiguousarray(
                u * v - quot.astype(np.uint64) * np.uint64(ell)
            ).view(np.int64)
        r = np.where(r < 0, r + ell, r)
        r = np.where(r >= ell, r - ell, r)
        return r.astype(np.uint64)

    def sum_vec(self, u):
        """Modular sum of a residue array (any shape, summed flat)."""
        flat = np.ravel(np.asarray(u))
        if flat.dtype == object:
            return sum(int(x) for x in flat) % self.ell
        total = 0
        # Chunked so partial uint64 sums cannot overflow: 4096 * ell < 2**63.
        for start in range(0, flat.size, 4096):
            total += int(np.sum(flat[start:start + 4096], dtype=np.uint64))
        return total % self.ell

    def sum_rows(self, mat) -> np.ndarray:
        """Per-row modular sums of a 2-D residue matrix."""
        mat = np.asarray(mat)
        if mat.dtype == object:
            return np.array([sum(int(x) for x in row) % self.ell
                             for row in mat], dtype=object)
        out = np.zeros(mat.shape[0], dtype=np.uint64)
        ell = np.uint64(self.ell)
        # Column blocks keep each partial row sum below 4096 * ell < 2**63.
        for start in range(0, mat.shape[1], 4096):
            out = (out + np.sum(mat[:, start:start + 4096], axis=1,
                                dtype=np.uint64)) % ell
        return out

    def rational_vec(self, nums, den: int = 1) -> np.ndarray:
        """Residues of the rationals nums/den (nums an integer array)."""
        residues = (np.asarray(nums) % self.ell).astype(np.uint64)
        return self.scale(residues, 1, den)

    def scale(self, u, num: int, den: int = 1):
        """Residue(s) u·num/den for rational integers num and den != 0."""
        c = num * pow(den, -1, self.ell) % self.ell
        if isinstance(u, int):
            return u * c % self.ell
        return self.mul_vec(u, np.uint64(c))

    def negate_where(self, mask, u) -> np.ndarray:
        """u with the entries where mask is true negated."""
        return np.where(mask, (self.ell - u) % self.ell, u).astype(np.uint64)

    def mismatches(self, u, v, scale: float = 1.0):
        """Flat indices where u and v differ, and the worst residual (0/1)."""
        bad = np.flatnonzero(u != v)
        return bad, 0.0 if bad.size == 0 else 1.0

    def wrap(self, payload) -> CharValue:
        return CharValue(self, int(payload) % self.ell)

    # -- Gauss sums -------------------------------------------------------------

    @property
    def gauss_array(self) -> np.ndarray:
        """All q-1 Gauss sums as residues; entry m is G(T^m)."""
        if self._gauss is None:
            ctx = self.ctx
            Q = ctx.q - 1
            u = self.roots_p[ctx.trace_table[ctx.exp_table]]
            out = np.empty(Q, dtype=np.uint64)
            idx = np.arange(Q, dtype=np.int64)
            block = max(1, (1 << 22) // max(Q, 1))
            for start in range(0, Q, block):
                ms = np.arange(start, min(start + block, Q), dtype=np.int64)
                exps = (ms[:, None] * idx[None, :]) % Q
                terms = self.mul_vec(self.roots_q1[exps], u[None, :])
                out[ms] = self.sum_rows(terms).astype(np.uint64)
            out.setflags(write=False)
            self._gauss = out
        return self._gauss

    def unit_gauss(self):
        """The Gauss table and its unit: residues need no scaling."""
        return self.gauss_array, 1

    def q_pow_unit(self, k: int):
        """Residue of q^k (the unit of :meth:`unit_gauss` is 1)."""
        return pow(self.ctx.q, k, self.ell)


_RING_CACHE: "weakref.WeakKeyDictionary[FieldCtx, dict]" = weakref.WeakKeyDictionary()


def get_ring(ctx: FieldCtx, backend: str = "float", *,
             tolerance: float = DEFAULT_TOLERANCE,
             d_max: int | None = None):
    """Return the cached value ring of the requested backend for a field.

    ``d_max`` applies to the exact backend only; leave it unset for the
    default modulus (see :class:`ResidueRing`).
    """
    per_ctx = _RING_CACHE.setdefault(ctx, {})
    if backend == "float":
        key = ("float", tolerance)
        if key not in per_ctx:
            per_ctx[key] = ComplexRing(ctx, tolerance)
    elif backend == "exact":
        key = ("exact", d_max)
        if key not in per_ctx:
            per_ctx[key] = ResidueRing(ctx, d_max)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return per_ctx[key]
