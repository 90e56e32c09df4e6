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
  ``ell`` (from :mod:`.ffield`), so runs are reproducible.  Every
  rational-integer result is recovered exactly from its balanced residue.
  Its Gauss table is an exact length-(q-1) DFT mod ell
  (:meth:`ResidueRing.dft_mod`): Bluestein's chirp-z transform, with the
  convolution done by a three-prime NTT and Garner's CRT, in O(q log q)
  time and O(q) memory.

Scalar values are wrapped in :class:`CharValue`; bulk kernels work on raw
numpy arrays through the ring's vector helpers (``mul_vec``, ``sum_vec``,
``sum_rows``, ``matmul``, ``root_unity_vec``, ``rational_vec``, ``scale``,
``negate_where``, ``mismatches``, ``unit_gauss``, ``q_pow_unit``) to keep
hot loops free of per-element wrappers.  Both rings implement every
helper, so no kernel branches on the backend.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    ExactModulusTooLarge,
    FloatRangeExceeded,
    MixedFieldContexts,
    NonIntegerResult,
)
from .ffield import FieldCtx, is_prime, least_primitive_root

#: Default absolute tolerance for integer-valued float results.
DEFAULT_TOLERANCE = 1e-6

#: Least modulus of the default exact ring: an accidental agreement of two
#: distinct values mod ell then has chance about 2**-40.
_ELL_FLOOR = 2**40

#: Above this modulus the float-assisted vector mulmod loses its safety
#: margin.  The default exact ring refuses to go there; a ring sized by an
#: explicit ``d_max`` falls back to object-dtype arithmetic instead.
_FLOAT_MULMOD_LIMIT = 2**50

#: Primes of the exact convolution in :meth:`ResidueRing.dft_mod`.  Each is
#: c·2^k + 1 with k >= 23 and primitive root 3, and each is below 2**30, so
#: the product of two residues stays below 2**60 and uint64 arithmetic is
#: exact.  Their product is about 2**86.
_NTT_PRIMES = (998244353, 167772161, 469762049)
_NTT_MAX_LEN = 2**23

#: Largest radix of an NTT pass: a pass sums this many products below
#: 2**60, so it must stay at most 16 for uint64.  Timing a forward and an
#: inverse transform of four rows, radix 8 was the fastest of 2, 4, 8 and
#: 16 at every length from 64 to 16384, and within 10% of radix 4 at 2**18.
_NTT_RADIX = 8

#: Entries an NTT pass transforms at once (see :func:`_ntt`).  Blocks of
#: 2**12 to 2**18 entries took the same 7-8 s and 197 MB for the Gauss
#: table at q = 1048573; whole passes took 10.4 s and 348 MB.
_NTT_BLOCK = 2**16

#: Residues mod ell are split into limbs of this many bits for the NTT.
_LIMB_BITS = 25

#: Most uint64 entries :meth:`ResidueRing.dft_mod` recombines in one chunk.
_GARNER_CHUNK = 2**18

#: :meth:`ResidueRing.matmul` splits residues into limbs of this many bits
#: and sums at most ``_MATMUL_INNER`` limb products in float64 at once:
#: 2**11 · (2**21)² = 2**53, so every partial sum is an exact integer.
_MATMUL_LIMB_BITS = 21
_MATMUL_INNER = 2**11

#: Most float64 limb entries of the right operand split at once by
#: :meth:`ResidueRing.matmul`.
_MATMUL_BLOCK = 2**16


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
        if not 0 < tolerance < math.inf:  # NaN fails every comparison
            raise ValueError("tolerance must be finite and positive")
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

    def matmul(self, a, b) -> np.ndarray:
        """Matrix product of payload arrays (b may be a vector)."""
        return np.matmul(a, b)

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


def _reduce(t, m):
    """t mod m in place, for t < 2**64: numpy divides by a scalar far faster
    than it takes a remainder."""
    t -= t // m * m
    return t


def _powers(bases, count: int, mod: int, mulmod) -> np.ndarray:
    """Rows base^i mod ``mod`` for i < count, one row per base.

    Each step multiplies the filled prefix by up to fifteen powers of the
    bases in one ``mulmod`` call, so the table grows up to sixteenfold a
    step: few numpy calls even for small tables, no Python loop over i.
    """
    out = np.empty((len(bases), count), dtype=np.uint64)
    out[:, :1] = 1
    s = 1
    while s < count:
        k = min(16, -(-count // s))   # blocks of s entries after the step
        steps = np.array([[pow(b, s * j, mod) for j in range(1, k)]
                          for b in bases], dtype=np.uint64)
        block = mulmod(out[:, None, :s], steps[:, :, None])
        end = min(k * s, count)
        out[:, s:end] = block.reshape(len(bases), -1)[:, :end - s]
        s = end
    return out


def _ntt_roots(mod: int, n: int) -> np.ndarray:
    """w^j mod the prime ``mod`` for j < n, where w = 3^((mod - 1)/n) is a
    primitive n-th root of unity (n a power of two dividing mod - 1)."""
    m = np.uint64(mod)
    return _powers([pow(3, (mod - 1) // n, mod)], n, mod,
                   lambda u, v: _reduce(u * v, m))[0]


def _ntt_plans(n: int) -> tuple:
    """The passes of a forward and of an inverse length-n NTT, each list in
    the order the passes run.

    A pass is (r, c, dft, before, after): it views its input as (B, r, c),
    takes the length-r DFTs along the middle axis as one matmul with the
    r×r matrix of exponents ``dft``, and scales the (r, c) entries by the
    twiddle exponents ``before`` or ``after`` the matmul (or not at all, for
    None).  Exponents index the table of powers of a primitive n-th root w;
    the inverse's are negated, and roots[-e] = w^(n - e) = w^-e.
    """
    forward = []
    sub = n
    while sub > 1:
        r = min(_NTT_RADIX, sub)
        c = sub // r
        # Every exponent is below r·n <= 2**26, so int32 holds it.
        k = np.arange(r, dtype=np.int32)[:, None]
        dft = k * np.arange(r, dtype=np.int32) * (n // r) % n
        twiddle = (k * np.arange(c, dtype=np.int32) * (n // sub)
                   if c > 1 else None)
        forward.append((r, c, dft, None, twiddle))
        sub = c
    inverse = [(r, c, -dft, None if twiddle is None else -twiddle, None)
               for r, c, dft, _, twiddle in reversed(forward)]
    return forward, inverse


def _ntt(x, m, roots, plan) -> None:
    """In-place cyclic NTT of length n along the last axis of x, shape
    (R, n), modulo the prime m (a numpy uint64 scalar), by the passes of
    ``_ntt_plans``; roots[j] = w^j mod m for j < n.

    Cooley-Tukey with radix r <= ``_NTT_RADIX``: a forward pass on (B, r, c)
    takes the length-r DFTs along the middle axis and scales entry
    [b, k, j'] by w^(k·j'·n/(r·c)); the length-c DFTs of the (B·r, c) view
    then finish the job.  Forward leaves the output in digit-reversed
    order; the inverse plan undoes the passes in reverse, returns natural
    order and scales by n.  A pointwise product between the two needs no
    reordering.  A pass runs over blocks of whole (r, c) slices, about
    ``_NTT_BLOCK`` entries or one slice, so its temporaries stay that small.
    """
    for r, c, dft, before, after in plan:
        x3 = x.reshape(-1, r, c)
        dft = roots[dft]
        before = None if before is None else roots[before]
        after = None if after is None else roots[after]
        step = max(1, _NTT_BLOCK // (r * c))
        for lo in range(0, len(x3), step):
            block = x3[lo:lo + step]
            if before is not None:
                block *= before
                _reduce(block, m)
            # r sums of r products below 2**60 each: below 2**64.
            out = _reduce(np.matmul(dft, block), m)
            if after is not None:
                out *= after
                _reduce(out, m)
            block[...] = out


def _convolve_window(a, b, limbs: int, lo: int, hi: int) -> np.ndarray:
    """Entries lo..hi-1 of the cyclic convolution of the integer vectors a
    and b (uint64, entries below 2**(limbs·_LIMB_BITS)), limb by limb.

    Returns residues of shape (3, 2·limbs − 1, hi − lo): row [k, s] holds
    the convolution of the limb pairs (i, j) with i + j = s, modulo
    ``_NTT_PRIMES[k]``.  The length n is the least power of two holding b.
    The primes run one at a time, so at most 4·limbs − 1 rows of n uint64,
    and temporaries of a row or of one pass's block, are alive at once.
    """
    n = 1 << (len(b) - 1).bit_length()
    if n > _NTT_MAX_LEN:
        raise ValueError(f"transform length {n} exceeds {_NTT_MAX_LEN}")
    mask = np.uint64((1 << _LIMB_BITS) - 1)
    sums = 2 * limbs - 1
    out = np.empty((3, sums, hi - lo), dtype=np.uint32)
    plan, inverse_plan = _ntt_plans(n)
    for k, mod in enumerate(_NTT_PRIMES):
        m = np.uint64(mod)
        roots = _ntt_roots(mod, n)
        x = np.zeros((2 * limbs, n), dtype=np.uint64)
        for i in range(limbs):
            shift = np.uint64(i * _LIMB_BITS)
            x[i, :len(a)] = (a >> shift) & mask
            x[limbs + i, :len(b)] = (b >> shift) & mask
        _ntt(x, m, roots, plan)
        y = np.zeros((sums, n), dtype=np.uint64)
        for s in range(sums):
            for i in range(max(0, s - limbs + 1), min(s, limbs - 1) + 1):
                # Each product is below 2**60; at most three summands.
                y[s] += _reduce(x[i] * x[limbs + s - i], m)
        del x
        _ntt(_reduce(y, m), m, roots, inverse_plan)
        out[k] = _reduce(y[:, lo:hi] * np.uint64(pow(n, -1, mod)), m)
        del y  # before the next prime's x is allocated
    return out


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

    The Gauss table is the length-Q DFT of u[i] = zeta_p^tr(g^i), Q = q - 1,
    computed by :meth:`dft_mod` (Bluestein 1970).  Since m·k = C(m+k, 2) -
    C(m, 2) - C(k, 2), G_m = zeta^(-C(m,2)) · sum_k a[k]·b[m+k] with
    a[k] = u[k]·zeta^(-C(k,2)) and b[n] = zeta^(C(n,2)), n < 2Q - 1: only
    powers of the (q-1)-th root zeta are needed.  Entries Q-1..2Q-2 of the
    convolution of reversed a with b are those sums, so a cyclic transform
    of length N = 2^ceil(log2(2Q - 1)) loses none of them.  Residues are
    split into L = ceil(bits(ell)/25) limbs below 2**25 (L = 2 for the
    default ell, 3 for the widest d_max ring), and the limb convolutions
    run modulo the NTT primes 998244353, 167772161 and 469762049.  Each
    integer coefficient is at most L·Q·(2**25)² < L·N·2**50 < 2**74 (N <=
    2**23), below the primes' product of about 2**86, so Garner's CRT
    recovers it exactly; ``mul_vec`` reduces it mod ell and the limbs fold
    back with powers of 2**25.  Time is O(L·Q log Q).  The primes run one
    after another and each transform runs in place, so the peak holds
    about 15 rows of N uint64 for L = 2: the 2L limb rows and 2L - 1
    products of one prime, the chirp and the (3, 2L - 1, Q) uint32 window
    of results.  The table at q = 1048573 raises peak RSS by about 200 MB
    over the field and ring.

    :meth:`matmul` is exact the same way.  Residues are split into
    L' = ceil(bits(ell)/21) limbs below 2**21 (two for the default ell
    while it has at most 42 bits, three up to 2**63), and the L'² limb
    products run as float64 BLAS products over inner blocks of at most
    2**11 terms.  Each partial sum is then below 2**11·(2**21)² = 2**53, so
    float64 holds it exactly.  It is reduced mod ell, the products of limbs
    i and j with equal i + j are added, and ``mul_vec`` folds those sums
    back with the powers 2**(21(i + j)) mod ell.  Each operand is split
    into limbs once per call, the right one in column blocks.
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
        start = (bound // n + 1) * n + 1
        self.ell = next(m for m in itertools.count(start, n) if is_prime(m))
        if d_max is None and self.ell >= _FLOAT_MULMOD_LIMIT:
            raise ExactModulusTooLarge(q, self.ell, _FLOAT_MULMOD_LIMIT)
        if self.ell >= 2**63:
            raise ValueError(
                f"auxiliary modulus {self.ell} is too large for the exact "
                f"backend at q={q}, d_max={d_max}; use the float backend"
            )
        gamma = least_primitive_root(self.ell)
        self.w = pow(gamma, (self.ell - 1) // n, self.ell)
        w_q1 = pow(self.w, p, self.ell)       # image of zeta_{q-1}
        w_p = pow(self.w, q - 1, self.ell)    # image of zeta_p
        self._use_numpy = self.ell < _FLOAT_MULMOD_LIMIT
        self.roots_q1, self.roots_p = self._power_tables((w_q1, q - 1),
                                                        (w_p, p))
        self._inv_q = pow(q, -1, self.ell)
        self._gauss = None
        self._binom_cache: dict = {}
        self._hgf_cache: dict = {}

    def _power_tables(self, *pairs) -> list:
        """For each (base, count), the read-only table base^i mod ell for
        i < count, all filled together by :func:`_powers`."""
        out = _powers([base for base, _ in pairs],
                      max(count for _, count in pairs), self.ell, self.mul_vec)
        tables = [out[k, :count].copy() for k, (_, count) in enumerate(pairs)]
        for table in tables:
            table.setflags(write=False)
        return tables

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

    def matmul(self, a, b) -> np.ndarray:
        """Exact matrix product mod ell of residue arrays: a is (M, K) and
        b is (K, N) or a length-K vector.

        Limb products run as float64 BLAS products over inner blocks of
        ``_MATMUL_INNER``; see the class docstring for why they are exact.
        b is split into limbs in column blocks of about ``_MATMUL_BLOCK``
        entries; the temporaries of a block hold about (1 + limbs·M/K) times
        that many floats.
        """
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        vec = b.ndim == 1
        if vec:
            b = b[:, None]
        (M, K), N = a.shape, b.shape[1]
        limbs = -(-self.ell.bit_length() // _MATMUL_LIMB_BITS)
        mask = np.uint64((1 << _MATMUL_LIMB_BITS) - 1)
        shifts = [np.uint64(_MATMUL_LIMB_BITS * i) for i in range(limbs)]
        # Row i·M + r of al is limb i of a[r].
        al = np.empty((limbs, M, K))
        for i, shift in enumerate(shifts):
            al[i] = (a >> shift) & mask
        al = al.reshape(limbs * M, K)
        ell = np.uint64(self.ell)
        out = np.empty((M, N), dtype=np.uint64)
        cols = max(1, _MATMUL_BLOCK // (limbs * K))
        for c in range(0, N, cols):
            # Column j·n + c' of bl is limb j of b[:, c + c'].
            block = b[:, c:c + cols]
            n = block.shape[1]
            bl = np.empty((K, limbs, n))
            for j, shift in enumerate(shifts):
                bl[:, j] = (block >> shift) & mask
            bl = bl.reshape(K, limbs * n)
            # sums[s] gathers the limb pairs (i, j) with i + j = s.
            sums = np.zeros((2 * limbs - 1, M, n), dtype=np.uint64)
            for k in range(0, K, _MATMUL_INNER):
                prod = np.matmul(al[:, k:k + _MATMUL_INNER],
                                 bl[k:k + _MATMUL_INNER])
                prod = prod.reshape(limbs, M, limbs, n)
                for i in range(limbs):
                    for j in range(limbs):
                        sums[i + j] += prod[i, :, j].astype(np.uint64)
                _reduce(sums, ell)   # below ell + limbs·2**53 < 2**64
            total = sums[0]
            for s in range(1, 2 * limbs - 1):
                weight = pow(2, _MATMUL_LIMB_BITS * s, self.ell)
                total = (total + self.mul_vec(sums[s], weight)) % self.ell
            out[:, c:c + n] = total
        return out[:, 0] if vec else out

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

    def dft_mod(self, u) -> np.ndarray:
        """Exact DFT: entry m is sum_i u[i]·zeta^(m·i) mod ell, m < Q.

        u is a length-Q residue vector, Q = q - 1 and zeta = roots_q1[1].
        Bluestein's chirp-z route (see the class docstring) in O(Q log Q).
        """
        powers = self.roots_q1
        Q = len(powers)
        if len(u) != Q:
            raise ValueError(f"dft_mod needs {Q} residues, got {len(u)}")
        tri = np.arange(2 * Q - 1, dtype=np.int64)
        tri *= tri - 1
        tri //= 2
        tri %= Q                              # C(k, 2) mod Q, k < 2Q - 1
        down = powers[-tri[:Q] % Q]           # zeta^(-C(k, 2)), k < Q
        chirp = powers[tri]
        del tri
        a = np.asarray(self.mul_vec(u, down), dtype=np.uint64)[::-1]
        limbs = -(-self.ell.bit_length() // _LIMB_BITS)
        window = _convolve_window(a, chirp, limbs, Q - 1, 2 * Q - 1)
        del a, chirp
        m1, m2, m3 = _NTT_PRIMES
        ell = self.ell
        # Entry [d, s] weighs Garner digit d of the limb-sum s mod ell.
        weights = np.array([[c * (1 << (_LIMB_BITS * s)) % ell
                             for s in range(2 * limbs - 1)]
                            for c in (1, m1, m1 * m2)], dtype=np.uint64)
        conv = np.empty(Q, dtype=np.uint64)
        cols = _GARNER_CHUNK // weights.size
        for lo in range(0, Q, cols):
            # Garner: each limb-sum convolution is r1 + m1·v2 + m1·m2·v3.
            r1, r2, r3 = window[:, :, lo:lo + cols].astype(np.uint64)
            v2 = (r2 + (m2 - r1 % m2)) % m2 * pow(m1, -1, m2) % m2
            v3 = (r3 + (m3 - r1 % m3)) % m3
            v3 = (v3 + (m3 - (m1 % m3) * v2 % m3)) % m3
            v3 = v3 * pow(m1 * m2 % m3, -1, m3) % m3
            terms = self.mul_vec(np.stack([r1, v2, v3]) % ell,
                                 weights[:, :, None])
            conv[lo:lo + cols] = self.sum_rows(
                terms.reshape(-1, r1.shape[1]).T)
        return np.asarray(self.mul_vec(conv, down), dtype=np.uint64)

    @property
    def gauss_array(self) -> np.ndarray:
        """All q-1 Gauss sums as residues; entry m is G(T^m).

        With u[i] = zeta_p^tr(g^i), G(T^m) = sum_i u[i]·zeta_{q-1}^(m·i) is
        the length-(q-1) DFT of u, computed exactly by :meth:`dft_mod`.
        """
        if self._gauss is None:
            ctx = self.ctx
            out = self.dft_mod(self.roots_p[ctx.trace_table[ctx.exp_table]])
            out.setflags(write=False)
            self._gauss = out
        return self._gauss

    def unit_gauss(self):
        """The Gauss table and its unit: residues need no scaling."""
        return self.gauss_array, 1

    def q_pow_unit(self, k: int):
        """Residue of q^k (the unit of :meth:`unit_gauss` is 1)."""
        return pow(self.ctx.q, k, self.ell)


_RING_CACHE: dict[FieldCtx, dict] = {}


def get_ring(ctx: FieldCtx, backend: str = "float", *,
             tolerance: float = DEFAULT_TOLERANCE,
             d_max: int | None = None):
    """Return the cached value ring of the requested backend for a field.

    Rings, and the fields they hold, live until ``_RING_CACHE.clear()``.
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
