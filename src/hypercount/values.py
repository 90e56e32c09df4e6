"""Dual-backend value rings for character-sum arithmetic.

Character sums over F_q live in the cyclotomic ring Z[zeta_{p(q-1)}]:
multiplicative characters contribute (q-1)-th roots of unity and the
additive character contributes p-th roots (p and q-1 are coprime).  Two
interchangeable backends realize this ring:

* :class:`ComplexRing` — double-precision complex numbers.  Fast and
  approximate; integer-valued results are recovered by rounding, with a
  configurable tolerance guarding against silent corruption.  Its table
  of p-th roots is built on first use (the oracle's additive-character
  sums and extension-field Gauss tables), so a count on a prime field,
  where p is as large as q, keeps none.

* :class:`ResidueRing` — residues modulo an auxiliary prime ``ell`` with
  ``ell = 1 (mod p*(q-1))``, chosen as the least such prime exceeding
  ``max(2**40, 8 * q**2)``: large enough to lift every integer the
  package recovers, small enough that vector products stay in uint64.
  The images of the two roots of unity are fixed powers of an element
  ``w`` of order ``p*(q-1)`` derived from the least primitive root of
  ``ell`` (from :mod:`.ffield`), so runs are reproducible.  Every
  rational-integer result is recovered exactly from its balanced residue.
  Its length-(q-1) DFT (:meth:`ResidueRing.dft`, which gives the Gauss
  table and the series spectra) is exact mod ell: Bluestein's chirp-z
  transform, with the convolution done by float64 FFTs on limbs narrow
  enough that Percival's error bound makes rounding exact, and every
  rounded entry checked, in O(q log q) time and O(q) memory.

Both rings extend the private base ``_Ring``, which holds the field
``ctx``, ``nbytes``, the per-ring caches (the Gauss table, binomial
columns, coefficient vectors, evaluation counts, series spectra and the
oracle's z-sum table) and the helpers that only index a root table:
``zero`` and ``one`` (through ``from_int``), ``root_unity`` and
``theta_root`` (through ``wrap``), ``root_unity_vec`` and
``theta_root_vec``.  Each ring keeps its own arithmetic and its own
``gauss_array``.

Scalar values are wrapped in :class:`CharValue`; bulk kernels work on raw
numpy arrays through the ring's vector helpers (``mul_vec``, ``sum_vec``,
``sum_rows``, ``matmul`` with its ``split`` operands, ``dft``,
``root_unity_vec``, ``rational_vec``, ``scale``, ``negate``,
``mismatches``, ``unit_gauss``, ``q_pow_unit``) to keep hot loops free
of per-element wrappers.  Both
rings implement every helper, so no kernel branches on the backend.

Every function of the package with a ``ring=`` argument takes its ring
through :func:`_resolve_ring`: the caller's ring, or the field's cached
ring of the module's default backend (float for characters and series,
exact for counts and the oracle), and :class:`MixedFieldContexts` for a
ring of another field.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

import numpy as np

from .errors import (
    ExactModulusTooLarge,
    FloatRangeExceeded,
    MixedFieldContexts,
    NonIntegerResult,
    format_int,
)
from .ffield import _CACHE, FieldCtx, _as_int, is_prime, least_primitive_root

#: Default absolute tolerance for integer-valued float results.
DEFAULT_TOLERANCE = 1e-6

#: Least modulus of the default exact ring: an accidental agreement of two
#: distinct values mod ell then has chance about 2**-40.
_ELL_FLOOR = 2**40

#: Above this modulus the float-assisted vector mulmod loses its safety
#: margin.  The default exact ring refuses to go there; a ring sized by an
#: explicit ``d_max`` falls back to object-dtype arithmetic instead.
_FLOAT_MULMOD_LIMIT = 2**50

#: Float64 unit roundoff, and the error assumed for each of numpy's
#: precomputed FFT roots of unity (a few ulps): Percival's epsilon and beta
#: in :func:`_limb_bits`.
_EPS = 2.0**-53
_ROOT_ERR = 2.0**-51

#: Longest transform :meth:`ResidueRing.dft` runs (q - 1 <= 2**22).
_FFT_MAX_LEN = 2**23

#: Convolution entries :meth:`ResidueRing.dft` rounds and folds mod ell
#: at once, so the fold's temporaries stay small beside the spectra.
_FOLD_BLOCK = 2**16

#: :meth:`ResidueRing.matmul` splits residues into limbs of this many bits
#: and sums at most ``_MATMUL_INNER`` limb products in float64 at once:
#: 2**11 · (2**21)² = 2**53, so every partial sum is an exact integer.
_MATMUL_LIMB_BITS = 21
_MATMUL_INNER = 2**11

#: :meth:`ResidueRing.matmul` upcasts the right operand's limbs to float64
#: a column block at a time: about ``_MATMUL_BLOCK`` limb entries, but at
#: least ``_MATMUL_COLS`` columns, so that a long inner dimension K still
#: gets wide BLAS products.  At two limbs the floor sets the width from
#: K = 257 on.
_MATMUL_BLOCK = 2**16
_MATMUL_COLS = 128


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


def _roots_of_unity(n: int, ks=None) -> np.ndarray:
    """Read-only exp(2j·pi·k/n) for each k in ks (default: k < n), built in
    place and bit-identical to ``np.exp(2j * np.pi * ks / n)``: that product
    has real part +0 and imaginary part 2·pi·k, and numpy divides a complex
    number by the real n as a product with 1/n.  So entry i is bitwise
    ``_roots_of_unity(n)[ks[i]]``."""
    ks = np.arange(n) if ks is None else ks
    roots = np.zeros(len(ks), dtype=np.complex128)
    np.multiply(ks, 2 * np.pi, out=roots.imag)
    roots.imag *= 1 / n
    np.exp(roots, out=roots)
    roots.setflags(write=False)
    return roots


class _Ring:
    """Base of both rings: ``ctx``, the caches, and the helpers that only
    index a root table (each ring sets ``roots_q1`` and ``roots_p``)."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self._gauss = None
        self._binom_cache: dict = {}
        self._hgf_cache: dict = {}
        self._hgf_uses: dict = {}
        self._spectra: dict = {}
        self._zsum_table = None   # set by the oracle's decomposition

    @property
    def nbytes(self) -> int:
        """Bytes of the ring's arrays: its root tables, Gauss and
        decomposition tables, and the columns, coefficient vectors and
        spectra it caches (an object array counts its pointers)."""
        arrays = [a for a in vars(self).values() if isinstance(a, np.ndarray)]
        for cache in (self._binom_cache, self._hgf_cache, self._spectra):
            arrays.extend(cache.values())
        return sum(a.nbytes for a in arrays)

    def zero(self) -> CharValue:
        return self.from_int(0)

    def one(self) -> CharValue:
        return self.from_int(1)

    def root_unity(self, j: int) -> CharValue:
        """zeta_{q-1}^j as a ring value."""
        return self.wrap(self.roots_q1[j % (self.ctx.q - 1)])

    def theta_root(self, t: int) -> CharValue:
        """zeta_p^t as a ring value."""
        return self.wrap(self.roots_p[t % self.ctx.p])

    def root_unity_vec(self, exps) -> np.ndarray:
        """roots_q1[e mod (q-1)] for each exponent e, in a new array."""
        return self.roots_q1.take(np.remainder(exps, self.ctx.q - 1))

    def theta_root_vec(self, ts) -> np.ndarray:
        """roots_p[t mod p] for each t, in a new array."""
        return self.roots_p[np.asarray(ts) % self.ctx.p]


class ComplexRing(_Ring):
    """Floating-point backend: values are numpy complex128 scalars/arrays.

    ``roots_q1`` is built with the ring and ``roots_p`` on first use (see
    the module docstring).
    """

    backend = "float"

    def __init__(self, ctx: FieldCtx, tolerance: float = DEFAULT_TOLERANCE):
        if not 0 < tolerance < math.inf:  # NaN fails every comparison
            raise ValueError("tolerance must be finite and positive")
        super().__init__(ctx)
        self.tolerance = tolerance
        self.roots_q1 = _roots_of_unity(ctx.q - 1)

    @functools.cached_property
    def roots_p(self) -> np.ndarray:
        """exp(2j·pi·t/p) for t < p, read-only."""
        return _roots_of_unity(self.ctx.p)

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

    def inv_int(self, n: int):
        """Payload of 1/n for a nonzero rational integer n."""
        return 1.0 / n

    def lift_int(self, u) -> int:
        n = np.rint(np.real(u))
        with np.errstate(invalid="ignore"):   # inf - inf is NaN
            residual = float(abs(u - n))
        # Written as "not within tolerance" so NaN and inf fail too.
        if not residual <= self.tolerance:
            raise NonIntegerResult(complex(u), residual, self.tolerance)
        return int(n)

    def values_close(self, u, v, scale: float = 1.0) -> bool:
        return bool(abs(u - v) <= self.tolerance * max(1.0, scale))

    def residual(self, u, v, scale: float = 1.0) -> float:
        """Normalized distance between two payloads (0 when equal)."""
        return float(abs(u - v) / max(1.0, scale))

    # -- vector ops (complex128 arrays) --------------------------------------

    def mul_vec(self, u, v, out=None) -> np.ndarray:
        """Elementwise product, into out if given (out may be u or v)."""
        return np.multiply(u, v, out=out)

    def sum_vec(self, u):
        return np.sum(u)

    def sum_rows(self, mat) -> np.ndarray:
        """Per-row sums of a 2-D payload matrix."""
        return np.sum(mat, axis=1)

    def split_empty(self, shape) -> np.ndarray:
        """An uninitialised right operand of :meth:`matmul`."""
        return np.empty(shape, dtype=np.complex128)

    def split(self, b, out=None) -> np.ndarray:
        """The right operand of :meth:`matmul` as it takes it: b itself, or
        a copy into out if given."""
        if out is None:
            return b
        out[...] = b
        return out

    def matmul(self, a, b) -> np.ndarray:
        """Matrix product of payload arrays (b may be a vector)."""
        return np.matmul(a, b)

    def rational_vec(self, nums, den: int = 1) -> np.ndarray:
        """Payloads of the rationals nums/den (nums an integer array)."""
        return (np.asarray(nums) / den).astype(np.complex128)

    def scale(self, u, num: int, den: int = 1, out=None):
        """Payload(s) u·num/den for integers num, den, into the array out if
        given (out may be u); unit factors are skipped.  Without out, a
        scalar u takes numpy's scalar arithmetic."""
        if num != 1:
            u = u * num if out is None else np.multiply(u, num, out=out)
        if den != 1:
            u = u / den if out is None else np.divide(u, den, out=out)
        return u

    def negate(self, u) -> None:
        """Negate the writable payload array u in place."""
        np.negative(u, out=u)

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

    def dft(self, u) -> np.ndarray:
        """DFT: entry m is sum_i u[i]·zeta^(m·i), m < Q, for a length-Q
        vector u, Q = q - 1: numpy's inverse FFT scaled by Q."""
        out = np.fft.ifft(u)
        out *= self.ctx.q - 1
        return out

    @property
    def gauss_array(self) -> np.ndarray:
        """All q-1 Gauss sums; entry m is G(T^m).

        With u[i] = zeta_p^tr(g^i), G_m = sum_i u[i]·zeta_{q-1}^(m·i) is
        the length-(q-1) DFT of u, computed by :meth:`dft`.  On a prime
        field tr(g^i) is the code g^i, so u is computed from ``exp_table``
        directly, bitwise equal to ``roots_p[exp_table]``.
        """
        if self._gauss is None:
            ctx = self.ctx
            if ctx.e == 1:
                u = _roots_of_unity(ctx.p, ctx.exp_table)
            else:
                u = self.roots_p.take(ctx.trace_table.take(ctx.exp_table))
            self._gauss = self.dft(u)
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


def _limb_bits(n: int, bits: int) -> int:
    """Widest limb width B for a length-2**n convolution of residues below
    2**bits: with L = ceil(bits/B) limb pairs summed per row, the error
    bound L·2**n·(2**B - 1)²·E(n) stays at most 1/4, where E(n) is
    Percival's (see :class:`ResidueRing`)."""
    error = math.expm1(3 * n * math.log1p(_EPS)
                       + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
                       + 3 * n * math.log1p(_ROOT_ERR))
    return next(B for B in range(bits, 0, -1)
                if -(-bits // B) * 2**n * (2**B - 1) ** 2 * error <= 0.25)


def _limb_spectra(x, B: int, L: int, N: int) -> list:
    """Length-N real FFTs of the L limbs of width B of the uint64 vector x."""
    limb = np.empty_like(x)
    spectra = []
    for i in range(L):
        np.right_shift(x, np.uint64(B * i), out=limb)
        limb &= np.uint64(2**B - 1)
        spectra.append(np.fft.rfft(limb.astype(np.float64), N))
    return spectra


class ResidueRing(_Ring):
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

    On that path :meth:`mul_vec` reduces in one pass.  For residues u, v
    below ell < 2**50, uv/ell < 2**50 and the float64 value of
    u·v·(1/ell) carries three roundings, so it lies within about
    3·2**-53·2**50 = 3/8 of uv/ell, and its ``rint`` is floor(uv/ell) or
    one more.  So uv - quot·ell, computed in wrapping uint64 arithmetic,
    lies in [-ell, ell), and adding ell where it is negative gives the
    residue.

    An explicit ``d_max`` instead sizes ell above 4·q^(ceil(d_max/2) + 1)
    and falls back to object-dtype arithmetic once ell reaches 2**50; a
    bound that puts ell past 2**63 raises ValueError before the search.

    The Gauss table is the length-Q DFT of u[i] = zeta_p^tr(g^i), Q = q - 1,
    computed by :meth:`dft` (Bluestein 1970).  Since m·k = C(m+k, 2) -
    C(m, 2) - C(k, 2), G_m = zeta^(-C(m,2)) · sum_k a[k]·b[m+k] with
    a[k] = u[k]·zeta^(-C(k,2)) and b[n] = zeta^(C(n,2)), n < 2Q - 1: only
    powers of the (q-1)-th root zeta are needed.  Entries Q-1..2Q-2 of the
    convolution of reversed a with b are those sums, so a cyclic transform
    of length N = 2^ceil(log2(2Q - 1)) loses none of them.

    The convolution runs in float64 FFTs.  Residues are split into
    L = ceil(bits(ell)/B) limbs below 2**B; for each s the spectra of the
    limb pairs (i, j) with i + j = s are summed and one inverse real FFT
    gives row s.  Percival (Math. Comp. 72, 2003, Thm 5.1) bounds the
    error of a float FFT product of x and y at length N = 2**n by
    ||x||·||y||·E(n), E(n) = (1+eps)^3n·(1+eps·sqrt 5)^(3n+1)·(1+beta)^3n
    - 1, with eps = 2**-53 and beta the error of the precomputed roots of
    unity, taken as 2**-51.  Here ||x||·||y|| <= N·(2**B - 1)², so a row
    errs by at most L·N·(2**B - 1)²·E(n), and B is the widest width that
    keeps this at most 1/4 (:func:`_limb_bits`).  For the default ell (41
    bits up to q ~ 370000, 45 at q = 1048573) that is B = 14 to 21 and
    L = 2 or 3 up to N = 2**13 (q ~ 4100), B = 11 to 13 and L = 4 up to
    N = 2**18, and B = 9 or 10 and L = 5 up to N = 2**21.  Every row entry
    is then below 2**53, so ``np.rint`` recovers it exactly; it is reduced
    mod ell and folded back with the weight 2**(B·s).  numpy's FFT is not
    the radix-2 algorithm Percival analyses and beta is an assumption, so
    the rounding is checked: an entry 1/4 or more from an integer raises
    :class:`NonIntegerResult`, and no table is returned or cached.  Time
    is O(L·Q log Q): 2L forward and 2L - 1 inverse real FFTs.  The working
    set is the 2L limb spectra of N/2 + 1 complex128 each, the row, one
    more row of that size (a limb-pair product, then the inverse of the
    row, which is freed before the next row is inverted), and two Q-entry
    uint64 vectors (the chirp factors and the sum); rounding and folding
    run in blocks of ``_FOLD_BLOCK`` entries.  At q = 1048573 (L = 5) the
    table raises peak RSS by about 215 MB over the field and ring.

    :meth:`matmul` is exact the same way.  Residues are split into
    L' = ceil(bits(ell)/21) limbs below 2**21 (two for the default ell
    while it has at most 42 bits, three up to 2**63), and the L'² limb
    products run as float64 BLAS products over inner blocks of at most
    2**11 terms.  Each partial sum is then below 2**11·(2**21)² = 2**53, so
    float64 holds it exactly.  It is reduced mod ell, the products of limbs
    i and j with equal i + j are added, and ``mul_vec`` folds those sums
    back with the powers 2**(21(i + j)) mod ell.  The left operand is
    split once per call.  The right one is split once by :meth:`split`,
    by the caller when many products share it: its limbs are held as
    float32, which is exact below 2**24 and, at two limbs, as small as the
    uint64 residues, and each product upcasts them to float64 one column
    block at a time, at least 128 columns wide (see :meth:`matmul`).
    """

    backend = "exact"

    def __init__(self, ctx: FieldCtx, d_max: int | None = None):
        if d_max is not None and d_max < 2:
            raise ValueError("d_max must be >= 2")
        super().__init__(ctx)
        self.d_max = d_max
        p, q = ctx.p, ctx.q
        n = p * (q - 1)
        if d_max is None:
            bound = max(_ELL_FLOOR, 8 * q * q)
        else:
            # ell > 4·q^k >= 2**(2 + k·(bits(q) - 1)), so a modulus past
            # 2**63 is refused before q^k is built or searched from.
            k = (d_max + 1) // 2 + 1
            if k * (q.bit_length() - 1) >= 61 or 4 * q**k >= 2**63:
                raise ValueError(
                    f"an auxiliary modulus above 4·q^{format_int(k)} is too "
                    f"large for the exact backend at q={q}, "
                    f"d_max={format_int(d_max)}; use the float backend")
            bound = 4 * q**k
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
        self._ell_u64 = np.uint64(self.ell)
        self._ell_recip = 1.0 / self.ell
        self._limbs = -(-self.ell.bit_length() // _MATMUL_LIMB_BITS)
        self.roots_q1, self.roots_p = self._power_tables((w_q1, q - 1),
                                                        (w_p, p))
        self._inv_q = pow(q, -1, self.ell)

    def _power_tables(self, *pairs) -> list:
        """For each (base, count), the read-only table base^i mod ell for
        i < count, all filled together.

        Each step multiplies the filled prefix by up to fifteen powers of
        the bases in one ``mul_vec`` call, so the tables grow up to
        sixteenfold a step: few numpy calls even for small tables, no
        Python loop over i.
        """
        bases = [base for base, _ in pairs]
        count = max(count for _, count in pairs)
        out = np.empty((len(bases), count), dtype=np.uint64)
        out[:, :1] = 1
        s = 1
        while s < count:
            k = min(16, -(-count // s))   # blocks of s entries after the step
            steps = np.array([[pow(b, s * j, self.ell) for j in range(1, k)]
                              for b in bases], dtype=np.uint64)
            block = self.mul_vec(out[:, None, :s], steps[:, :, None])
            end = min(k * s, count)
            out[:, s:end] = block.reshape(len(bases), -1)[:, :end - s]
            s = end
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

    def inv_int(self, n: int):
        return pow(n, -1, self.ell)

    def lift_int(self, u) -> int:
        """Balanced residue in (-ell/2, ell/2]."""
        u = int(u) % self.ell
        return u - self.ell if u > self.ell // 2 else u

    def values_close(self, u, v, scale: float = 1.0) -> bool:
        return int(u) % self.ell == int(v) % self.ell

    def residual(self, u, v, scale: float = 1.0) -> float:
        return 0.0 if self.values_close(u, v) else 1.0

    # -- vector ops (uint64 arrays of residues) --------------------------------

    def mul_vec(self, u, v, out=None) -> np.ndarray:
        """Elementwise modular product of residue arrays, into out if given
        (out may be u or v)."""
        u = np.asarray(u, dtype=np.uint64)
        v = np.asarray(v, dtype=np.uint64)
        if not self._use_numpy:
            if out is None:
                out = np.empty(np.broadcast_shapes(u.shape, v.shape), object)
            ub, vb = np.broadcast_arrays(u, v)
            out.flat = [(int(a) * int(b)) % self.ell
                        for a, b in zip(np.ravel(ub), np.ravel(vb))]
            return out
        # One reduction pass (see the class docstring): the rounded float
        # quotient is floor(uv/ell) or one more, so uv - quot·ell, taken in
        # wrapping uint64, lies in [-ell, ell); a wrapped negative r is the
        # larger of r and r + ell.  Integer ufuncs never check overflow, and
        # asarray keeps the product of two scalars an array.
        # Two temporaries: the float quotient, then quot·ell and r + ell.
        quot = np.asarray(np.multiply(u, v, dtype=np.float64))
        quot *= self._ell_recip
        np.rint(quot, out=quot)
        out = np.asarray(np.multiply(u, v, out=out))
        tmp = np.asarray(np.multiply(quot, self._ell_u64, dtype=np.uint64,
                                     casting="unsafe"))
        del quot
        out -= tmp
        np.minimum(out, np.add(out, self._ell_u64, out=tmp), out=out)
        return out

    def sum_vec(self, u):
        """Modular sum of a residue array (any shape, summed flat)."""
        return int(self.sum_rows(np.reshape(u, (1, -1)))[0])

    def sum_rows(self, mat) -> np.ndarray:
        """Per-row modular sums of a 2-D residue matrix."""
        mat = np.asarray(mat)
        if not self._use_numpy or mat.dtype == object:
            # Python ints: a uint64 partial sum would wrap once ell is wide.
            return np.array([sum(map(int, row)) % self.ell
                             for row in mat.tolist()], dtype=object)
        out = np.zeros(mat.shape[0], dtype=np.uint64)
        ell = np.uint64(self.ell)
        # Column blocks keep each partial row sum below 4096 * ell < 2**63.
        for start in range(0, mat.shape[1], 4096):
            out = (out + np.sum(mat[:, start:start + 4096], axis=1,
                                dtype=np.uint64)) % ell
        return out

    def split_empty(self, shape) -> np.ndarray:
        """An uninitialised right operand of :meth:`matmul` of the given
        shape, (K, N) or (K,), in split form, to be filled a row block at a
        time by :meth:`split`."""
        return np.empty((shape[0], self._limbs, *shape[1:]), dtype=np.float32)

    def split(self, b, out=None) -> np.ndarray:
        """The right operand b of :meth:`matmul` split into limbs: entry
        [k, i] of a vector's split, or [k, i, n] of a matrix's, is limb i
        of b[k], or of b[k, n].  float32 holds a 21-bit limb exactly.
        Written into out, rows of a :meth:`split_empty` array, if given."""
        b = np.asarray(b, dtype=np.uint64)
        if out is None:
            out = self.split_empty(b.shape)
        mask = np.uint64((1 << _MATMUL_LIMB_BITS) - 1)
        for i in range(self._limbs):
            out[:, i] = (b >> np.uint64(_MATMUL_LIMB_BITS * i)) & mask
        return out

    def matmul(self, a, b) -> np.ndarray:
        """Exact matrix product mod ell of residue arrays: a is (M, K) and
        b is (K, N), a length-K vector, or the :meth:`split` of either.

        Limb products run as float64 BLAS products over inner blocks of
        ``_MATMUL_INNER``; see the class docstring for why they are exact.
        b is split once (unless it comes split) and its limbs are upcast to
        float64 in blocks of max(``_MATMUL_COLS``, ``_MATMUL_BLOCK`` //
        (limbs·K)) columns: 2**16 // (limbs·K) while that is at least 128
        (K <= 256 at two limbs), and 128 however long K is.  A block holds
        limbs·K·cols <= max(2**16, 128·limbs·K) floats, and its products
        and sums about (limbs² + 2·limbs)·M·cols more, beside the
        limbs·M·K floats of the left operand's limbs: memory linear in M
        and K at any shape.  The block width does not touch exactness,
        which rests on the inner blocks alone.
        """
        if getattr(b, "dtype", None) != np.float32:
            b = self.split(b)
        vec = b.ndim == 2
        if vec:
            b = b[:, :, None]
        al = self.split(a)
        (M, limbs, K), N = al.shape, b.shape[2]
        # Row i·M + r of al is limb i of a[r].
        al = al.transpose(1, 0, 2).astype(np.float64, order="C")
        al = al.reshape(limbs * M, K)
        ell = self._ell_u64
        out = np.empty((M, N), dtype=np.uint64)
        cols = max(_MATMUL_COLS, _MATMUL_BLOCK // (limbs * K))
        for c in range(0, N, cols):
            # Column j·n + c' of bl is limb j of b[:, c + c'].
            bl = b[:, :, c:c + cols].astype(np.float64)
            n = bl.shape[2]
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
        return residues if den == 1 else self.scale(residues, 1, den)

    def scale(self, u, num: int, den: int = 1, out=None):
        """Residue(s) u·num/den for rational integers num and den != 0, into
        the array out if given (out may be u)."""
        c = num * pow(den, -1, self.ell) % self.ell
        if isinstance(u, int):
            return u * c % self.ell
        return self.mul_vec(u, np.uint64(c), out=out)

    def negate(self, u) -> None:
        """Negate the writable residue array u in place."""
        np.subtract(np.uint64(self.ell), u, out=u, where=u != 0)

    def mismatches(self, u, v, scale: float = 1.0):
        """Flat indices where u and v differ, and the worst residual (0/1)."""
        bad = np.flatnonzero(u != v)
        return bad, 0.0 if bad.size == 0 else 1.0

    def wrap(self, payload) -> CharValue:
        return CharValue(self, int(payload) % self.ell)

    # -- Gauss sums -------------------------------------------------------------

    def dft(self, u) -> np.ndarray:
        """Exact DFT: entry m is sum_i u[i]·zeta^(m·i) mod ell, m < Q.

        u is a length-Q residue vector, Q = q - 1 and zeta = roots_q1[1].
        Bluestein's chirp-z route over a float FFT convolution (see the
        class docstring) in O(Q log Q).  Raises :class:`NonIntegerResult`
        if a convolution entry lies 1/4 or more from an integer.
        """
        powers = self.roots_q1
        Q = len(powers)
        if len(u) != Q:
            raise ValueError(f"dft needs {Q} residues, got {len(u)}")
        n = (2 * Q - 2).bit_length()          # 2**n holds the 2Q - 1 chirp
        N = 2**n
        if N > _FFT_MAX_LEN:
            raise ValueError(f"transform length {N} exceeds {_FFT_MAX_LEN}")
        tri = np.arange(2 * Q - 1, dtype=np.int64)
        tri *= tri - 1
        tri //= 2
        tri %= Q                              # C(k, 2) mod Q, k < 2Q - 1
        down = powers[-tri[:Q] % Q]           # zeta^(-C(k, 2)), k < Q
        chirp = powers[tri]
        del tri
        a = np.asarray(self.mul_vec(u, down), dtype=np.uint64)[::-1]
        bits = self.ell.bit_length()
        B = _limb_bits(n, bits)
        L = -(-bits // B)
        # Spectra i and L + i are those of limb i of the chirp and of a; the
        # longer chirp goes first so it is freed before a's limbs are split.
        spectra = _limb_spectra(chirp, B, L, N)
        del chirp
        spectra += _limb_spectra(a, B, L, N)
        del a
        ell = np.uint64(self.ell)
        row = np.empty(N // 2 + 1, dtype=np.complex128)
        conv = np.zeros(Q, dtype=np.uint64)
        for s in range(2 * L - 1):
            # Row s is the sum of the limb-pair convolutions with i + j = s.
            first, *rest = range(max(0, s - L + 1), min(s, L - 1) + 1)
            np.multiply(spectra[first], spectra[L + s - first], out=row)
            for i in rest:
                row += spectra[i] * spectra[L + s - i]
            # Entries Q-1..2Q-2 of the cyclic convolution are the sums.
            window = np.fft.irfft(row, N)[Q - 1:2 * Q - 1]
            weight = pow(2, B * s, self.ell)
            for lo in range(0, Q, _FOLD_BLOCK):
                part = window[lo:lo + _FOLD_BLOCK]
                exact = np.rint(part)
                residual = np.abs(part - exact)
                k = residual.argmax()             # the first NaN, if any
                if not residual[k] < 0.25:
                    raise NonIntegerResult(float(part[k]), float(residual[k]),
                                           0.25)
                term = self.mul_vec(_reduce(exact.astype(np.uint64), ell),
                                    weight)
                acc = conv[lo:lo + _FOLD_BLOCK]
                acc += np.asarray(term, dtype=np.uint64)
                acc[acc >= ell] -= ell
            del window, part   # before the next row is inverted
        return np.asarray(self.mul_vec(conv, down), dtype=np.uint64)

    @property
    def gauss_array(self) -> np.ndarray:
        """All q-1 Gauss sums as residues; entry m is G(T^m).

        With u[i] = zeta_p^tr(g^i), G(T^m) = sum_i u[i]·zeta_{q-1}^(m·i) is
        the length-(q-1) DFT of u, computed exactly by :meth:`dft`.
        """
        if self._gauss is None:
            ctx = self.ctx
            out = self.dft(self.roots_p[ctx.trace_table[ctx.exp_table]])
            out.setflags(write=False)
            self._gauss = out
        return self._gauss

    def unit_gauss(self):
        """The Gauss table and its unit: residues need no scaling."""
        return self.gauss_array, 1

    def q_pow_unit(self, k: int):
        """Residue of q^k (the unit of :meth:`unit_gauss` is 1)."""
        return pow(self.ctx.q, k, self.ell)


#: The field cache's map from each cached field to its rings, under the
#: name the benchmark reads.
_RING_CACHE = _CACHE.entries


def get_ring(ctx: FieldCtx, backend: str = "float", *,
             tolerance: float = DEFAULT_TOLERANCE,
             d_max: int | None = None):
    """Return the cached value ring of the requested backend for a field.

    Rings live in the field cache with their field (see :mod:`.ffield`):
    evicted with it, and returned again while a caller still holds them.
    ``d_max`` applies to the exact backend only; leave it unset for the
    default modulus (see :class:`ResidueRing`).  ``tolerance`` must be a
    real number and ``d_max`` an integer: a bool, a string or any other
    type raises a TypeError, before the cache is consulted.
    """
    if (isinstance(tolerance, (bool, np.bool_))
            or not isinstance(tolerance, numbers.Real)):
        raise TypeError(f"tolerance must be a real number, got "
                        f"{type(tolerance).__name__} {tolerance!r}")
    if d_max is not None:
        d_max = _as_int(d_max, "d_max")
    if backend == "float":
        key = ("float", tolerance)
        make = functools.partial(ComplexRing, ctx, tolerance)
    elif backend == "exact":
        key = ("exact", d_max)
        make = functools.partial(ResidueRing, ctx, d_max)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return _CACHE.ring(ctx, key, make)


def _resolve_ring(ctx: FieldCtx, ring, backend: str):
    """The ring a function with a ``ring=`` argument computes in: ``ring``,
    or the field's cached ``backend`` ring when it is None.  A ring of
    another field raises :class:`MixedFieldContexts`."""
    if ring is None:
        return get_ring(ctx, backend)
    if ring.ctx is not ctx:
        raise MixedFieldContexts()
    return ring
