"""Explicit finite fields F_{p^e} with dense exponent/log tables.

A field element is stored as an integer *code* in ``[0, q)``: the residue
polynomial ``c_0 + c_1*x + ... + c_{e-1}*x^{e-1}`` (coefficients in
``[0, p)``) is encoded as ``c_0 + c_1*p + ... + c_{e-1}*p^{e-1}``.  For a
prime field (``e = 1``) the code is simply the residue, so ordinary modular
intuition carries over.

Construction is deterministic: the modulus is the first monic irreducible
of degree ``e`` in ascending code order (higher-degree coefficients most
significant), and the generator is the first element in ascending code
order whose multiplicative order is ``q - 1``.  A prime field takes
g = :func:`least_primitive_root` (p) and the modulus x - g.  Identical
inputs therefore always produce identical tables.  The integer helpers
this needs are here too: :func:`is_prime`, :func:`prime_factors` and
:func:`least_primitive_root`.

The construction is linear algebra over F_p: multiplication by x modulo
the modulus f is the e x e companion matrix C of f acting on coefficient
rows, and by an element it is sum_j c_j·C^j.  Both searches stack the
matrices of a batch of candidates (batches double in size) and test the
stack at once, each test on the survivors of the last: Rabin's test on
powers of C finds the modulus, and the generator search raises the stack
to (q-1)/r for each prime r | q-1 by square-and-multiply.  The exponent
table doubles at each step: the rows of g^0, ..., g^(s-1) times the
matrix of g^s are the rows of g^s, ..., g^(2s-1).  A prime field runs the
same fill on a 1-D table of powers of g.  Matrix entries are integers
below p held in float64, so products run in BLAS and stay exact (a
product entry is at most e·p^2 < 2^40 in the budget).  No code is split
into digits by division: the trace (linear in the digits) and the code of
1 - x are outer sums of length-p per-digit tables.  A prime field needs
neither: its trace is the code and 1 - x is a subtraction.

All tables are built eagerly: ``exp_table[i] = g**i``, its inverse
``log_table``, the discrete log of ``1 - g**i`` (used by Jacobi-sum
kernels), and the F_p-valued trace of every element.  A :class:`FieldCtx`
is immutable after construction (its tables are read-only numpy arrays)
and safe to share between threads.

:func:`build_field` keeps its fields in one least-recently-used cache,
which also holds the value rings :func:`~hypercount.values.get_ring`
builds on each field, and so every array those rings cache.  Its bytes
are bounded by ``CACHE_BYTES``; the most recently used field always
stays, and a field (or ring) a caller still holds is returned again
after eviction.  See :class:`_FieldCache` and :func:`cache_info`.

Every table is int32, 4 bytes an entry: each entry is a code, a log or a
trace below q, or the sentinel -1.  :func:`build_field` refuses q above
``MAX_FIELD_SIZE`` = 2^30 whatever the table budget, so that the sum of
two entries (two logs in ``mul``, a log and a shift in ``add``) is below
2^31 and int32 arithmetic on them cannot wrap.  A product of an entry
with an index or a log can pass 2^31, so it is taken in int64: in
``pow_elem`` (whose exponent is first reduced mod q - 1, so the product
stays below q^2), in :func:`_power_table`, and by every caller outside this
module that multiplies a table entry (numpy keeps int32 when the other
factor is a Python int).

Arithmetic runs on these tables alone.  A prime field adds mod p.  An
extension field keeps no digit table: it adds by Zech logarithms, and
``one_minus_log`` is its Zech table.  For nonzero u = g^a and w = g^b,
u - w = g^a·(1 - g^(b-a)) = g^(a + one_minus_log[b - a]), whose sentinel
at b = a marks u - w = 0; u + v is u - (-v), and -v = g^(b + (q-1)/2)
since -1 = g^((q-1)/2).  Products, inverses and powers add or scale logs.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from collections import OrderedDict
from functools import reduce
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import LogOfZero, NotPrime, TableBudgetExceeded, format_int

#: Default cap on q; fields larger than this refuse to build.
DEFAULT_TABLE_BUDGET = 2**20

#: Largest q any budget admits: int32 tables, and sums of two entries, fit.
MAX_FIELD_SIZE = 2**30

#: Bytes of fields, rings and ring arrays the field cache keeps beyond its
#: most recently used field (see :class:`_FieldCache`).
CACHE_BYTES = 8 * 2**20

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller–Rabin with the bases above: exact below 3.2·10^23, the least
    strong pseudoprime to all twelve, so for every p and ell used here."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1      # n - 1 = d * 2**s, d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n >= 1: trial division by the
    bases above, then Pollard's rho with Brent's cycle search."""
    found = {b for b in _MR_BASES if n % b == 0}
    while (g := math.gcd(n, math.prod(found))) > 1:
        n //= g
    if is_prime(n):
        found.add(n)
    elif n > 1:
        f, c = n, 0
        while f == n:  # iterate x -> x^2 + c; a new c after a failure
            c, y, r, f = c + 1, 2, 1, 1
            while f == 1:  # compare with x, saved at each power of two
                x = y
                for _ in range(r):
                    y = (y * y + c) % n
                    if (f := math.gcd(x - y, n)) != 1:
                        break
                r *= 2
        found.update(prime_factors(f), prime_factors(n // f))
    return sorted(found)


def least_primitive_root(n: int) -> int:
    """Least generator of the unit group of Z/n for an odd prime n."""
    factors = prime_factors(n - 1)
    return next(g for g in range(2, n)
                if all(pow(g, (n - 1) // r, n) != 1 for r in factors))


# --------------------------------------------------------------------------
# Linear algebra over F_p.  Elements of F_p[x]/(f) are coefficient rows,
# low to high degree; ``_mod(row @ M, p)`` multiplies by the element of M.
# Entries are float64 (see the module docstring).
# --------------------------------------------------------------------------


def _coeffs(code: int, p: int, e: int) -> tuple[int, ...]:
    return tuple((code // p**i) % p for i in range(e))


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a float64 array of integers in [0, 2^40).

    With x = kp + r, (x + 1/2)/p lies at least 1/(2p) from an integer, and
    its float value errs by at most 2^40/p · 2^-51, so its floor is k.
    """
    quot = x + 0.5
    quot *= 1 / p
    np.floor(quot, out=quot)
    quot *= p
    x -= quot
    return x


def _matpow(m: np.ndarray, n: int, p: int) -> np.ndarray:
    """m**n mod p by square-and-multiply, for n >= 0; m may be a stack.
    The result is float64."""
    m = np.asarray(m, dtype=np.float64)
    out = np.eye(m.shape[-1])
    while n:
        if n & 1:
            out = _mod(out @ m, p)
        m = _mod(m @ m, p)
        n >>= 1
    return out


def _digit_sum(tables: list) -> np.ndarray:
    """Entry c_0 + c_1·p + ... holds tables[0][c_0] + tables[1][c_1] + ..."""
    return reduce(lambda low, t: np.add.outer(t, low).ravel(), tables)


def _batches(start: int, stop: int, size: int):
    """The codes start, ..., stop - 1 as arrays whose sizes double."""
    while start < stop:
        yield np.arange(start, min(start + size, stop))
        start, size = start + size, 2 * size


def _digit_rows(codes: np.ndarray, p: int, e: int) -> np.ndarray:
    """Row k holds the e base-p digits of codes[k], low to high."""
    return codes[:, None] // p ** np.arange(e) % p


def _companions(codes: np.ndarray, p: int, e: int) -> np.ndarray:
    """Companion matrices C of the monic f of degree e whose lower
    coefficients are the digits of each code: row j of C holds the
    coefficients of x^(j+1) mod f, so C^n multiplies by x^n."""
    c = np.zeros((len(codes), e, e))
    c[:, :-1, 1:] = np.eye(e - 1)
    c[:, -1] = -_digit_rows(codes, p, e) % p
    return c


def _as_int(value, name: str) -> int:
    """value as an int, from an int or a numpy integer; anything else,
    bool included, raises a TypeError that names the argument."""
    if type(value) is int:   # the common case, first
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got "
                        f"{type(value).__name__} {value!r}")
    return operator.index(value)


def _code(x):
    """A code as a Python int (from an int, a numpy scalar or a 0-d array);
    an array of codes as it is."""
    return x if type(x) is int or np.ndim(x) else int(x)


# --------------------------------------------------------------------------
# FieldCtx
# --------------------------------------------------------------------------


class FieldCtx:
    """A realized finite field F_{p^e}; see the module docstring.

    Attributes:
        p, e, q: characteristic, extension degree, and q = p**e.
        modulus: monic irreducible coefficient tuple, low-to-high degree.
        g: code of the fixed multiplicative generator.
        exp_table: ``exp_table[i]`` is the code of ``g**i``, length q-1.
        log_table: inverse of ``exp_table``, length q; entry 0 holds the
            sentinel -1.
        trace_table: F_p-valued trace of every element, indexed by code,
            length q.
        one_minus_log: ``one_minus_log[i] = dlog(1 - g**i)``, length q-1,
            with sentinel -1 at i = 0 (where 1 - g**0 = 0); on an
            extension field also the Zech logarithm table of ``add``,
            ``sub`` and ``neg``.
        _digits, _pows: always None; the field keeps no digit table.

    The four tables are read-only int32 arrays: every entry lies in
    [-1, q) and q <= 2^30 (see the module docstring).
    """

    __slots__ = (
        "p", "e", "q", "modulus", "g",
        "exp_table", "log_table", "trace_table", "one_minus_log",
        "_digits", "_pows", "__weakref__",
    )

    def __init__(self, p: int, e: int, modulus: tuple[int, ...], g: int,
                 exp_table: np.ndarray):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self.g = g
        self.exp_table = exp_table
        log_table = np.full(self.q, -1, dtype=np.int32)
        log_table[exp_table] = np.arange(self.q - 1, dtype=np.int32)
        self.log_table = log_table
        digit = np.arange(p, dtype=np.int32)
        self._digits = self._pows = None
        if e == 1:
            one_minus = 1 - exp_table
            one_minus %= p
        else:
            # 1 - x has digit 0 equal to 1 - c_0 and digit i > 0 equal to -c_i.
            pows = p ** np.arange(e, dtype=np.int32)
            one_minus = _digit_sum([(int(i == 0) - digit) % p * w
                                    for i, w in enumerate(pows)])[exp_table]
        self.one_minus_log = log_table.take(one_minus)
        self.trace_table = digit  # the trace of a prime field is the code
        if e > 1:
            # tr(x^j) = sum_i (x^j)^(p^i) lies in F_p, so its code is the
            # trace itself; the trace of any code is linear in its digits.
            # The sum runs through add, so one_minus_log comes first.  A
            # digit times a trace is below p^2 <= q.
            conjugates = (self.pow_elem(pows, p**i) for i in range(e))
            traces = reduce(self.add, conjugates)
            self.trace_table = _digit_sum([digit * t % p for t in traces]) % p
        for table in (exp_table, log_table, self.trace_table,
                      self.one_minus_log):
            table.setflags(write=False)

    @property
    def nbytes(self) -> int:
        """Bytes of the four tables: 16 per element of F_q."""
        return sum(t.nbytes for t in (self.exp_table, self.log_table,
                                      self.trace_table, self.one_minus_log))

    # -- arithmetic on codes (accept and return ints or numpy arrays) ------

    def add(self, u, v):
        if self.e == 1:
            return _code((u + v) % self.p)
        return self._zech(u, v, (self.q - 1) // 2)

    def sub(self, u, v):
        if self.e == 1:
            return _code((u - v) % self.p)
        return self._zech(u, v, 0)

    def neg(self, u):
        if self.e == 1:
            return _code((-u) % self.p)
        return self.mul(int(self.exp_table[(self.q - 1) // 2]), u)  # -1 · u

    def _zech(self, u, v, shift: int):
        """u - g^shift·v on an extension field, by Zech logarithms (see the
        module docstring); shift is 0 for u - v and (q-1)/2 for u + v."""
        n = self.q - 1
        log = self.log_table
        u = np.asarray(u)
        v = np.asarray(v)
        lu = log.take(u)
        idx = log.take(v) - lu
        if shift:
            idx += shift
        idx %= n
        idx = self.one_minus_log.take(idx)
        cancel = idx < 0
        idx += lu
        idx %= n
        out = np.where(cancel, 0, self.exp_table.take(idx))
        if not v.all():
            out = np.where(v == 0, u, out)
        if not u.all():
            out = np.where(u == 0, v if shift else self.neg(v), out)
        return _code(out)

    def mul(self, u, v):
        if np.isscalar(u) and np.isscalar(v):
            if u == 0 or v == 0:
                return 0
            idx = (self.log_table[u] + self.log_table[v]) % (self.q - 1)
            return int(self.exp_table[idx])
        u = np.asarray(u)
        v = np.asarray(v)
        idx = (self.log_table[u] + self.log_table[v]) % (self.q - 1)
        out = self.exp_table[idx]
        return np.where((u == 0) | (v == 0), 0, out)

    def inv(self, u: int) -> int:
        if u == 0:
            raise LogOfZero()
        return int(self.exp_table[(-self.log_table[u]) % (self.q - 1)])

    def pow_elem(self, u, n: int):
        """u raised to an integer power n (with 0**0 = 1).

        A nonzero u has order dividing q - 1, so n is reduced mod q - 1
        first: the int64 product of n with a log then stays below q², which
        an unreduced n could wrap or not fit.  0**n is decided by n itself.
        """
        zero_pow = 1 if n == 0 else 0
        n %= self.q - 1
        if np.isscalar(u):
            if u == 0:
                return zero_pow
            return int(self.exp_table[(n * int(self.log_table[u])) % (self.q - 1)])
        u = np.asarray(u)
        idx = (n * self.log_table[u].astype(np.int64)) % (self.q - 1)
        return np.where(u == 0, zero_pow, self.exp_table[idx])

    def from_int(self, n: int) -> int:
        """Embed a rational integer via the prime subfield."""
        return n % self.p

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldCtx(q={self.q}={self.p}^{self.e}, g={self.g})"


# --------------------------------------------------------------------------
# Construction
# --------------------------------------------------------------------------


def _find_modulus(p: int, e: int) -> tuple[tuple[int, ...], np.ndarray]:
    """First monic irreducible f of degree e in ascending code order, and
    its companion matrix C.

    Rabin's test, on a batch of candidates at once, each test on the
    survivors of the last.  C^(p^e) = C says x^(p^e) = x mod f: f is
    squarefree and its factors have degrees dividing e, so F_p[x]/(f) is a
    product of fields whose unit groups have orders dividing p^e - 1.  Then
    f is irreducible iff, for each prime r | e, x^(p^(e/r)) - x is a unit
    (no factor has degree dividing e/r), that is, iff its matrix raised to
    p^e - 1 is I.
    """
    eye = np.eye(e)
    for codes in _batches(0, p**e, 16):  # F_p[x] has irreducibles of degree e
        c = _companions(codes, p, e)
        keep = (_matpow(c, p**e, p) == c).all(axis=(1, 2))
        for r in prime_factors(e):
            codes, c = codes[keep], c[keep]
            x = np.remainder(_matpow(c, p**(e // r), p) - c, p)
            keep = (_matpow(x, p**e - 1, p) == eye).all(axis=(1, 2))
        codes, c = codes[keep], c[keep]
        if len(codes):
            return (*_coeffs(int(codes[0]), p, e), 1), c[0]


def _exp_table(m: np.ndarray, q: int, p: int) -> np.ndarray:
    """Codes of g^0, ..., g^(q-2), where m multiplies by g.

    Row i of ``rows`` holds the coefficients of g^i; the first s rows
    times m^s give the next s, so the table doubles at every step.
    """
    e = len(m)
    rows = np.zeros((q - 1, e))
    rows[0, 0] = 1
    m = np.asarray(m, dtype=np.float64)
    s = 1
    while s < q - 1:
        n = min(s, q - 1 - s)
        _mod(np.matmul(rows[:n], m, out=rows[s:s + n]), p)
        m = _mod(m @ m, p)
        s += n
    return (rows @ p ** np.arange(e, dtype=np.float64)).astype(np.int32)


def _power_table(g: int, p: int) -> np.ndarray:
    """g^0, ..., g^(p-2) mod p: the prime field's exp table, doubled like
    :func:`_exp_table` on the 1 x 1 matrix [[g]].  The table is int32;
    each product g^s·g^i (below p^2) is taken in an int64 buffer."""
    table = np.empty(p - 1, dtype=np.int32)
    table[0] = 1
    prod = np.empty((p - 1) // 2, dtype=np.int64)
    s = 1
    while s < p - 1:
        n = min(s, p - 1 - s)
        np.multiply(table[:n], g, out=prod[:n], dtype=np.int64)
        np.remainder(prod[:n], p, out=table[s:s + n])
        g = g * g % p
        s += n
    return table


def _find_generator(p: int, e: int, c: np.ndarray) -> tuple[int, np.ndarray]:
    """Least code of order p^e - 1 in F_p[x]/(f), where C is the companion
    matrix of f, and its multiplication matrix sum_j c_j·C^j."""
    q = p**e
    eye = np.eye(e)
    powers = list(accumulate([c] * (e - 1), lambda a, b: _mod(a @ b, p),
                             initial=eye))
    factors = prime_factors(q - 1)
    for codes in _batches(2, q, 64):  # a generator exists below q
        mats = _mod(np.tensordot(_digit_rows(codes, p, e), powers, 1), p)
        for r in factors:  # each prime tests only the survivors so far
            unit = (_matpow(mats, (q - 1) // r, p) == eye).all(axis=(1, 2))
            codes, mats = codes[~unit], mats[~unit]
        if len(codes):
            return int(codes[0]), mats[0]


def _build_tables(p: int, e: int) -> FieldCtx:
    """A new F_{p^e}, outside the cache and unchecked."""
    if e == 1:
        g = least_primitive_root(p)
        return FieldCtx(p, 1, ((-g) % p, 1), g, _power_table(g, p))
    modulus, c = _find_modulus(p, e)
    g, m = _find_generator(p, e, c)
    return FieldCtx(p, e, modulus, g, _exp_table(m, p**e, p))


# --------------------------------------------------------------------------
# The field cache
# --------------------------------------------------------------------------


class CacheInfo(NamedTuple):
    """Counters of the field cache; see :func:`cache_info`."""

    hits: int
    misses: int
    evictions: int
    bytes: int
    cap: int


class _FieldCache:
    """One least-recently-used cache of fields and the rings built on them.

    ``entries`` maps each cached field to the dict of its rings, keyed as
    :func:`~hypercount.values.get_ring` keys them, least recently used
    first; a lookup of a field or of one of its rings moves the field
    last.  A ring owns every array it caches (Gauss table, roots, series
    spectra and coefficient vectors, binomial columns, the decomposition
    table), so an evicted field takes them with it.

    Bytes are measured only when a field or ring is added, and only for
    the fields used since their last measurement (a ring's arrays grow
    while it is in use): each lookup marks its own field and the one most
    recently used before it, whose last use it ends.  Then the least
    recently used fields are evicted until the total is at most ``cap`` or
    one field is left.  So after each addition the cache holds at most
    ``cap`` bytes besides its most recently used field, which it always
    keeps.  Lookups that hit measure nothing.  A ring that a caller holds
    and fills without a lookup is counted at its last measurement until
    its field is next looked up; evicting that field would free nothing
    anyway.

    ``_live`` maps (p, e) to every field built here, and (field, key) to
    every ring, weakly.  A field or ring a caller still holds is thus
    returned again after its eviction, not rebuilt: characters, series and
    ring values made before an eviction still mix with those made after it
    without :class:`~hypercount.errors.MixedFieldContexts`.  :meth:`clear`
    forgets every field and ring, held or not, and zeroes the counters.

    One lock guards each lookup, builds included.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.entries: OrderedDict[FieldCtx, _Rings] = OrderedDict()
        self._live = weakref.WeakValueDictionary()
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = 0

    def field(self, p: int, e: int) -> FieldCtx:
        with self._lock:
            ctx = self._live.get((p, e))
            if ctx is None:
                ctx = self._live[p, e] = _build_tables(p, e)
                self.misses += 1
            else:
                self.hits += 1
            self._entry(ctx)
            return ctx

    def ring(self, ctx: FieldCtx, key, make):
        """The ring cached on ctx under key, or ``make()`` cached there."""
        with self._lock:
            rings = self._entry(ctx)
            ring = rings.get(key) or self._live.get((ctx, key))
            if ring is None:
                ring = self._live[ctx, key] = make()
                self.misses += 1
            else:
                self.hits += 1
            if key not in rings:
                rings[key] = ring
                self._shrink()
            return ring

    def _entry(self, ctx: FieldCtx) -> _Rings:
        """ctx's rings, with ctx moved, or added, last."""
        entries = self.entries
        if entries:   # the field in use until now may have grown
            entries[next(reversed(entries))].nbytes = None
        rings = entries.get(ctx)
        if rings is None:
            rings = entries[ctx] = _Rings()
            self._shrink()
        else:
            entries.move_to_end(ctx)
            rings.nbytes = None
        return rings

    def _shrink(self) -> None:
        total = 0
        for ctx, rings in self.entries.items():
            if rings.nbytes is None:
                rings.nbytes = _held_bytes(ctx, rings)
            total += rings.nbytes
        while total > self.cap and len(self.entries) > 1:
            _, rings = self.entries.popitem(last=False)
            total -= rings.nbytes
            self.evictions += 1

    def info(self) -> CacheInfo:
        with self._lock:
            held = sum(_held_bytes(*entry) for entry in self.entries.items())
            return CacheInfo(self.hits, self.misses, self.evictions, held,
                             self.cap)

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self._live.clear()
            self.hits = self.misses = self.evictions = 0


class _Rings(dict):
    """A cached field's rings by key, and ``nbytes``: the bytes of the
    field and its rings when last measured, or None to measure again."""

    __slots__ = ("nbytes",)

    def __init__(self):
        self.nbytes = None


def _held_bytes(ctx: FieldCtx, rings: dict) -> int:
    return ctx.nbytes + sum(ring.nbytes for ring in rings.values())


_CACHE = _FieldCache(CACHE_BYTES)


def cache_info() -> CacheInfo:
    """Counters of the cache that :func:`build_field` and
    :func:`~hypercount.values.get_ring` share: ``hits``, lookups answered
    without a build; ``misses``, fields and rings built; ``evictions``,
    fields dropped with their rings; ``bytes`` held, measured now; and the
    ``cap``, ``CACHE_BYTES``."""
    return _CACHE.info()


def _build_field_cached(p: int, e: int) -> FieldCtx:
    """The cached build, under the name and interface of the
    ``functools.lru_cache`` it replaced, which the benchmark reads:
    ``cache_info().misses`` counts builds, and ``cache_clear()`` forgets
    every field and ring."""
    return _CACHE.field(p, e)


_build_field_cached.cache_info = cache_info
_build_field_cached.cache_clear = _CACHE.clear


def build_field(p: int, e: int = 1,
                table_budget: int = DEFAULT_TABLE_BUDGET) -> FieldCtx:
    """Construct F_{p^e} with all lookup tables, or return it from the
    field cache (see the module docstring).

    p and e must be integers: a numpy integer is converted, and anything
    else, a float or a bool included, is refused.

    Raises:
        TypeError: if p or e is not an integer.
        NotPrime: if p is not an odd prime.
        TableBudgetExceeded: if p**e exceeds ``table_budget`` or
            ``MAX_FIELD_SIZE``, before any table is allocated; the error's
            budget is the smaller of the two.
        ValueError: if e < 1.
    """
    p, e = _as_int(p, "p"), _as_int(e, "e")
    if e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    if p == 2 or not is_prime(p):
        raise NotPrime(p)
    table_budget = min(table_budget, MAX_FIELD_SIZE)
    if e > table_budget.bit_length():  # p**e >= 3**e > table_budget
        raise TableBudgetExceeded(f"{format_int(p)}^{format_int(e)}",
                                  table_budget)
    if p**e > table_budget:
        raise TableBudgetExceeded(p**e, table_budget)
    return _CACHE.field(p, e)


# --------------------------------------------------------------------------
# Module-level operations
# --------------------------------------------------------------------------


def check_code(ctx: FieldCtx, x: int, name: str = "x") -> None:
    """Refuse x with ValueError unless it is a field-element code in [0, q)."""
    if not 0 <= x < ctx.q:
        raise ValueError(f"{name}={x} is not a field-element code in "
                         f"[0, {ctx.q})")


def dlog(ctx: FieldCtx, x: int) -> int:
    """Discrete log base g of a nonzero element code."""
    if type(x) is not int:
        x = _as_int(x, "x")
    if not 0 < x < ctx.q:  # one comparison on the warm count path
        if x == 0:
            raise LogOfZero()
        check_code(ctx, x)
    return int(ctx.log_table[x])


def trace_map(ctx: FieldCtx, alpha: int) -> int:
    """F_p-valued field trace of an element code, as an int in [0, p)."""
    alpha = _as_int(alpha, "alpha")
    check_code(ctx, alpha, "alpha")
    return int(ctx.trace_table[alpha])
