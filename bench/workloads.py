"""The benchmark's workloads, their operations and their output checks.

A workload is made from a seed, does its set-up once and then runs whole
rounds of the same operations.  One operation is one call timed on one
backend.  Its outputs are checked against computations that share no
code with the closed forms: brute force by discrete-log parity, Gauss
sums summed literally from the field tables, and the case counts and
pass flags the identities must have.  A failed check, or an exception,
counts the operation as failed and the run goes on.

Every call into the package goes through an attribute of ``hypercount``
looked up at call time, so that a tracer can wrap it (see ``spans.py``).
"""

from __future__ import annotations

import gc
import math
import random
import sys
import time
import traceback

import numpy as np
import sympy

import hypercount as hc
from hypercount import ffield, values

BACKENDS = ("float", "exact")
DEGREES = (2, 3, 4, 5)


class Tally:
    """Operations attempted and failed, and the time each one took.

    ``times`` holds (backend, seconds) per operation, in call order, since
    the last :meth:`take_times`; rounds of one workload call the same
    operations in the same order.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.identity_cases = 0
        self.times: list[tuple[str, float]] = []

    def run(self, backend: str, fn, *args, **kwargs):
        """Time ``fn`` as one operation on ``backend``; None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:  # an operation that raises has failed; go on
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.times.append((backend, time.perf_counter() - start))

    def take_times(self) -> list[tuple[str, float]]:
        times, self.times = self.times, []
        return times

    def check(self, ok: bool) -> None:
        """Settle the last operation: count it as failed unless ``ok``."""
        if not ok:
            self.failed += 1


def admissible_pairs(q: int) -> list[tuple[str, int]]:
    """(family, d) with d in 2..5 whose closed form applies over F_q."""
    return [(family, d) for family in "AB" for d in DEGREES
            if (q - 1) % hc.required_congruence(family, d) == 0]


def seeded_curves(seed, tag, q, family, d, count) -> list:
    rng = random.Random(f"{seed}:{tag}:{q}:{family}:{d}")
    return [hc.CurveParams(family, d, rng.randrange(1, q), rng.randrange(1, q))
            for _ in range(count)]


def count_both(tally: Tally, ctx, rings: dict, curve, exact_first: bool):
    """Count one curve on both backends, two operations, and check them.

    Each count must equal ``brute_count`` and the other backend's count.
    """
    order = BACKENDS[::-1] if exact_first else BACKENDS
    n = {}
    for backend in order:
        result = tally.run(backend, hc.count_points, ctx, curve,
                           ring=rings[backend])
        n[backend] = None if result is None else result.n_points
    n_brute = hc.brute_count(ctx, curve)
    for backend in order:
        tally.check(n[backend] == n_brute and n["float"] == n["exact"])
    return n_brute, n["float"], n["exact"]


def gauss_table_ok(ctx, ring, ms) -> bool:
    """Entries ``ms`` of the ring's Gauss table equal literal sums, and
    G_m·G_(−m) = q·(−1)^m for every m ≠ 0.

    The literal sum is G_m = Σ_i ζ_(q−1)^(m·i) · ζ_p^tr(g^i), over the
    field's ``exp_table`` and ``trace_table``.
    """
    q, Q = ctx.q, ctx.q - 1
    G = ring.gauss_array
    traces = ctx.trace_table[ctx.exp_table]
    i = np.arange(Q, dtype=np.int64)
    if ring.backend == "float":
        theta = np.exp(2j * np.pi * traces / ctx.p)
        tol = ring.tolerance * math.sqrt(q)
        for m in ms:
            literal = np.sum(np.exp(2j * np.pi * ((m * i) % Q) / Q) * theta)
            if not abs(literal - G[m]) <= tol:
                return False
        refl = G[1:] * G[:0:-1]
        expect = np.where(i[1:] % 2, -q, q)
        return bool(np.all(np.abs(refl - expect) <= ring.tolerance * q))
    ell = ring.ell
    zq = [int(x) for x in ring.roots_q1]
    theta = [int(ring.roots_p[t]) for t in traces.tolist()]
    for m in ms:
        literal = sum(zq[(m * k) % Q] * theta[k] for k in range(Q)) % ell
        if literal != int(G[m]):
            return False
    g = [int(x) for x in G]
    return all(g[m] * g[Q - m] % ell == (-q if m % 2 else q) % ell
               for m in range(1, Q))


class WarmCounts:
    """Seeded closed-form counts on fields whose caches set-up filled.

    Fields, as (p, e, curves per (family, d) per round):
      601     small prime field;
      7^4     prime-power field (2401), polynomial-coded elements;
      3001    prime field whose exact ``ell`` (49 bits) keeps the uint64 path;
      4201    prime field whose exact ``ell`` (51 bits) passes 2^50, so
              every exact vector product runs on Python objects.
    Every (family, d) with d in 2..5 is admissible on all four (120 | q−1).
    4201 gets one curve per pair against four elsewhere, so its object
    path is about two thirds of exact time rather than nine tenths.
    """

    FIELDS = ((601, 1, 4), (7, 4, 4), (3001, 1, 4), (4201, 1, 1))

    def __init__(self, seed: int):
        self.seed = seed
        self.cases: list = []

    def setup(self) -> None:
        for p, e, per_pair in self.FIELDS:
            ctx = hc.build_field(p, e)
            rings = {b: hc.get_ring(ctx, b) for b in BACKENDS}
            for family, d in admissible_pairs(ctx.q):
                curves = seeded_curves(self.seed, "warm", ctx.q, family, d,
                                       per_pair)
                # Fill the Gauss table, the columns and the coefficient
                # vector of this series on both rings before timing.
                for ring in rings.values():
                    hc.count_points(ctx, curves[0], ring=ring)
                self.cases.extend((ctx, rings, c) for c in curves)

    def reset(self) -> None:
        pass

    def round(self, tally: Tally) -> tuple:
        return tuple(count_both(tally, ctx, rings, curve, i % 2 == 1)
                     for i, (ctx, rings, curve) in enumerate(self.cases))


class ColdStart:
    """First counts on fields the process has not built: build_field +
    get_ring + count_points, as one operation.

    Two ladders that share no field, interleaved rung by rung, as
    (p, e, family, d); each covers every (family, d) with d in 2..5:
      float  up to about 10^5, with five prime-power fields; 17^4 takes
             close to a second to build in the pure-Python polynomial loop;
      exact  up to 3001, whose ``ell`` (49 bits) is the last below 2^50;
             its Gauss table is the O(q^2) uint64 DFT.
    The exact ladder stops short of the object-dtype path: its first
    field, q = 4099, costs about 13 s in one Gauss table, a single sample
    per run whose time varied by a quarter between runs.  warm_counts
    builds one object-path table (q = 4201) in its set-up instead.
    A round takes a few seconds, so that a run holds several.
    ``reset`` forgets every field between rounds, so each round is cold.
    """

    FLOAT_LADDER = ((1201, 1, "A", 5), (13, 3, "B", 3), (9601, 1, "A", 4),
                    (11, 4, "B", 5), (19681, 1, "A", 3), (13, 4, "B", 4),
                    (40801, 1, "B", 2), (37, 3, "A", 2), (17, 4, "A", 4),
                    (100801, 1, "B", 4))
    EXACT_LADDER = ((61, 1, "B", 3), (13, 2, "A", 3), (241, 1, "A", 4),
                    (5, 4, "B", 4), (1321, 1, "A", 5), (1801, 1, "B", 2),
                    (7, 4, "B", 5), (3001, 1, "A", 2))
    GAUSS_SAMPLES = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.rungs: list = []

    def setup(self) -> None:
        ladders = [[("float", rung) for rung in self.FLOAT_LADDER],
                   [("exact", rung) for rung in self.EXACT_LADDER]]
        for i in range(max(map(len, ladders))):
            for ladder in ladders:
                if i < len(ladder):
                    backend, (p, e, family, d) = ladder[i]
                    q = p**e
                    curve, = seeded_curves(self.seed, "cold", q, family, d, 1)
                    rng = random.Random(f"{self.seed}:gauss:{q}")
                    ms = [0, (q - 1) // 2,
                          *rng.sample(range(1, q - 1), self.GAUSS_SAMPLES)]
                    self.rungs.append((backend, p, e, curve, ms))

    def reset(self) -> None:
        """Forget every field and ring, so the next round builds them again.

        Both caches are cleared: a ring refers to its field, so the
        weakly keyed ring cache alone would keep every field alive.
        """
        ffield._build_field_cached.cache_clear()
        values._RING_CACHE.clear()
        gc.collect()

    @staticmethod
    def _first_count(backend, p, e, curve):
        ctx = hc.build_field(p, e)
        ring = hc.get_ring(ctx, backend)
        return ctx, ring, hc.count_points(ctx, curve, ring=ring)

    def round(self, tally: Tally) -> tuple:
        out = []
        for backend, p, e, curve, ms in self.rungs:
            done = tally.run(backend, self._first_count, backend, p, e, curve)
            if done is None:
                tally.check(False)
                out.append(None)
                continue
            ctx, ring, result = done
            n_brute = hc.brute_count(ctx, curve)
            tally.check(result.n_points == n_brute
                        and gauss_table_ok(ctx, ring, ms))
            out.append(result.n_points)
        return tuple(out)


def _lemma_cases(q: int) -> list:
    return [("gauss_reflection", q - 2),
            ("gauss_to_jacobi", (q - 1) * (q - 2)),
            ("orthogonality", 2 * (q - 1)),
            ("theta_from_gauss", q - 1)]


def identity_ops(seed: int, q: int) -> list:
    """What ``hypercount verify`` runs on one field, one tuple per call.

    Each tuple is (kind, argument, the (identity, cases) list the reports
    must show); decompositions are instead checked against brute force.
    """
    ops = [("lemmas", None, _lemma_cases(q))]
    for m in sympy.divisors(q - 1):
        ops.append(("dh_products", m,
                    [("davenport_hasse_product_all_psi", q - 1)]))
        ops.append(("dh_progression", m,
                    [("davenport_hasse_product", 1),
                     ("gauss_product_progression",
                      2 * (q - 1) if m > 1 else 0)]))
    rng = random.Random(f"{seed}:{q}:decompose")
    for d in DEGREES:
        for family in "AB":
            if (q - 1) % hc.required_congruence(family, d) == 0:
                curve = hc.CurveParams(family, d, rng.randrange(1, q),
                                       rng.randrange(1, q))
                ops.append(("decompose", curve, None))
    return ops


def identity_op(tally: Tally, ctx, ring, kind, arg, expect):
    """Run one verifier call as an operation and check its reports."""
    if kind == "decompose":
        rep = tally.run(ring.backend, hc.decompose_theta_sum, ctx, arg, ring)
        n_rec = None if rep is None else rep.n_reconstructed
        tally.check(n_rec == hc.brute_count(ctx, arg))
        return n_rec
    if kind == "lemmas":
        reports = tally.run(ring.backend, hc.verify_lemmas, ctx, ring)
    elif kind == "dh_products":
        rep = tally.run(ring.backend, hc.davenport_hasse_products, ctx, arg,
                        ring)
        reports = None if rep is None else [rep]
    else:
        reports = tally.run(ring.backend, hc.verify_davenport_hasse, ctx,
                            arg, 1, ring)
    if reports is None:
        tally.check(False)
        return None
    tally.identity_cases += sum(r.cases for r in reports)
    seen = [(r.identity, r.cases) for r in reports]
    tally.check(seen == expect and all(r.passed for r in reports))
    return tuple((r.identity, r.cases, r.mismatch_count) for r in reports)


class IdentitySuite:
    """``hypercount verify`` on every odd prime power q < 257, both backends.

    Each verifier call is one operation: ``verify_lemmas``, then
    ``davenport_hasse_products`` and ``verify_davenport_hasse`` at every
    divisor of q−1, then ``decompose_theta_sum`` on one seeded curve per
    admissible (family, d).  The ladder stops below 257 because verify
    overflows from there on.  Set-up builds the fields, both rings, their
    Gauss tables and their z-sum tables (through one decomposition).
    """

    Q_LIMIT = 257

    def __init__(self, seed: int):
        self.seed = seed
        self.fields: list = []

    def setup(self) -> None:
        for q in range(3, self.Q_LIMIT, 2):
            factors = sympy.factorint(q)
            if len(factors) != 1:
                continue
            (p, e), = factors.items()
            ctx = hc.build_field(p, e)
            rings = {b: hc.get_ring(ctx, b) for b in BACKENDS}
            for ring in rings.values():
                ring.gauss_array
                hc.decompose_theta_sum(ctx, hc.CurveParams("A", 2, 1, 1),
                                       ring)
            self.fields.append((ctx, rings, identity_ops(self.seed, q)))

    def reset(self) -> None:
        pass

    def round(self, tally: Tally) -> tuple:
        out = []
        for i, (ctx, rings, ops) in enumerate(self.fields):
            order = BACKENDS[::-1] if i % 2 else BACKENDS
            for kind, arg, expect in ops:
                for backend in order:
                    out.append(identity_op(tally, ctx, rings[backend], kind,
                                           arg, expect))
        return tuple(out)


WORKLOADS = {
    "warm_counts": WarmCounts,
    "cold_start": ColdStart,
    "identity_suite": IdentitySuite,
}


def layer_probe(tally: Tally) -> None:
    """Fixed calls into every layer over F_121, for a traced run whose
    workload does not reach some layer.

    Counts every (family, d) on both backends, runs the per-field identity
    ops on both, and builds one Gauss table on the object path through an
    exact ring sized for degree 11 (its ``ell`` has 51 bits).
    """
    ctx = hc.build_field(11, 2)
    rings = {b: hc.get_ring(ctx, b) for b in BACKENDS}
    for i, (family, d) in enumerate(admissible_pairs(ctx.q)):
        curve, = seeded_curves(0, "probe", ctx.q, family, d, 1)
        count_both(tally, ctx, rings, curve, i % 2 == 1)
    for kind, arg, expect in identity_ops(0, ctx.q):
        for backend in BACKENDS:
            identity_op(tally, ctx, rings[backend], kind, arg, expect)
    wide = hc.get_ring(ctx, "exact", d_max=11)
    tally.check(gauss_table_ok(ctx, wide, [0, 1, 60]))
