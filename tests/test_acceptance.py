"""Acceptance suite: one test per shipping criterion.

Every criterion prints exactly one ``[criterion NN] PASS/FAIL`` line on
the real terminal (bypassing capture), runs the exact backend as the
primary assertion route, repeats each computation on the float backend,
and feeds an agreement tally that criterion 10 reports.

Tolerances are pinned here and nowhere else:

* exact backend — literal integer equality, zero identity mismatches;
* float backend — identity residuals below 1e-9 (scaled by each
  identity's natural magnitude), integer lifting within 1e-6.
"""

import random
from contextlib import contextmanager
from functools import lru_cache

import pytest
import sympy

from hypercount import (
    CurveParams,
    NonIntegerResult,
    brute_count,
    build_field,
    count_points,
    cubic_discriminant_linear,
    cubic_discriminant_quadratic,
    davenport_hasse_products,
    decompose_theta_sum,
    get_ring,
    hasse_bound,
    quadratic_sign,
    required_congruence,
    trace_frobenius_linear,
    trace_frobenius_quadratic,
    verify_davenport_hasse,
    verify_lemmas,
)

GRID_MAX = 1500
EXHAUSTIVE_MAX = 100
SAMPLES = 20
SEED = 20260814
FLOAT_RESIDUAL_CAP = 1e-9

#: Extension fields exercised by criterion 4.
PRIME_POWERS = ((5, 2), (7, 2), (11, 2), (13, 2))  # 25, 49, 121, 169

#: Cross-backend tally consumed by criterion 10.
AGREEMENT = {"values": 0, "mismatches": 0, "non_integer": 0}


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------

@contextmanager
def announce(capsys, num, label):
    """Guarantee one visible [criterion NN] PASS/FAIL line per test."""
    info = {}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {num:02d}] FAIL {label}")
        raise
    detail = info.get("detail", "")
    with capsys.disabled():
        tail = f": {detail}" if detail else ""
        print(f"[criterion {num:02d}] PASS {label}{tail}")


@lru_cache(maxsize=None)
def odd_prime_powers(limit):
    out = []
    for q in range(3, limit + 1, 2):
        factors = sympy.factorint(q)
        if len(factors) == 1 and 2 not in factors:
            out.append(q)
    return tuple(out)


@lru_cache(maxsize=None)
def prime_grid(mod, limit=GRID_MAX):
    """Primes q <= limit with q = 1 (mod mod)."""
    return tuple(q for q in odd_prime_powers(limit)
                 if q % mod == 1 and sympy.isprime(q))


@lru_cache(maxsize=None)
def field(q):
    (p, e), = sympy.factorint(q).items()
    return build_field(p, e)


def rings(ctx):
    return get_ring(ctx, "exact"), get_ring(ctx, "float")


def pairs(q, d, family):
    """Exhaustive (a, b) below EXHAUSTIVE_MAX, else a seeded sample."""
    if q <= EXHAUSTIVE_MAX:
        return [(a, b) for a in range(1, q) for b in range(1, q)]
    rng = random.Random(f"{SEED}:{q}:{d}:{family}")
    return [(rng.randrange(1, q), rng.randrange(1, q))
            for _ in range(SAMPLES)]


def agree(n_exact: int, n_float: int) -> None:
    AGREEMENT["values"] += 1
    if n_exact != n_float:
        AGREEMENT["mismatches"] += 1
        raise AssertionError(
            f"backend disagreement: exact={n_exact} float={n_float}")


def float_call(fn, *args, **kwargs):
    """Run a float-backend computation, tallying failed integer lifts."""
    try:
        return fn(*args, **kwargs)
    except NonIntegerResult:
        AGREEMENT["non_integer"] += 1
        raise


def lift_float(value):
    return float_call(value.lift_int)


def both_counts(ctx, curve):
    """Exact-backend count, float cross-checked and tallied."""
    ring_e, ring_f = rings(ctx)
    res_e = count_points(ctx, curve, ring=ring_e)
    res_f = float_call(count_points, ctx, curve, ring=ring_f)
    agree(res_e.n_points, res_f.n_points)
    return res_e


def run_count_grid(qs, d, family):
    """Theorem-vs-oracle over whole fields; returns (n_fields, n_curves)."""
    n_curves = 0
    for q in qs:
        ctx = field(q)
        for a, b in pairs(q, d, family):
            curve = CurveParams(family, d, a, b)
            res = both_counts(ctx, curve)
            n_oracle = brute_count(ctx, curve)
            assert res.n_points == n_oracle, (q, family, d, a, b)
            n_curves += 1
    return len(qs), n_curves


# ---------------------------------------------------------------------------
# Criteria 1-3: closed-form counts against the oracle
# ---------------------------------------------------------------------------

def test_criterion_01_family_a_even_counts(capsys):
    with announce(capsys, 1, "family A even-degree counts equal the "
                             "oracle") as info:
        f4, c4 = run_count_grid(prime_grid(24), 4, "A")
        f2, c2 = run_count_grid(prime_grid(4), 2, "A")
        info["detail"] = (f"d=4 on {f4} fields, d=2 on {f2} fields, "
                          f"{c4 + c2} curves, exact==float==oracle")


def test_criterion_02_family_a_odd_counts(capsys):
    with announce(capsys, 2, "family A odd-degree counts equal the "
                             "oracle") as info:
        assert {41, 241, 281, 401} <= set(prime_grid(40))
        f3, c3 = run_count_grid(prime_grid(12), 3, "A")
        f5, c5 = run_count_grid(prime_grid(40), 5, "A")
        info["detail"] = (f"d=3 on {f3} fields, d=5 on {f5} fields, "
                          f"{c3 + c5} curves, exact==float==oracle")


def weak_congruence_fields():
    """Primes with q = 1 (mod 6) but q != 1 (mod 12), q <= 200."""
    return tuple(q for q in prime_grid(6, 200) if q % 12 != 1)


def test_criterion_03_family_b_counts(capsys):
    with announce(capsys, 3, "family B counts equal the oracle, including "
                             "the weaker odd-degree congruence") as info:
        f4, c4 = run_count_grid(prime_grid(24), 4, "B")
        f2, c2 = run_count_grid(prime_grid(4), 2, "B")
        f3, c3 = run_count_grid(prime_grid(12), 3, "B")
        f5, c5 = run_count_grid(prime_grid(40), 5, "B")
        weak = weak_congruence_fields()
        assert {7, 19, 31} <= set(weak)
        fw, cw = run_count_grid(weak, 3, "B")
        # d=5 at q = 1 (mod 20) but not (mod 40): same weaker-congruence
        # point, one degree up.
        fv, cv = run_count_grid((61, 101, 181), 5, "B")
        info["detail"] = (f"even d on {f4 + f2} fields, odd d on "
                          f"{f3 + f5} fields, weak congruence on "
                          f"{fw + fv} fields, "
                          f"{c4 + c2 + c3 + c5 + cw + cv} curves")


def test_criterion_04_prime_power_fields(capsys):
    with announce(capsys, 4, "prime-power fields q = 25, 49, 121, 169 "
                             "run through every admissible count") as info:
        n_curves = 0
        n_combos = 0
        for p, e in PRIME_POWERS:
            q = p**e
            ctx = field(q)
            assert ctx.e == e >= 2  # the nontrivial trace maps
            for family in "AB":
                for d in (2, 3, 4, 5):
                    if (q - 1) % required_congruence(family, d):
                        continue
                    n_combos += 1
                    for a, b in pairs(q, d, family):
                        curve = CurveParams(family, d, a, b)
                        res = both_counts(ctx, curve)
                        assert res.n_points == brute_count(ctx, curve), \
                            (q, family, d, a, b)
                        n_curves += 1
        # q=121 must reach degree 5 (120 = 0 mod 40); all four reach d=4.
        assert (121 - 1) % 40 == 0
        info["detail"] = (f"4 extension fields, {n_combos} "
                          f"(family, degree) combos, {n_curves} curves")


def test_criterion_05_families_coincide_at_unit_square_b(capsys):
    with announce(capsys, 5, "families A and B agree for d=4 whenever "
                             "b² = 1 with b a square") as info:
        fields_run = 0
        checks = 0
        for q in prime_grid(24, 500):
            ctx = field(q)
            bs = [b for b in (1, q - 1)
                  if ctx.mul(b, b) == 1 and quadratic_sign(ctx, b) == 1]
            assert bs == [1, q - 1]  # q = 1 (mod 4) makes -1 a square
            rng = random.Random(f"{SEED}:{q}:coincide")
            fields_run += 1
            for b in bs:
                for _ in range(SAMPLES):
                    a = rng.randrange(1, q)
                    res_a = both_counts(ctx, CurveParams("A", 4, a, b))
                    res_b = both_counts(ctx, CurveParams("B", 4, a, b))
                    assert res_a.n_points == res_b.n_points, (q, a, b)
                    checks += 1
        info["detail"] = (f"{fields_run} fields, {checks} coefficient "
                          f"pairs, N_A == N_B throughout")


# ---------------------------------------------------------------------------
# Criteria 6-8: identity suites
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def identity_fields(limit=200):
    """Every field the count grids touch, capped at ``limit``."""
    qs = set()
    for mod in (4, 12, 24, 40):
        qs.update(prime_grid(mod, limit))
    qs.update(weak_congruence_fields())
    qs.update(q for q in (61, 101, 181) if q <= limit)
    qs.update(p**e for p, e in PRIME_POWERS if p**e <= limit)
    return tuple(sorted(qs))


def test_criterion_06_lemma_suite(capsys):
    with announce(capsys, 6, "foundational lemma suite passes "
                             "exhaustively on every grid field") as info:
        cases = 0
        for q in identity_fields():
            ctx = field(q)
            ring_e, ring_f = rings(ctx)
            for rep_e, rep_f in zip(verify_lemmas(ctx, ring_e),
                                    verify_lemmas(ctx, ring_f)):
                assert rep_e.mismatch_count == 0, (q, rep_e)
                assert rep_e.worst_residual == 0.0
                assert rep_f.mismatch_count == 0, (q, rep_f)
                assert rep_f.worst_residual < FLOAT_RESIDUAL_CAP, (q, rep_f)
                agree(rep_e.cases, rep_f.cases)
                cases += rep_e.cases
        info["detail"] = (f"{len(identity_fields())} fields <= 200, "
                          f"{cases} exhaustive identity cases, "
                          f"0 mismatches")


def test_criterion_07_gauss_product_relations(capsys):
    with announce(capsys, 7, "Gauss-sum product relations hold for every "
                             "divisor, character, offset, and "
                             "direction") as info:
        product_cases = 0
        for q in identity_fields():
            ctx = field(q)
            ring_e, ring_f = rings(ctx)
            Q = q - 1
            for m in sympy.divisors(Q):
                bulk_e = davenport_hasse_products(ctx, m, ring_e)
                bulk_f = davenport_hasse_products(ctx, m, ring_f)
                assert bulk_e.mismatch_count == 0, (q, m, bulk_e)
                assert bulk_e.worst_residual == 0.0
                assert bulk_f.mismatch_count == 0, (q, m, bulk_f)
                assert bulk_f.worst_residual < FLOAT_RESIDUAL_CAP, \
                    (q, m, bulk_f)
                agree(bulk_e.cases, bulk_f.cases)
                product_cases += bulk_e.cases
                # Scalar route for a deterministic handful of characters.
                for psi in range(0, Q, max(1, Q // 4)):
                    reps = verify_davenport_hasse(ctx, m, psi, ring_e)
                    assert all(r.passed for r in reps), (q, m, psi)
        progression_cases = 0
        for d, mod in ((2, 4), (3, 12), (4, 24), (5, 40)):
            for q in prime_grid(mod):
                ctx = field(q)
                ring_e, ring_f = rings(ctx)
                prog_e = verify_davenport_hasse(ctx, d, 1, ring_e)[1]
                prog_f = verify_davenport_hasse(ctx, d, 1, ring_f)[1]
                for prog, cap in ((prog_e, 0.0), (prog_f,
                                                  FLOAT_RESIDUAL_CAP)):
                    assert prog.identity == "gauss_product_progression"
                    assert prog.cases == 2 * (q - 1)  # all l, both t
                    assert prog.mismatch_count == 0, (d, q, prog)
                    assert prog.worst_residual <= cap, (d, q, prog)
                agree(prog_e.cases, prog_f.cases)
                progression_cases += 2 * (q - 1)
        info["detail"] = (f"{product_cases} product cases on fields <= "
                          f"200, {progression_cases} progression cases "
                          f"across the full grids, 0 mismatches")


def decomposition_curves(q):
    """Criterion-8 curve set: exhaustive tiny fields, samples elsewhere."""
    out = []
    for family in "AB":
        for d in (2, 3, 4, 5):
            if (q - 1) % required_congruence(family, d):
                continue
            if q <= 50:
                coeff_pairs = [(a, b) for a in range(1, q)
                               for b in range(1, q)]
            else:
                rng = random.Random(f"{SEED}:{q}:{d}:{family}:decompose")
                coeff_pairs = [(rng.randrange(1, q), rng.randrange(1, q))
                               for _ in range(SAMPLES)]
            out.extend(CurveParams(family, d, a, b)
                       for a, b in coeff_pairs)
    return out


def test_criterion_08_decomposition_waypoints(capsys):
    with announce(capsys, 8, "additive-character decomposition waypoints "
                             "hold on every grid curve") as info:
        n_curves = 0
        for q in identity_fields():
            ctx = field(q)
            ring_e, ring_f = rings(ctx)
            for curve in decomposition_curves(q):
                rep_e = decompose_theta_sum(ctx, curve, ring_e)
                rep_f = float_call(decompose_theta_sum, ctx, curve, ring_f)
                phi_b = quadratic_sign(ctx, curve.b)
                assert rep_e.z_sum.lift_int() == -1
                assert rep_e.yz_sum.lift_int() == 1 + q * phi_b
                n_direct = brute_count(ctx, curve)
                assert rep_e.n_reconstructed == n_direct, curve
                agree(rep_e.yz_sum.lift_int(), lift_float(rep_f.yz_sum))
                agree(rep_e.n_reconstructed, rep_f.n_reconstructed)
                # q*N = q^2 + q*phi(b) + D, D the quadratic component.
                total = q * q + q * phi_b + rep_e.quad_component
                assert total.divide_by_q().lift_int() == n_direct, curve
                agree(rep_e.quad_component.lift_int(),
                      lift_float(rep_f.quad_component))
                n_curves += 1
        info["detail"] = (f"{n_curves} curves on "
                          f"{len(identity_fields())} fields, "
                          f"z=-1, yz=1+q·phi(b), q·N reconstructed "
                          f"exactly")


# ---------------------------------------------------------------------------
# Criterion 9: Frobenius traces
# ---------------------------------------------------------------------------

def test_criterion_09_frobenius_traces(capsys):
    with announce(capsys, 9, "Frobenius traces equal the count deficit "
                             "and obey the Hasse bound") as info:
        checks = 0
        linear_fields = [q for q in odd_prime_powers(500) if q % 12 == 1]
        quadratic_fields = [q for q in odd_prime_powers(500) if q % 6 == 1]
        for q in linear_fields:
            ctx = field(q)
            ring_e, ring_f = rings(ctx)
            rng = random.Random(f"{SEED}:{q}:trace_linear")
            for _ in range(SAMPLES):
                a, b = rng.randrange(1, q), rng.randrange(1, q)
                t = trace_frobenius_linear(ctx, a, b, ring=ring_e)
                agree(t, float_call(trace_frobenius_linear, ctx, a, b,
                                    ring=ring_f))
                n = brute_count(ctx, CurveParams("A", 3, a, b))
                assert t == q - n, (q, a, b)
                if cubic_discriminant_linear(ctx, a, b) != 0:
                    assert abs(t) <= hasse_bound(q), (q, a, b)
                checks += 1
        for q in quadratic_fields:
            ctx = field(q)
            ring_e, ring_f = rings(ctx)
            rng = random.Random(f"{SEED}:{q}:trace_quadratic")
            for _ in range(SAMPLES):
                a, b = rng.randrange(1, q), rng.randrange(1, q)
                t = trace_frobenius_quadratic(ctx, a, b, ring=ring_e)
                agree(t, float_call(trace_frobenius_quadratic, ctx, a, b,
                                    ring=ring_f))
                n = brute_count(ctx, CurveParams("B", 3, a, b))
                assert t == q - n, (q, a, b)
                if cubic_discriminant_quadratic(ctx, a, b) != 0:
                    assert abs(t) <= hasse_bound(q), (q, a, b)
                checks += 1
        info["detail"] = (f"{len(linear_fields)} + "
                          f"{len(quadratic_fields)} fields <= 500, "
                          f"{checks} traces, deficit and bound verified")


# ---------------------------------------------------------------------------
# Criterion 10: backend agreement
# ---------------------------------------------------------------------------

def test_criterion_10_backend_agreement(capsys):
    with announce(capsys, 10, "exact and float backends agree on every "
                              "lifted value") as info:
        # Standalone spot checks so this criterion is meaningful even in
        # isolation; the module-level tally covers the full session.
        for q, family, d in ((73, "A", 4), (41, "B", 5), (121, "A", 5),
                             (13, "B", 3)):
            ctx = field(q)
            both_counts(ctx, CurveParams(family, d, 2, 3))
        assert AGREEMENT["mismatches"] == 0
        assert AGREEMENT["non_integer"] == 0
        assert AGREEMENT["values"] >= 4
        info["detail"] = (f"{AGREEMENT['values']} values cross-checked "
                          f"this session, 0 disagreements, "
                          f"0 non-integer lifts")
