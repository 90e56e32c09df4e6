"""The benchmark's own checks count bad outputs as failed operations.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hypercount as hc  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Tally  # noqa: E402

CURVE = hc.CurveParams("A", 4, 5, 11)


@pytest.fixture
def f73():
    ctx = hc.build_field(73)
    return ctx, {b: hc.get_ring(ctx, b) for b in workloads.BACKENDS}


def _shift_backend(monkeypatch, backends, delta=1):
    """Make count_points on ``backends`` report n_points + delta."""
    real = hc.count_points

    def shifted(ctx, curve, *, ring):
        result = real(ctx, curve, ring=ring)
        if ring.backend in backends:
            result = dataclasses.replace(result,
                                         n_points=result.n_points + delta)
        return result

    monkeypatch.setattr(hc, "count_points", shifted)


def test_correct_counts_pass(f73):
    tally = Tally()
    workloads.count_both(tally, *f73, CURVE, exact_first=False)
    assert (tally.attempted, tally.failed) == (2, 0)


def test_wrong_count_is_failed(f73, monkeypatch):
    _shift_backend(monkeypatch, ("float", "exact"))
    tally = Tally()
    workloads.count_both(tally, *f73, CURVE, exact_first=True)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_backend_disagreement_is_failed(f73, monkeypatch):
    # The exact count is shifted and so is the oracle, so the exact count
    # matches brute force and fails only because the float count differs.
    _shift_backend(monkeypatch, ("exact",))
    real_brute = hc.brute_count
    monkeypatch.setattr(hc, "brute_count",
                        lambda ctx, curve: real_brute(ctx, curve) + 1)
    tally = Tally()
    workloads.count_both(tally, *f73, CURVE, exact_first=False)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_raising_operation_is_failed_and_run_goes_on(f73, monkeypatch):
    def broken(ctx, curve, *, ring):
        raise OverflowError("injected")

    monkeypatch.setattr(hc, "count_points", broken)
    tally = Tally()
    workloads.count_both(tally, *f73, CURVE, exact_first=False)
    assert (tally.attempted, tally.failed) == (2, 2)


def _failing_report(ctx, m, ring):
    return hc.IdentityReport("davenport_hasse_product_all_psi", ctx.q - 1,
                             1, 1.0, ((m, 0),))


def _short_report(ctx, m, ring):
    return hc.IdentityReport("davenport_hasse_product_all_psi", ctx.q - 2,
                             0, 0.0)


@pytest.mark.parametrize("fake", [_failing_report, _short_report])
def test_failing_identity_report_is_failed(f73, monkeypatch, fake):
    ctx, rings = f73
    expect = [("davenport_hasse_product_all_psi", ctx.q - 1)]
    tally = Tally()
    workloads.identity_op(tally, ctx, rings["exact"], "dh_products", 3,
                          expect)
    assert (tally.attempted, tally.failed) == (1, 0)
    monkeypatch.setattr(hc, "davenport_hasse_products", fake)
    workloads.identity_op(tally, ctx, rings["exact"], "dh_products", 3,
                          expect)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_wrong_decomposition_is_failed(f73, monkeypatch):
    ctx, rings = f73
    real = hc.decompose_theta_sum

    def off(ctx, curve, ring):
        rep = real(ctx, curve, ring)
        return dataclasses.replace(rep,
                                   n_reconstructed=rep.n_reconstructed + 1)

    tally = Tally()
    monkeypatch.setattr(hc, "decompose_theta_sum", off)
    workloads.identity_op(tally, ctx, rings["float"], "decompose", CURVE, None)
    assert (tally.attempted, tally.failed) == (1, 1)


def _fake_ring(ring, table):
    attrs = {k: getattr(ring, k) for k in
             ("backend", "tolerance", "ell", "roots_q1", "roots_p")
             if hasattr(ring, k)}
    return types.SimpleNamespace(gauss_array=table, **attrs)


@pytest.mark.parametrize("backend", workloads.BACKENDS)
def test_gauss_table_check(f73, backend):
    ctx, rings = f73
    ring = rings[backend]
    Q = ctx.q - 1
    ms = [0, 36, 5]
    assert workloads.gauss_table_ok(ctx, ring, ms)

    # A sampled entry off by a root of unity, its mirror off by the
    # inverse: G_m·G_(−m) still holds, only the literal sum catches it.
    twisted = ring.gauss_array.copy()
    if backend == "float":
        twisted[5] *= ring.roots_q1[1]
        twisted[Q - 5] /= ring.roots_q1[1]
    else:
        r = int(ring.roots_q1[1])
        twisted[5] = int(twisted[5]) * r % ring.ell
        twisted[Q - 5] = int(twisted[Q - 5]) * pow(r, -1, ring.ell) % ring.ell
    assert not workloads.gauss_table_ok(ctx, _fake_ring(ring, twisted), ms)

    # An entry that is not sampled: only the reflection identity sees it.
    copied = ring.gauss_array.copy()
    copied[7] = copied[8]
    assert not workloads.gauss_table_ok(ctx, _fake_ring(ring, copied), ms)


def test_self_time_subtracts_direct_children():
    recorded = [("outer", 0.0, 10.0, -1, "round", {}),
                ("child", 1.0, 4.0, 0, "round", {}),
                ("grandchild", 2.0, 3.0, 1, "round", {})]
    assert spans.self_times(recorded) == [7.0, 2.0, 1.0]
