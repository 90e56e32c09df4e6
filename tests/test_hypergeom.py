"""Hypergeometric series evaluation against a from-scratch reference.

The reference evaluator below walks the defining sum character by
character with the definitional Jacobi-sum binomial — no coefficient
caching, no Gauss-table kernels — and an analytic conic count pins the
simplest series in closed form.
"""

import math

import numpy as np
import pytest

from hypercount import (
    ComplexRing,
    HgfSpec,
    MixedFieldContexts,
    MultChar,
    NonIntegerResult,
    ResidueRing,
    binom,
    binom_column,
    build_field,
    eval_char,
    evaluate_hgf,
    get_ring,
    quadratic_char,
    quadratic_sign,
    series_values,
    trivial_char,
)
from hypercount import hypergeom
from hypercount.curvecount import CLOSED_FORMS
from hypercount.hypergeom import _DIRECT_EVALS, coefficient_vector


def reference_hgf(spec, ring):
    """Literal evaluation of the defining sum, one character at a time."""
    ctx = spec.ctx
    Q = ctx.q - 1
    total = ring.zero()
    for j in range(Q):
        chi = MultChar(ctx, j)
        term = binom(spec.tops[0] * chi, chi, ring)
        for top, bot in zip(spec.tops[1:], spec.bottoms):
            term = term * binom(top * chi, bot * chi, ring)
        total = total + term * eval_char(chi, spec.argument, ring)
    scale = (ring.from_int(ctx.q) *
             ring.wrap(ring.inv_int(Q)))
    return total * scale


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_spec_shape_validation(f13, f25):
    eps = trivial_char(f13)
    phi = quadratic_char(f13)
    with pytest.raises(ValueError):
        HgfSpec((phi,), (eps,), 1)  # 1 top needs 0 bottoms
    with pytest.raises(ValueError):
        HgfSpec((phi, eps, eps), (eps,), 1)
    with pytest.raises(MixedFieldContexts):
        HgfSpec((phi, trivial_char(f25)), (eps,), 1)
    with pytest.raises(ValueError):
        HgfSpec((phi, eps), (eps,), 13)
    with pytest.raises(ValueError):
        HgfSpec((phi, eps), (eps,), -1)


@pytest.mark.parametrize("argument", [2.0, True, np.float64(2), "2"])
def test_hgf_spec_refuses_non_integer_arguments(f13, argument):
    # HgfSpec(..., argument=2.0) once built, and evaluate_hgf then ended in
    # numpy's IndexError.
    phi = quadratic_char(f13)
    with pytest.raises(TypeError, match="^argument must be an integer"):
        HgfSpec((phi, trivial_char(f13)), (phi,), argument)


@pytest.mark.parametrize("tops,bottoms", [((1.0, 0), (1,)), ((1, 0), (1.5,)),
                                          ((True, 0), (1,))])
@pytest.mark.parametrize("call", [series_values, coefficient_vector])
def test_series_index_lists_refuse_non_integers(f13, backend, call, tops,
                                                bottoms):
    # series_values(ctx, (1.0, 0), (1,), ring) once ended in numpy's
    # "slice indices must be integers".
    with pytest.raises(TypeError, match="^index must be an integer"):
        call(f13, tops, bottoms, get_ring(f13, backend))


def test_a_ring_of_another_field_is_refused(f13, f25, backend):
    ring = get_ring(f25, backend)
    phi, eps = quadratic_char(f13), trivial_char(f13)
    for argument in (0, 2):
        with pytest.raises(MixedFieldContexts):
            evaluate_hgf(HgfSpec((phi, eps), (phi,), argument), ring)
    with pytest.raises(MixedFieldContexts):
        series_values(f13, (phi.index, 0), (phi.index,), ring)


def test_argument_zero_evaluates_to_zero(f13, backend):
    ring = get_ring(f13, backend)
    spec = HgfSpec((quadratic_char(f13), trivial_char(f13)),
                   (quadratic_char(f13),), 0)
    assert evaluate_hgf(spec, ring) == ring.zero()


# ---------------------------------------------------------------------------
# Agreement with the literal evaluator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(13, 1), (3, 2)])
def test_two_f_one_matches_reference(p, e, backend):
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    tops = (MultChar(ctx, 1), MultChar(ctx, 3))
    bottoms = (MultChar(ctx, 2),)
    for x in range(1, ctx.q):
        spec = HgfSpec(tops, bottoms, x)
        assert evaluate_hgf(spec, ring).isclose(reference_hgf(spec, ring)), x


def test_three_f_two_matches_reference(f13, backend):
    ring = get_ring(f13, backend)
    tops = (MultChar(f13, 6), MultChar(f13, 1), MultChar(f13, 5))
    bottoms = (MultChar(f13, 4), MultChar(f13, 0))
    for x in range(1, f13.q):
        spec = HgfSpec(tops, bottoms, x)
        assert evaluate_hgf(spec, ring).isclose(reference_hgf(spec, ring)), x


# ---------------------------------------------------------------------------
# Analytic pin: the quadratic 2F1 from the conic y^2 = x^2 + ax + b
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(13, 1), (3, 2)])
def test_quadratic_series_has_conic_closed_form(p, e, backend):
    # Completing the square turns y^2 = x^2 + ax + b into y^2 - u^2 = c
    # with c = b - a^2/4, which has q - 1 solutions when c != 0 and
    # 2q - 1 when c = 0.  Matching against
    #   N = q + phi(b) + q*phi(b)*F(4b/a^2)
    # pins F without any point enumeration.
    ctx = build_field(p, e)
    ring = get_ring(ctx, backend)
    phi, eps = quadratic_char(ctx), trivial_char(ctx)
    inv4 = ctx.inv(ctx.from_int(4))
    for a in range(1, ctx.q):
        a_sq = ctx.mul(a, a)
        for b in range(1, ctx.q):
            c = ctx.sub(b, ctx.mul(a_sq, inv4))
            n_points = 2 * ctx.q - 1 if c == 0 else ctx.q - 1
            alpha = ctx.mul(ctx.from_int(4), ctx.mul(b, ctx.inv(a_sq)))
            value = evaluate_hgf(HgfSpec((phi, eps), (phi,), alpha), ring)
            sign = quadratic_sign(ctx, b)
            reconstructed = ctx.q + sign + (ctx.q * sign) * value
            assert reconstructed.lift_int() == n_points, (a, b)


# ---------------------------------------------------------------------------
# Coefficient caching
# ---------------------------------------------------------------------------

def test_coefficient_vector_is_cached_and_normalized(f13, backend):
    ring = get_ring(f13, backend)
    Q = f13.q - 1
    vec = coefficient_vector(f13, (6, 1), (4,), ring)
    assert coefficient_vector(f13, (6, 1), (4,), ring) is vec
    assert coefficient_vector(f13, (6 + Q, 1), (4 - Q,), ring) is vec
    assert not vec.flags.writeable


def old_coefficient_vector(ctx, tops, bottoms, ring):
    """The coefficient vector as it was built before it had an owned
    buffer: a copy of the first column, then each column multiplied in."""
    coeffs = None
    for m0, n0 in zip(tops, (0, *bottoms)):
        column = binom_column(ctx, m0, n0, ring)
        coeffs = (np.array(column) if coeffs is None
                  else ring.mul_vec(coeffs, column, out=coeffs))
    return coeffs


def old_direct_sum(ctx, coeffs, k, ring):
    """The direct twisted sum as evaluate_hgf took it before it built the
    twists in place."""
    Q = ctx.q - 1
    twists = ring.root_unity_vec((np.arange(Q, dtype=np.int64) * k) % Q)
    total = ring.sum_vec(ring.mul_vec(coeffs, twists))
    return ring.scale(total, ctx.q, Q)


@pytest.mark.parametrize("p,e", [(11, 2), (601, 1), (7, 4), (3, 5)])
def test_coefficients_and_direct_sums_are_bitwise_the_old_ones(p, e,
                                                              backend):
    ctx = build_field(p, e)
    rng = np.random.default_rng(p)
    for tops, bottoms in admissible_series(ctx):
        ring = RINGS[backend](ctx)
        ref = old_coefficient_vector(ctx, tops, bottoms, ring)
        ring._binom_cache.clear()
        coeffs = coefficient_vector(ctx, tops, bottoms, ring)
        assert coeffs.tobytes() == ref.tobytes(), (tops, bottoms)
        assert not ring._binom_cache
        for k in (0, 1, ctx.q - 2, *rng.integers(0, ctx.q - 1, 5).tolist()):
            spec = spec_at(ctx, tops, bottoms, ctx.exp_table[k])
            value = evaluate_hgf(spec, ring).payload
            old = ring.wrap(old_direct_sum(ctx, coeffs, k, ring)).payload
            assert np.asarray(value).tobytes() == \
                np.asarray(old).tobytes(), (tops, bottoms, k)


def test_direct_sum_is_exact_on_the_widest_object_ring():
    # 62-bit ell, Q = 100: a uint64 sum of the twisted coefficients would
    # wrap, so the direct sum (and jacobi_sum under reference_hgf) must add
    # Python ints however the residues are stored.
    ctx = build_field(101)
    ring = get_ring(ctx, "exact", d_max=15)
    assert not ring._use_numpy and ring.ell.bit_length() == 62
    Q, ell = ctx.q - 1, ring.ell
    tops = (MultChar(ctx, 1), MultChar(ctx, 3))
    bottoms = (MultChar(ctx, 2),)
    coeffs = coefficient_vector(ctx, (1, 3), (2,), ring)
    roots = [int(w) for w in ring.roots_q1]
    for x in (1, 2, 57, 100):
        ring._hgf_uses.clear()  # the direct sum, not the spectrum
        spec = HgfSpec(tops, bottoms, x)
        k = int(ctx.log_table[x])
        total = sum(int(c) * roots[j * k % Q]
                    for j, c in enumerate(coeffs)) % ell
        expect = total * ctx.q * pow(Q, -1, ell) % ell
        value = evaluate_hgf(spec, ring)
        assert int(value.payload) == expect, x
        assert value.isclose(reference_hgf(spec, ring)), x


def test_coefficient_vector_copies_a_cached_first_column(f13, backend):
    ring = get_ring(f13, backend)
    ring._hgf_cache.clear()
    first = binom_column(f13, 6, 0, ring)
    before = first.tobytes()
    vec = coefficient_vector(f13, (6, 1), (4,), ring)
    assert vec is not first and first.tobytes() == before
    ref = ring.mul_vec(first, binom_column(f13, 1, 4, ring))
    assert vec.tobytes() == ref.tobytes()


def test_coefficient_vector_rejects_mismatched_lengths(f13, backend):
    ring = get_ring(f13, backend)
    for tops, bottoms in (((6, 0, 4), (6,)), ((6,), (6,)), ((6, 1), ())):
        with pytest.raises(ValueError):
            coefficient_vector(f13, tops, bottoms, ring)
        with pytest.raises(ValueError):
            series_values(f13, tops, bottoms, ring)
        assert (tops, bottoms) not in ring._hgf_cache


# ---------------------------------------------------------------------------
# Spectrum: the series at every argument from one transform
# ---------------------------------------------------------------------------

RINGS = {"exact": ResidueRing, "float": ComplexRing}


def admissible_series(ctx):
    """Index lists of every series a closed-form row uses over ctx."""
    out = set()
    for (family, parity), form in CLOSED_FORMS.items():
        degrees = (3,) if parity == "trace" else \
            (2, 4) if parity == "even" else (3, 5)
        for d in degrees:
            if (ctx.q - 1) % form.modulus(d) == 0:
                tops, bottoms = form.characters(ctx, d)
                out.add((tuple(ch.index for ch in tops),
                         tuple(ch.index for ch in bottoms)))
    return sorted(out)


def spec_at(ctx, tops, bottoms, x):
    """The series with these index lists at the argument x."""
    return HgfSpec(tuple(MultChar(ctx, i) for i in tops),
                   tuple(MultChar(ctx, i) for i in bottoms), int(x))


def direct_values(ctx, tops, bottoms, ring, monkeypatch):
    """The series at g^k, k = 0..q-2, each by the direct twisted sum."""
    monkeypatch.setattr(hypergeom, "_DIRECT_EVALS", math.inf)
    values = [evaluate_hgf(spec_at(ctx, tops, bottoms, x), ring)
              for x in ctx.exp_table[:ctx.q - 1]]
    monkeypatch.undo()
    assert not ring._spectra
    return values


@pytest.mark.parametrize("p,e", [(11, 2), (601, 1), (7, 4)])
def test_spectrum_matches_direct_sum_on_every_series(p, e, backend,
                                                     monkeypatch):
    ctx = build_field(p, e)
    series = admissible_series(ctx)
    assert len(series) == 6   # 2 even, 2 odd A, 2 odd B (d = 3, 5)
    for tops, bottoms in series:
        ring = RINGS[backend](ctx)
        direct = direct_values(ctx, tops, bottoms, ring, monkeypatch)
        spectrum = series_values(ctx, tops, bottoms, ring)
        assert not spectrum.flags.writeable
        assert spectrum.shape == (ctx.q - 1,)
        if backend == "exact":
            assert [int(v) for v in spectrum] == \
                [v.payload for v in direct], (tops, bottoms)
        else:
            worst = max(abs(spectrum[k] - v.payload)
                        for k, v in enumerate(direct))
            assert worst <= 1e-12, (tops, bottoms, worst)


def test_spectrum_is_built_at_the_threshold(backend):
    ctx = build_field(601)
    ring, fresh = RINGS[backend](ctx), RINGS[backend](ctx)
    tops, bottoms = admissible_series(ctx)[0]
    key = (tops, bottoms)
    columns = list(zip(tops, (0, *bottoms)))
    assert _DIRECT_EVALS == 31
    for n in range(1, 33):
        spec = spec_at(ctx, tops, bottoms, ctx.exp_table[7 * n])
        value = evaluate_hgf(spec, ring)
        if n <= 31:
            assert key not in ring._spectra and key in ring._hgf_cache
            assert ring._hgf_uses[key] == n
    # The 32nd evaluation read the spectrum, which agrees with the direct
    # sum on a ring that has evaluated the series once.
    assert key in ring._spectra
    expected = evaluate_hgf(spec, fresh)
    assert key not in fresh._spectra
    if backend == "exact":
        assert value.payload == expected.payload
    else:
        assert abs(value.payload - expected.payload) <= 1e-12
    # The ring keeps only the spectrum: no coefficient vector, no columns.
    assert key not in ring._hgf_cache and key not in ring._hgf_uses
    assert not any(column in ring._binom_cache for column in columns)
    assert not any(column in fresh._binom_cache for column in columns)


def test_argument_zero_is_not_counted(backend):
    ctx = build_field(601)
    ring = RINGS[backend](ctx)
    spec = spec_at(ctx, *admissible_series(ctx)[0], 0)
    for _ in range(2 * _DIRECT_EVALS):
        evaluate_hgf(spec, ring)
    assert not ring._hgf_uses and not ring._spectra


def test_inexact_spectrum_raises_and_caches_nothing(monkeypatch):
    ctx = build_field(601)
    ring = ResidueRing(ctx)   # a ring of its own, uncached
    tops, bottoms = admissible_series(ctx)[0]
    spec = spec_at(ctx, tops, bottoms, 5)
    for _ in range(_DIRECT_EVALS):
        expected = evaluate_hgf(spec, ring)
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    for build in (lambda: series_values(ctx, tops, bottoms, ring),
                  lambda: evaluate_hgf(spec, ring)):
        with pytest.raises(NonIntegerResult):
            build()
        assert not ring._spectra
        assert (tops, bottoms) in ring._hgf_cache
    monkeypatch.undo()
    assert evaluate_hgf(spec, ring).payload == expected.payload
    assert (tops, bottoms) in ring._spectra
