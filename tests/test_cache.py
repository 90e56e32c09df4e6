"""The one bounded cache of fields and rings: bytes, builds and identity."""

import itertools
import math
import weakref

import pytest

from hypercount import (
    CurveParams,
    MultChar,
    brute_count,
    build_field,
    cache_info,
    count_points,
    gauss_sum,
    get_ring,
    required_congruence,
)
from hypercount.ffield import _CACHE, is_prime

# Prime fields of about 30000 elements: about 1.9 MB each with a float
# ring, its Gauss table and one coefficient vector, so a few dozen pass the
# cap many times over.
START = 30000


def primes(start, mod=2):
    """The primes p >= start with p = 1 (mod mod), in order."""
    return filter(is_prime, itertools.count(start + (1 - start) % mod, mod))


def flood():
    """Build fields and float rings until they alone pass the cap twice,
    so that every field used before has been evicted."""
    total = 0
    for p in itertools.islice(primes(START), 100):
        ctx = build_field(p)
        ring = get_ring(ctx, "float")
        ring.gauss_array
        total += ctx.nbytes + ring.nbytes
        if total > 2 * cache_info().cap:
            return


def test_bytes_held_stay_within_the_cap_plus_the_latest_field():
    evictions = cache_info().evictions
    mod = required_congruence("A", 2)
    for p in itertools.islice(primes(START, mod), 24):
        ctx = build_field(p)
        ring = get_ring(ctx, "float")
        count_points(ctx, CurveParams("A", 2, 5, 11), ring=ring)
        info = cache_info()
        assert info.bytes <= info.cap + ctx.nbytes + ring.nbytes, p
    assert cache_info().evictions > evictions


def test_interleaved_small_fields_are_built_once():
    # Not held between calls: only the cache keeps them.
    fields = [(1009, 1), (1013, 1), (3, 5)]
    misses = cache_info().misses
    for _ in range(5):
        for p, e in fields:
            assert build_field(p, e).q == p**e
    assert cache_info().misses - misses <= len(fields)


def test_the_field_in_use_outlives_older_fields():
    # Weakly referenced: the cache alone keeps 1049 alive.
    ref = weakref.ref(build_field(1049))
    for p in itertools.islice(primes(START), 24):
        ctx = build_field(p)
        get_ring(ctx, "float").gauss_array
        assert build_field(1049) is ref()


def test_a_held_field_and_ring_come_back_after_eviction():
    ctx = build_field(1021)
    ring = get_ring(ctx, "float")
    chi = MultChar(ctx, 1)
    g1 = gauss_sum(chi, ring)
    flood()
    assert ctx not in _CACHE.entries
    again = build_field(1021)
    assert again is ctx
    assert get_ring(again, "float") is ring
    # Characters and ring values from before and after the eviction mix.
    psi = MultChar(again, 5)
    assert (chi * psi).index == 6
    g5 = gauss_sum(psi, get_ring(again, "float"))
    assert math.isclose(abs((g1 * g5).payload), 1021)


def test_an_evicted_held_field_counts_like_brute_force(backend):
    ctx = build_field(1033)   # 1032 = 24 · 43: family A takes d = 2, 3, 4
    flood()
    assert ctx not in _CACHE.entries
    ring = get_ring(ctx, backend)
    for d in (2, 3, 4):
        curve = CurveParams("A", d, 5, 11)
        assert count_points(ctx, curve, ring=ring).n_points \
            == brute_count(ctx, curve), curve


def test_cache_info_counts_hits_misses_and_the_cap():
    ctx = build_field(1039)
    before = cache_info()
    assert build_field(1039) is ctx
    get_ring(ctx, "exact", d_max=5)   # a key no other test uses
    get_ring(ctx, "exact", d_max=5)
    after = cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 1)
    assert after.cap == before.cap > 0
    assert after.bytes >= ctx.nbytes


@pytest.mark.parametrize("p,e", [(13, 1), (5, 2)])
def test_field_nbytes_counts_the_four_int32_tables(p, e):
    assert build_field(p, e).nbytes == 16 * p**e - 8
