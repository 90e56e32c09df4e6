"""Spans around the public calls into each hypercount layer.

The package is not instrumented.  Instead :class:`Tracer` replaces, for
the length of a traced stretch, the module attributes and properties that
calls into a layer go through, with wrappers that record one span each:
``(name, start, end, parent, phase, attrs)``.  ``parent`` is the index of
the enclosing span (``-1`` at top level), so self time is a span's length
minus the length of its direct children.  Spans are kept in memory and
written out once, when the run ends.

A patch point is the binding a caller actually looks up, which is not
always the package attribute: ``count_points`` reaches the series through
``hypercount.curvecount.evaluate_hgf``, the series reaches its
coefficients through ``hypercount.hypergeom.coefficient_vector``, and
those reach the columns through ``hypercount.hypergeom.binom_column``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import hypercount as hc
from hypercount import curvecount, ffield, hypergeom, values


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs[name]


def _ring_attrs(ring) -> dict:
    return {"backend": ring.backend, "q": ring.ctx.q}


# Each patch: (owner, attribute, span name, snapshot, describe).
# ``snapshot(args, kwargs)`` runs before the call and ``describe(args,
# kwargs, result, snap)`` after it; ``miss`` is true when the call grew
# the cache it consults, i.e. did the work instead of looking it up.

def _field_snapshot(args, kwargs):
    return ffield._build_field_cached.cache_info().misses


def _field_describe(args, kwargs, ctx, snap):
    return {"q": ctx.q, "e": ctx.e,
            "miss": ffield._build_field_cached.cache_info().misses > snap,
            "table_bytes": sum(a.nbytes for a in (
                ctx.exp_table, ctx.log_table, ctx.trace_table,
                ctx.one_minus_log, ctx._digits, ctx._pows) if a is not None)}


def _ring_snapshot(args, kwargs):
    return len(values._RING_CACHE.get(args[0], ()))


def _ring_describe(args, kwargs, ring, snap):
    attrs = _ring_attrs(ring)
    attrs["miss"] = len(values._RING_CACHE.get(args[0], ())) > snap
    if ring.backend == "exact":
        attrs["ell_bits"] = ring.ell.bit_length()
    return attrs


def _cache_snapshot(cache_attr, ring_pos):
    def snapshot(args, kwargs):
        return len(getattr(_arg(args, kwargs, ring_pos, "ring"), cache_attr))

    def describe(args, kwargs, result, snap):
        ring = _arg(args, kwargs, ring_pos, "ring")
        attrs = _ring_attrs(ring)
        attrs["miss"] = len(getattr(ring, cache_attr)) > snap
        return attrs

    return snapshot, describe


def _ring_at(pos):
    def describe(args, kwargs, result, snap):
        return _ring_attrs(_arg(args, kwargs, pos, "ring"))
    return describe


def _no_snapshot(args, kwargs):
    return None


def _brute_describe(args, kwargs, result, snap):
    return {"q": args[0].q}


PATCHES = (
    (hc, "build_field", "ffield.build_field",
     _field_snapshot, _field_describe),
    (hc, "get_ring", "values.get_ring", _ring_snapshot, _ring_describe),
    (hypergeom, "binom_column", "characters.binom_column",
     *_cache_snapshot("_binom_cache", 3)),
    (hypergeom, "coefficient_vector", "hypergeom.coefficient_vector",
     *_cache_snapshot("_hgf_cache", 3)),
    (curvecount, "evaluate_hgf", "hypergeom.evaluate_hgf",
     _no_snapshot, _ring_at(1)),
    (hc, "count_points", "curvecount.count_points",
     _no_snapshot, _ring_at(2)),
    (hc, "brute_count", "oracle.brute_count",
     _no_snapshot, _brute_describe),
    (hc, "verify_lemmas", "oracle.verify_lemmas",
     _no_snapshot, _ring_at(1)),
    (hc, "davenport_hasse_products", "oracle.davenport_hasse_products",
     _no_snapshot, _ring_at(2)),
    (hc, "verify_davenport_hasse", "oracle.verify_davenport_hasse",
     _no_snapshot, _ring_at(3)),
    (hc, "decompose_theta_sum", "oracle.decompose_theta_sum",
     _no_snapshot, _ring_at(2)),
)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start, attrs) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.phase, attrs)

    def _wrap(self, fn, name, snapshot, describe):
        tracer = self

        def traced(*args, **kwargs):
            snap = snapshot(args, kwargs)
            index, parent = tracer._open()
            start = time.perf_counter()
            attrs = {"error": True}
            try:
                result = fn(*args, **kwargs)
                attrs = describe(args, kwargs, result, snap)
                return result
            finally:
                tracer._close(index, parent, name, start, attrs)

        return traced

    def _wrap_gauss(self, prop):
        tracer = self

        def gauss_array(ring):
            if ring._gauss is not None:
                return prop.fget(ring)
            index, parent = tracer._open()
            start = time.perf_counter()
            attrs = _ring_attrs(ring)
            attrs["object"] = (ring.backend == "exact"
                               and not ring._use_numpy)
            try:
                return prop.fget(ring)
            finally:
                tracer._close(index, parent, "values.gauss_array", start,
                              attrs)

        return property(gauss_array, doc=prop.__doc__)

    def install(self) -> None:
        """Put the wrappers in place; :meth:`uninstall` restores them."""
        for owner, attr, name, snapshot, describe in PATCHES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, snapshot, describe))
        for cls in (values.ComplexRing, values.ResidueRing):
            prop = cls.__dict__["gauss_array"]
            self._saved.append((cls, "gauss_array", prop))
            setattr(cls, "gauss_array", self._wrap_gauss(prop))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, (name, start, end, parent, phase, attrs) in \
                    enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "phase": phase, **attrs}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's length minus the length of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _mean(xs):
    return statistics.fmean(xs) if xs else None


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced stretch; None where no span fed it.

    Build-layer metrics (field, ring, Gauss table, column, coefficient
    vector) average the calls that did the work, wherever they ran,
    set-up included.  Call-layer metrics (series, counts, oracle) average
    the calls made in timed rounds only, so warm counts are not mixed
    with the warm-up counts of set-up.  ``ffield.table_mb`` adds up the
    tables of the distinct fields built; ``values.ell_bits`` is the
    largest ``ell`` of the exact rings built.
    """
    own = self_times(spans)
    sel: dict[str, list] = {}
    tables: dict[int, int] = {}
    ell_bits = 0

    def add(key, seconds, scale=1e3):
        sel.setdefault(key, []).append(seconds * scale)

    for i, (name, start, end, _, phase, attrs) in enumerate(spans):
        if attrs.get("error"):
            continue
        backend = attrs.get("backend")
        if name == "ffield.build_field" and attrs["miss"]:
            add("ffield.build_prime_ms" if attrs["e"] == 1
                else "ffield.build_ext_ms", end - start)
            tables[attrs["q"]] = attrs["table_bytes"]
        elif name == "values.get_ring" and attrs["miss"]:
            add(f"values.ring_{backend}_ms", end - start)
            ell_bits = max(ell_bits, attrs.get("ell_bits", 0))
        elif name == "values.gauss_array":
            add("values.gauss_exact_object_ms" if attrs["object"]
                else f"values.gauss_{backend}_ms", end - start)
        elif name == "characters.binom_column" and attrs["miss"]:
            add(f"characters.binom_column_{backend}_ms", end - start)
        elif name == "hypergeom.coefficient_vector" and attrs["miss"]:
            add(f"hypergeom.coeff_{backend}_ms", end - start)
        elif phase != "round":
            continue
        elif name == "hypergeom.evaluate_hgf":
            add(f"hypergeom.eval_{backend}_us", end - start, 1e6)
        elif name == "curvecount.count_points":
            add(f"curvecount.count_{backend}_us", end - start, 1e6)
            add(f"curvecount.self_{backend}_us", own[i], 1e6)
        elif name == "oracle.brute_count":
            add("oracle.brute_us", end - start, 1e6)
        elif name in ORACLE_NAMES:
            add(ORACLE_NAMES[name], end - start)
    out = {name: _mean(sel.get(name, [])) for name in TIMED_LAYER_METRICS}
    out["ffield.table_mb"] = sum(tables.values()) / 2**20 or None
    out["values.ell_bits"] = ell_bits or None
    return out


ORACLE_NAMES = {
    "oracle.verify_lemmas": "oracle.lemmas_ms",
    "oracle.davenport_hasse_products": "oracle.dh_products_ms",
    "oracle.verify_davenport_hasse": "oracle.dh_progression_ms",
    "oracle.decompose_theta_sum": "oracle.decompose_ms",
}

TIMED_LAYER_METRICS = (
    "ffield.build_prime_ms", "ffield.build_ext_ms",
    "values.ring_float_ms", "values.gauss_float_ms",
    "values.ring_exact_ms", "values.gauss_exact_ms",
    "values.gauss_exact_object_ms",
    "characters.binom_column_float_ms", "characters.binom_column_exact_ms",
    "hypergeom.coeff_float_ms", "hypergeom.coeff_exact_ms",
    "hypergeom.eval_float_us", "hypergeom.eval_exact_us",
    "curvecount.count_float_us", "curvecount.count_exact_us",
    "curvecount.self_float_us", "curvecount.self_exact_us",
    "oracle.brute_us", "oracle.lemmas_ms", "oracle.dh_products_ms",
    "oracle.dh_progression_ms", "oracle.decompose_ms",
)


def per_field_costs(spans) -> dict:
    """Mean µs per call of warm counts and of ``brute_count``, per field q.

    Only calls made in timed rounds count.
    """
    sel: dict = {}
    for name, start, end, _, phase, attrs in spans:
        if phase != "round" or attrs.get("error"):
            continue
        if name == "curvecount.count_points":
            key = f"count_{attrs['backend']}_us"
        elif name == "oracle.brute_count":
            key = "brute_us"
        else:
            continue
        sel.setdefault(attrs["q"], {}).setdefault(key, []).append(
            (end - start) * 1e6)
    return {str(q): {k: statistics.fmean(v) for k, v in sorted(costs.items())}
            for q, costs in sorted(sel.items())}
