"""Command-line front end.

Three subcommands:

* ``hypercount count``  — one closed-form count, optionally checked
  against the brute-force oracle (``--check``) or replaced by it
  (``--brute``).
* ``hypercount sweep``  — batch theorem-vs-oracle comparison over all
  admissible prime powers up to a bound, with seeded pseudorandom
  coefficient sampling and one row per case.
* ``hypercount verify`` — the identity suites (lemma checks,
  Davenport–Hasse products and progressions, count decomposition) per
  field.

Exit codes: 0 success/agreement, 2 any mismatch, 1 usage error, 141
(128 + SIGPIPE, as for a tool the signal ends) when standard output is
closed before the report is written, e.g. by ``| head``.

Output formats: ``json`` (one document, schema shipped at
``schemas/report.schema.json``), ``csv`` (sweep rows with the fixed
header ``q,d,family,a,b,n_thm,n_oracle,match,elapsed_us``), and
``text``.  Identical configuration and seed produce byte-identical
output: timing columns emit 0 unless ``--timings`` is passed, and all
sampling derives from ``--seed`` alone.

The environment variable ``HYPERCOUNT_TABLE_BUDGET`` replaces the
default table budget, and ``--table-budget`` replaces the environment
value.  Either is refused above the hard cap ``DEFAULT_TABLE_BUDGET``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass

from .characters import quadratic_sign
from .curvecount import (
    BRUTE_FORCE,
    CountResult,
    CurveParams,
    check_coeffs,
    count_points,
    required_congruence,
)
from .errors import (
    HypercountError,
    TableBudgetExceeded,
    VerifierTableTooLarge,
)
from .ffield import DEFAULT_TABLE_BUDGET, FieldCtx, build_field, prime_factors
from .oracle import (
    VERIFY_TABLE_LIMIT,
    brute_count,
    davenport_hasse_products,
    decompose_theta_sum,
    verify_davenport_hasse,
    verify_lemmas,
)
from .values import DEFAULT_TOLERANCE, get_ring

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BROKEN_PIPE = 141

CSV_HEADER = "q,d,family,a,b,n_thm,n_oracle,match,elapsed_us"

#: Degrees the sweep and verify commands exercise by default.
DEFAULT_DEGREES = (2, 3, 4, 5)


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by all subcommands."""

    backend: str = "exact"
    tolerance: float = DEFAULT_TOLERANCE
    table_budget: int = DEFAULT_TABLE_BUDGET
    seed: int = 0
    output_format: str = "text"
    timings: bool = False

    def __post_init__(self):
        if self.backend not in ("exact", "float"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown format {self.output_format!r}")
        if not 0 < self.tolerance < math.inf:  # NaN fails every comparison
            raise ValueError("tolerance must be finite and positive")
        if self.table_budget > DEFAULT_TABLE_BUDGET:
            raise ValueError(
                f"table budget {self.table_budget} exceeds the hard cap "
                f"{DEFAULT_TABLE_BUDGET}")


class _UsageError(Exception):
    """Input problem; maps to exit code 1."""


def _odd_prime_of(q: int) -> int | None:
    """The prime p if q is a power of an odd prime p, else None."""
    factors = prime_factors(q) if q >= 3 and q % 2 else []
    return factors[0] if len(factors) == 1 else None


def _field_params(q: int, config: RunConfig,
                  verify: bool = False) -> tuple[int, int]:
    """(p, e) with q = p**e, or the refusal of q, without building tables;
    with ``verify``, also the refusal of a q past ``VERIFY_TABLE_LIMIT``."""
    if q >= 3 and q % 2 and q > config.table_budget:  # before factoring
        raise TableBudgetExceeded(q, config.table_budget)
    if verify and (q - 1) ** 2 > VERIFY_TABLE_LIMIT:
        raise VerifierTableTooLarge(q, VERIFY_TABLE_LIMIT)
    if (p := _odd_prime_of(q)) is None:
        raise _UsageError(f"{q} is not an odd prime power")
    return p, next(e for e in range(1, q) if p**e == q)


def _field_for(q: int, config: RunConfig) -> FieldCtx:
    return build_field(*_field_params(q, config),
                       table_budget=config.table_budget)


def _ell_pair(ring) -> tuple[int, int | None]:
    """What the backend report keeps of a ring: q, and ell if exact."""
    return ring.ctx.q, getattr(ring, "ell", None)


def _backend_info(config: RunConfig, ells) -> dict:
    info = {"backend": config.backend}
    if config.backend == "float":
        info["tolerance"] = config.tolerance
    else:
        info["ell"] = {str(q): ell for q, ell in ells}
    return info


def _value_json(value) -> dict | None:
    if value is None:
        return None
    ring = value.ring
    if ring.backend == "exact":
        return {"backend": "exact", "residue": int(value.payload),
                "ell": ring.ell}
    return {"backend": "float", "re": float(value.payload.real),
            "im": float(value.payload.imag)}


def _value_text(value) -> str:
    if value is None:
        return "-"
    if value.ring.backend == "exact":
        return f"{int(value.payload)} (mod {value.ring.ell})"
    return format(complex(value.payload), ".6g")


def _emit(doc: dict, config: RunConfig, text_lines: list[str]) -> None:
    if config.output_format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def cmd_count(q: int, family: str, d: int, a: int, b: int,
              config: RunConfig, *, check: bool = False,
              brute: bool = False) -> int:
    """Count one curve; exit 0 on success/agreement, 2 on mismatch."""
    ctx = _field_for(q, config)
    curve = CurveParams(family, d, a, b)
    # Codes are not reduced mod q: on F_{p^e} the code q-1 is not -1.
    check_coeffs(ctx, a, b)
    ring = get_ring(ctx, config.backend, tolerance=config.tolerance)
    start = time.perf_counter()
    if brute:
        result = CountResult(brute_count(ctx, curve), BRUTE_FORCE, None, None)
    else:
        result = count_points(ctx, curve, ring=ring)
    elapsed_us = int((time.perf_counter() - start) * 1e6) if config.timings else 0

    n_oracle = None
    match = None
    if check and not brute:
        n_oracle = brute_count(ctx, curve)
        match = n_oracle == result.n_points

    doc = {
        "command": "count",
        "q": ctx.q,
        "family": curve.family,
        "d": curve.d,
        "a": curve.a,
        "b": curve.b,
        "backend": _backend_info(config, [_ell_pair(ring)]),
        "result": {
            "n_points": result.n_points,
            "method": result.method,
            "argument": result.argument,
            "hgf_value": _value_json(result.hgf_value),
        },
        "n_oracle": n_oracle,
        "match": match,
        "elapsed_us": elapsed_us,
    }
    lines = [
        f"q={ctx.q} family={curve.family} d={curve.d} "
        f"a={curve.a} b={curve.b}",
        f"n_points={result.n_points} method={result.method} "
        f"argument={result.argument if result.argument is not None else '-'} "
        f"hgf_value={_value_text(result.hgf_value)}",
    ]
    if match is not None:
        lines.append(f"oracle={n_oracle} match={str(match).lower()}")
    _emit(doc, config, lines)
    return EXIT_OK if match in (None, True) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _odd_prime_powers(q_max: int, budget: int):
    """Odd prime powers up to q_max, ending with the first past budget."""
    for q in range(3, q_max + 1, 2):
        if _odd_prime_of(q):
            yield q
            if q > budget:
                return


def _sample_pairs(q: int, d: int, family: str, samples: int, seed: int):
    """Deterministic (a, b) sample; exhaustive when the grid is smaller."""
    if (q - 1) ** 2 <= samples:
        return [(a, b) for a in range(1, q) for b in range(1, q)]
    rng = random.Random(f"{seed}:{q}:{d}:{family}")
    return [(rng.randrange(1, q), rng.randrange(1, q))
            for _ in range(samples)]


def cmd_sweep(q_max: int, d_list: tuple[int, ...], samples: int,
              config: RunConfig, *, families: str = "AB") -> int:
    """Theorem-vs-oracle over every admissible field; exit 0 iff clean."""
    if q_max < 3:
        raise _UsageError(f"--q-max must be at least 3, got {q_max}")
    if samples < 1:
        raise _UsageError("--samples must be positive")
    for d in d_list:
        if d < 2:
            raise _UsageError(f"degrees must be >= 2, got {d}")
    rows = []
    ells = []
    budget = config.table_budget
    for q in _odd_prime_powers(min(q_max, budget), budget):
        ctx = ring = None
        for d in d_list:
            for family in families:
                if (q - 1) % required_congruence(family, d):
                    continue
                if ctx is None:
                    ctx = _field_for(q, config)
                    ring = get_ring(ctx, config.backend,
                                    tolerance=config.tolerance)
                    ells.append(_ell_pair(ring))
                for a, b in _sample_pairs(q, d, family, samples, config.seed):
                    start = time.perf_counter()
                    result = count_points(ctx, CurveParams(family, d, a, b),
                                          ring=ring)
                    elapsed = time.perf_counter() - start
                    n_oracle = brute_count(ctx, CurveParams(family, d, a, b))
                    rows.append({
                        "q": q, "d": d, "family": family, "a": a, "b": b,
                        "n_thm": result.n_points, "n_oracle": n_oracle,
                        "match": result.n_points == n_oracle,
                        "elapsed_us": int(elapsed * 1e6) if config.timings else 0,
                        "hgf_value": _value_json(result.hgf_value),
                        "argument": result.argument,
                    })
    mismatches = sum(1 for r in rows if not r["match"])
    summary = {"rows": len(rows), "mismatches": mismatches}

    if config.output_format == "csv":
        print(CSV_HEADER)
        for r in rows:
            print(f"{r['q']},{r['d']},{r['family']},{r['a']},{r['b']},"
                  f"{r['n_thm']},{r['n_oracle']},"
                  f"{str(r['match']).lower()},{r['elapsed_us']}")
        print(f"# rows={len(rows)} mismatches={mismatches}", file=sys.stderr)
    elif config.output_format == "json":
        doc = {"command": "sweep", "q_max": q_max, "d_list": list(d_list),
               "samples": samples, "seed": config.seed,
               "backend": _backend_info(config, ells),
               "rows": rows, "summary": summary}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for r in rows:
            print(f"q={r['q']} d={r['d']} family={r['family']} "
                  f"a={r['a']} b={r['b']} n_thm={r['n_thm']} "
                  f"n_oracle={r['n_oracle']} "
                  f"match={str(r['match']).lower()}")
        print(f"rows={len(rows)} mismatches={mismatches}")
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_field(ctx: FieldCtx, ring, seed: int) -> dict:
    q = ctx.q
    identities = list(verify_lemmas(ctx, ring))
    for m in (d for d in range(1, q) if (q - 1) % d == 0):
        identities.append(davenport_hasse_products(ctx, m, ring))
        identities.extend(verify_davenport_hasse(ctx, m, 1, ring))

    decompositions = []
    rng = random.Random(f"{seed}:{q}:decompose")
    for d in DEFAULT_DEGREES:
        for family in "AB":
            if (q - 1) % required_congruence(family, d):
                continue
            a = rng.randrange(1, q)
            b = rng.randrange(1, q)
            curve = CurveParams(family, d, a, b)
            rep = decompose_theta_sum(ctx, curve, ring)
            n_direct = brute_count(ctx, curve)
            # q·N = q² + q·phi(b) + quad_component, as the paper's count,
            # compared after dividing by q: at scale 1 the float check
            # sees a quad_component off by one at every q verify admits.
            quad_n = (rep.quad_component
                      + q * (q + quadratic_sign(ctx, b))).divide_by_q()
            quad_ok = quad_n.isclose(n_direct)
            decompositions.append({
                "family": family, "d": d, "a": a, "b": b,
                "z_sum": _value_json(rep.z_sum),
                "yz_sum": _value_json(rep.yz_sum),
                "xz_sum": _value_json(rep.xz_sum),
                "xyz_sum": _value_json(rep.xyz_sum),
                "quad_component": _value_json(rep.quad_component),
                "n_reconstructed": rep.n_reconstructed,
                "n_oracle": n_direct,
                "match": rep.n_reconstructed == n_direct and quad_ok,
            })
    return {
        "q": q,
        "identities": [{
            "identity": r.identity, "cases": r.cases,
            "mismatch_count": r.mismatch_count,
            "worst_residual": r.worst_residual,
            "passed": r.passed,
        } for r in identities],
        "decompositions": decompositions,
    }


def cmd_verify(qs: tuple[int, ...], config: RunConfig) -> int:
    """Run identity suites on each field; exit 0 iff everything passes."""
    if not qs:
        raise _UsageError("verify needs at least one --q or a --q-max range")
    # Refuse before any work.
    params = [_field_params(q, config, verify=True) for q in qs]
    fields = []
    ells = []
    for p, e in params:  # one field and ring alive at a time
        ctx = build_field(p, e, table_budget=config.table_budget)
        ring = get_ring(ctx, config.backend, tolerance=config.tolerance)
        ells.append(_ell_pair(ring))
        fields.append(_verify_field(ctx, ring, config.seed))
    failures = sum(1 for f in fields
                   for i in f["identities"] if not i["passed"])
    failures += sum(1 for f in fields
                    for dec in f["decompositions"] if not dec["match"])
    doc = {"command": "verify", "backend": _backend_info(config, ells),
           "fields": fields, "summary": {"failures": failures}}

    lines = [f"backend={config.backend}"
             + ("".join(f" ell[q={q}]={ell}" for q, ell in ells)
                if config.backend == "exact" else "")]
    for f in fields:
        lines.append(f"q={f['q']}")
        for i in f["identities"]:
            lines.append(
                f"  {'PASS' if i['passed'] else 'FAIL'} {i['identity']} "
                f"cases={i['cases']} mismatches={i['mismatch_count']} "
                f"worst_residual={i['worst_residual']:.3g}")
        for dec in f["decompositions"]:
            lines.append(
                f"  {'PASS' if dec['match'] else 'FAIL'} decomposition "
                f"family={dec['family']} d={dec['d']} a={dec['a']} "
                f"b={dec['b']} n={dec['n_reconstructed']}")
    lines.append(f"failures={failures}")
    _emit(doc, config, lines)
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypercount",
                     description="Point counts on y² = x^d+ax+b and "
                                 "y² = x^d+ax^{d-1}+b via finite-field "
                                 "hypergeometric series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--backend", choices=("exact", "float"),
                       default="exact")
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
        p.add_argument("--table-budget", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text", dest="output_format")
        p.add_argument("--timings", action="store_true",
                       help="measure wall time (breaks byte-identical "
                            "reproducibility)")

    p_count = sub.add_parser("count", help="count points on one curve")
    p_count.add_argument("--q", type=int, required=True)
    p_count.add_argument("--family", choices=("A", "B"), required=True)
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument("--a", type=int, required=True)
    p_count.add_argument("--b", type=int, required=True)
    p_count.add_argument("--check", action="store_true",
                         help="also run the brute-force oracle and compare")
    p_count.add_argument("--brute", action="store_true",
                         help="use only the brute-force oracle")
    add_common(p_count)

    p_sweep = sub.add_parser("sweep", help="batch theorem-vs-oracle run")
    p_sweep.add_argument("--q-max", type=int, required=True)
    p_sweep.add_argument("--d", type=str, default="2,3,4,5",
                         help="comma-separated degree list")
    p_sweep.add_argument("--samples", type=int, default=20)
    p_sweep.add_argument("--family", choices=("A", "B", "AB"), default="AB")
    add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("--q", type=int, action="append", default=None)
    p_verify.add_argument("--q-max", type=int, default=None)
    add_common(p_verify)
    return parser


def _config_from(args) -> RunConfig:
    env_budget = os.environ.get("HYPERCOUNT_TABLE_BUDGET")
    budget = args.table_budget
    if budget is None:
        budget = int(env_budget) if env_budget else DEFAULT_TABLE_BUDGET
    return RunConfig(backend=args.backend, tolerance=args.tolerance,
                     table_budget=budget, seed=args.seed,
                     output_format=args.output_format,
                     timings=args.timings)


def main(argv=None) -> int:
    try:
        status = _run(argv)
        sys.stdout.flush()   # a closed pipe raises here, not at shutdown
        return status
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at shutdown cannot
        # raise again and print a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from(args)
        if args.command == "count":
            return cmd_count(args.q, args.family, args.d, args.a, args.b,
                             config, check=args.check, brute=args.brute)
        if args.command == "sweep":
            degrees = tuple(int(tok) for tok in args.d.split(",") if tok)
            if not degrees:
                raise _UsageError("empty --d list")
            return cmd_sweep(args.q_max, degrees, args.samples, config,
                             families=args.family)
        if args.command == "verify":
            qs = tuple(args.q or ())
            if args.q_max is not None:
                # Ends with the first q past the budget or the verifiers'
                # limit, which cmd_verify refuses.
                last = min(config.table_budget,
                           math.isqrt(VERIFY_TABLE_LIMIT) + 1)
                qs += tuple(_odd_prime_powers(args.q_max, last))
            return cmd_verify(qs, config)
        raise _UsageError(f"unknown command {args.command!r}")
    except (_UsageError, HypercountError, ValueError) as ex:
        print(f"hypercount: error: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
