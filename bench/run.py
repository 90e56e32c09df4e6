#!/usr/bin/env python3
"""Run one benchmark workload of hypercount and print its metrics.

    python3 bench/run.py --workload warm_counts --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout, in one process and one thread,
against the package in ``src/``.  After set-up it runs whole rounds of the
workload's operations, starting a round only while it is expected to end
within ``--seconds`` (one round at least, two when traced), checks every
output, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``run_s``, ``float_ops_per_s``, ``exact_ops_per_s`` and ``peak_rss_mb``.
With ``--trace 1`` rounds alternate between traced and untraced, and the
metrics are the per-layer ones derived from spans (see ``spans.py``),
the CLI timings and the tracing overhead; the spans and a per-field cost
summary are written under ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process was started (Linux, 10 ms ticks)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


AGE_AT_START = _process_age()
T_START = time.perf_counter()

# One thread: no BLAS or OpenMP pool in the numpy the package imports.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CLI_REPEATS = 3
CLI_COUNT = ("count", "--q", "4801", "--family", "A", "--d", "4",
             "--a", "5", "--b", "11", "--backend", "float")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import hypercount from this checkout's ``src``, or exit 2."""
    if not (SRC / "hypercount" / "__init__.py").is_file():
        sys.exit(f"bench: no hypercount sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypercount
    if Path(hypercount.__file__).resolve().parent != SRC / "hypercount":
        sys.exit(f"bench: imported hypercount from {hypercount.__file__}")
    return hypercount


def _run_rounds(workload, tally, seconds, tracer):
    """Whole rounds within ``seconds``.

    Returns [(traced, wall s, [(backend, s) per operation])] and whether
    every round gave the same outputs and called the same operations.
    """
    rounds = []
    first = None
    consistent = True
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if rounds:
            workload.reset()
        if tracer is not None:
            tracer.uninstall()
            if traced:
                tracer.phase = "round"
                tracer.install()
        t0 = time.perf_counter()
        out = workload.round(tally)
        rounds.append((traced, time.perf_counter() - t0, tally.take_times()))
        shape = (out, [b for b, _ in rounds[-1][2]])
        if first is None:
            first = shape
        consistent = consistent and shape == first
        elapsed = time.perf_counter() - start
        need = 2 if tracer is not None else 1
        if len(rounds) >= need and elapsed + rounds[-1][1] > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    return rounds, consistent


def _upper_decile(xs) -> float:
    xs = list(xs)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def _end_to_end(setup_s, rounds) -> dict:
    """The five end-to-end metrics of an untraced run.

    ``run_s`` is the upper decile of the rounds' wall times.  Each
    operation's time is the upper decile of its times over the rounds,
    and a rate is a round's operations on a backend over the sum of
    theirs.  The upper decile, not the median: on a shared machine whose
    speed comes in bursts, the slow end is the steady one (README).
    """
    backends = [b for b, _ in rounds[0][2]]
    per_op = [_upper_decile(r[2][i][1] for r in rounds)
              for i in range(len(backends))]
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "run_s": {"value": _upper_decile(r[1] for r in rounds),
                         "unit": "s"}}
    for backend in ("float", "exact"):
        spent = [t for b, t in zip(backends, per_op) if b == backend]
        metrics[f"{backend}_ops_per_s"] = {"value": len(spent) / sum(spent),
                                          "unit": "1/s"}
    ru = resource.getrusage(resource.RUSAGE_SELF)
    metrics["peak_rss_mb"] = {"value": ru.ru_maxrss / 1024, "unit": "MB"}
    return metrics


def _cli_seconds(args) -> tuple[float, str | None]:
    """Median wall time of a fresh ``python3 <args>`` against ``src``, and
    its standard output (None if any run exited non-zero)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    stdout = ""
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or stdout is None:
            stdout = None
        else:
            stdout = proc.stdout
    return statistics.median(times), stdout


def _traced_metrics(hc, workloads, spans, tracer, rounds, round_cases,
                    name, seed):
    """Per-layer metrics; the check result of the extra calls they made."""
    layer = spans.layer_metrics(tracer.spans)
    layer["oracle.identity_cases"] = round_cases or None
    ok = True
    missing = [k for k, v in layer.items() if v is None]
    if missing:
        probe_tracer = spans.Tracer()
        probe_tracer.phase = "round"
        probe_tally = workloads.Tally()
        probe_tracer.install()
        try:
            workloads.layer_probe(probe_tally)
        finally:
            probe_tracer.uninstall()
        probe = spans.layer_metrics(probe_tracer.spans)
        probe["oracle.identity_cases"] = probe_tally.identity_cases
        ok = probe_tally.failed == 0
        for k in missing:
            layer[k] = probe[k]

    import_s, imported = _cli_seconds(("-c", "import hypercount"))
    count_s, stdout = _cli_seconds(("-m", "hypercount.cli", *CLI_COUNT))
    found = re.search(r"n_points=(\d+)", stdout or "")
    expect = hc.brute_count(hc.build_field(4801),
                            hc.CurveParams("A", 4, 5, 11))
    ok = (ok and imported is not None and found is not None
          and int(found.group(1)) == expect)

    on = statistics.median(t for traced, t, _ in rounds if traced)
    off = statistics.median(t for traced, t, _ in rounds if not traced)
    units = {"ms": "ms", "us": "us", "mb": "MB", "s": "s"}
    metrics = {}
    for k, v in layer.items():
        unit = units.get(k.rsplit("_", 1)[-1], "count")
        metrics[k] = {"value": v, "unit": unit}
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    metrics["cli.count_s"] = {"value": count_s, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": (on - off) / off * 100,
                                     "unit": "%"}

    tracer.write(OUT / f"{name}-seed{seed}.spans.jsonl")
    summary = {"workload": name, "seed": seed, "metrics": metrics,
               "rounds": [{"traced": t, "seconds": s} for t, s, _ in rounds],
               "per_field": spans.per_field_costs(tracer.spans)}
    (OUT / f"{name}-seed{seed}.summary.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    return metrics, ok


def main(argv=None) -> int:
    args = _parse(argv)
    hc = _import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload.setup()
    setup_s = AGE_AT_START + time.perf_counter() - T_START

    tally = workloads.Tally()
    rounds, consistent = _run_rounds(workload, tally, args.seconds, tracer)
    round_cases = tally.identity_cases // len(rounds)

    if tracer is None:
        metrics = _end_to_end(setup_s, rounds)
        ok = True
    else:
        metrics, ok = _traced_metrics(hc, workloads, spans, tracer, rounds,
                                      round_cases, args.workload, args.seed)
    print(json.dumps({"correct": consistent and ok,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
