"""Command-line contract: exit codes, formats, determinism, schema."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import hypercount
from hypercount import cli, oracle
from hypercount.oracle import VERIFY_TABLE_LIMIT


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    path = resources.files("hypercount") / "schemas" / "report.schema.json"
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def test_count_with_check_agrees(capsys):
    code, out, _ = run(capsys, "count", "--q", "73", "--family", "A",
                       "--d", "4", "--a", "1", "--b", "1", "--check")
    assert code == 0
    assert "match=true" in out


def test_count_rejects_even_and_composite_q(capsys):
    for q in ("74", "12", "2", "1"):
        code, _, err = run(capsys, "count", "--q", q, "--family", "A",
                           "--d", "4", "--a", "1", "--b", "1")
        assert code == 1
        assert f"{q} is not an odd prime power" in err


def test_count_rejects_congruence_violation(capsys):
    code, _, err = run(capsys, "count", "--q", "13", "--family", "A",
                       "--d", "4", "--a", "1", "--b", "1")
    assert code == 1
    assert "mod 24" in err


def test_count_usage_error_exits_one(capsys):
    code, _, _ = run(capsys, "count", "--q", "13", "--family", "Z",
                     "--d", "4", "--a", "1", "--b", "1")
    assert code == 1
    code, _, _ = run(capsys, "count", "--q", "13")
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


def test_usage_error_prints_usage_then_one_error_line(capsys):
    code, out, err = run(capsys, "count", "--q", "13", "--family", "Z",
                         "--d", "4", "--a", "1", "--b", "1")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: hypercount count ")
    assert lines[-1].startswith(
        "hypercount: error: argument --family: invalid choice")


def test_q_past_the_budget_is_refused_before_factoring(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"factored {n}")
    monkeypatch.setattr(cli, "prime_factors", refuse)
    for q in (10**30 + 1, 2201, 2187):
        code, _, err = run(capsys, "count", "--q", str(q), "--family", "A",
                           "--d", "4", "--a", "1", "--b", "1",
                           "--table-budget", "50")
        assert code == 1
        assert err == (f"hypercount: error: field size q={q} exceeds the "
                       f"table budget 50\n")
    code, _, err = run(capsys, "count", "--q", str(10**30), "--family", "A",
                       "--d", "4", "--a", "1", "--b", "1")
    assert code == 1
    assert err == f"hypercount: error: {10**30} is not an odd prime power\n"


def test_count_mismatch_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_count", lambda ctx, curve: -999)
    code, out, _ = run(capsys, "count", "--q", "13", "--family", "A",
                       "--d", "2", "--a", "1", "--b", "1", "--check")
    assert code == 2
    assert "match=false" in out


def test_count_brute_skips_congruence(capsys):
    code, out, _ = run(capsys, "count", "--q", "13", "--family", "A",
                       "--d", "4", "--a", "1", "--b", "1", "--brute")
    assert code == 0
    assert "method=brute_force" in out


@pytest.mark.parametrize("d,n_points", [("1152921504606846977", 17),
                                        (str(2**63), 13)])
def test_count_brute_at_a_huge_degree(capsys, d, n_points):
    # The first d once gave n_points=18 with exit 0; 2**63 a traceback.
    code, out, err = run(capsys, "count", "--q", "13", "--family", "A",
                         "--d", d, "--a", "1", "--b", "2", "--brute")
    assert code == 0 and err == ""
    assert f"n_points={n_points} method=brute_force" in out


@pytest.mark.parametrize("a", ["-1", "25"])
@pytest.mark.parametrize("mode", [(), ("--brute",)])
def test_count_rejects_codes_outside_the_field(capsys, a, mode):
    # On F_25 the code 24 is not -1, so -1 must not be reduced to it.
    code, _, err = run(capsys, "count", "--q", "25", "--family", "A",
                       "--d", "4", "--a", a, "--b", "1", *mode)
    assert code == 1
    assert f"a={a} is not a field-element code" in err


def test_count_float_prefactor_past_double_range_exits_one(capsys):
    # q^75 at q = 22651 is about 10^326: the float count must refuse
    # cleanly rather than end in an OverflowError traceback.
    code, out, err = run(capsys, "count", "--q", "22651", "--family", "B",
                         "--d", "151", "--a", "1", "--b", "1",
                         "--backend", "float")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("hypercount: error: ") and err.count("\n") == 1
    assert "--backend exact" in err


def test_count_json_validates(capsys):
    code, out, _ = run(capsys, "count", "--q", "73", "--family", "B",
                       "--d", "4", "--a", "2", "--b", "3", "--check",
                       "--format", "json", "--backend", "float")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["match"] is True
    assert doc["result"]["method"] == "family_b_even"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_header_and_admissible_fields(capsys):
    code, out, err = run(capsys, "sweep", "--q-max", "50", "--d", "5",
                         "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,d,family,a,b,n_thm,n_oracle,match,elapsed_us"
    rows = [ln.split(",") for ln in lines[1:]]
    assert rows and all(r[0] == "41" for r in rows)  # only q=41 qualifies
    assert {r[2] for r in rows} == {"A", "B"}
    assert all(r[7] == "true" for r in rows)
    assert all(r[8] == "0" for r in rows)  # no --timings: deterministic
    assert "mismatches=0" in err


def test_sweep_is_byte_identical_for_fixed_seed(capsys):
    args = ("sweep", "--q-max", "60", "--d", "2,3", "--samples", "5",
            "--seed", "7", "--format", "csv")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = run(capsys, *("sweep", "--q-max", "60", "--d", "2,3",
                               "--samples", "5", "--seed", "8",
                               "--format", "csv"))
    assert out3 != out1  # the seed really drives the sampling


# sha256 of the exact sweep's stdout.  Exact output does not depend on the
# platform or on which route (direct sum or cached spectrum) a series took;
# float output is not pinned, as numpy's FFTs differ in the last bits
# between releases.
EXACT_SWEEP_SHA256 = (
    "72e87e9f3a8cfadbb62a9ddf093bc932f24db3f6ac1574e8ce63aba649ccfd64")


def test_exact_sweep_is_pinned(capsys):
    code, out, _ = run(capsys, "sweep", "--q-max", "200", "--samples", "40",
                       "--backend", "exact", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_SWEEP_SHA256


def test_sweep_json_validates(capsys):
    code, out, _ = run(capsys, "sweep", "--q-max", "30", "--d", "2",
                       "--samples", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["summary"]["mismatches"] == 0
    assert doc["summary"]["rows"] == len(doc["rows"])
    # Exhaustive fallback below the sample budget: q=5 has only 16 pairs.
    q5 = [r for r in doc["rows"] if r["q"] == 5]
    assert len(q5) == 0 or all(r["match"] for r in q5)


def test_sweep_exhausts_small_grids(capsys):
    code, out, _ = run(capsys, "sweep", "--q-max", "5", "--d", "2",
                       "--samples", "100", "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2 * 16  # both families, all (a,b) in [1,4]^2


def test_sweep_mismatch_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_count", lambda ctx, curve: -1)
    code, _, err = run(capsys, "sweep", "--q-max", "13", "--d", "2",
                       "--samples", "2", "--format", "csv")
    assert code == 2
    assert "mismatches=0" not in err


def test_sweep_usage_errors(capsys):
    assert run(capsys, "sweep", "--q-max", "2")[0] == 1
    assert run(capsys, "sweep", "--q-max", "50", "--d", "1")[0] == 1
    assert run(capsys, "sweep", "--q-max", "50", "--d", "")[0] == 1
    assert run(capsys, "sweep", "--q-max", "50", "--samples", "0")[0] == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_reports_exact_modulus_in_header(capsys):
    code, out, _ = run(capsys, "verify", "--q", "9", "--backend", "exact")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("backend=exact")
    assert "ell[q=9]=1099511627953" in header
    assert "FAIL" not in out


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_verify_passes_at_257(capsys, backend):
    # The first q at which a float product of q-1 Gauss sums overflows.
    code, out, _ = run(capsys, "verify", "--q", "257", "--backend", backend)
    assert code == 0
    assert "FAIL" not in out
    assert out.splitlines()[-1] == "failures=0"


def test_verify_float_backend_passes(capsys):
    code, out, _ = run(capsys, "verify", "--q", "13", "--backend", "float")
    assert code == 0
    assert out.splitlines()[0] == "backend=float"


def test_verify_json_validates(capsys):
    code, out, _ = run(capsys, "verify", "--q", "13", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["summary"]["failures"] == 0
    assert doc["fields"][0]["q"] == 13
    assert doc["fields"][0]["decompositions"]


def test_verify_checks_quad_component(capsys, monkeypatch):
    # The decomposition's PASS also needs q·N = q² + q·phi(b) + D, so a D
    # off by one fails it even though n_reconstructed still matches.  On
    # float at q = 1201 the check once compared at scale q², where
    # tolerance·q² = 1.44 hid the error.
    real = oracle.quad_component
    monkeypatch.setattr(oracle, "quad_component",
                        lambda ctx, curve, ring=None:
                        real(ctx, curve, ring) + 1)
    for argv in (("--q", "13"), ("--q", "1201", "--backend", "float")):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert "FAIL decomposition" in out
        assert "FAIL gauss" not in out and "FAIL davenport" not in out


def test_verify_needs_a_field(capsys):
    assert run(capsys, "verify")[0] == 1


def test_verify_q_max_scans_prime_powers(capsys):
    code, out, _ = run(capsys, "verify", "--q-max", "10")
    assert code == 0
    qs = [ln for ln in out.splitlines() if ln.startswith("q=")]
    assert qs == ["q=3", "q=5", "q=7", "q=9"]


@pytest.mark.parametrize("argv,exit_code", [
    (("sweep", "--table-budget", "50", "--d", "4", "--samples", "1"), 0),
    # verify stops at q = 23, the first field past the budget.
    (("verify", "--table-budget", "20"), 1),
])
def test_huge_q_max_stops_at_the_table_budget(capsys, argv, exit_code):
    small = run(capsys, *argv, "--q-max", "50")
    start = time.perf_counter()
    huge = run(capsys, *argv, "--q-max", str(10**12))
    assert time.perf_counter() - start < 20
    assert huge == small
    assert small[0] == exit_code


def test_verify_refuses_past_the_budget_before_verifying(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("verified a field")
    monkeypatch.setattr(cli, "verify_lemmas", refuse)
    code, out, err = run(capsys, "verify", "--q-max", "300",
                         "--table-budget", "270")
    assert (code, out) == (1, "")
    assert err == ("hypercount: error: field size q=271 exceeds the "
                   "table budget 270\n")


def test_verify_refuses_a_bad_q_before_building_a_field(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a field")
    monkeypatch.setattr(cli, "build_field", refuse)
    for bad, message in (("15", "15 is not an odd prime power"),
                         ("1048583", "exceeds the table budget")):
        code, out, err = run(capsys, "verify", "--q", "13", "--q", bad)
        assert (code, out) == (1, "")
        assert message in err


def test_verify_refuses_past_the_verifier_limit_before_building(capsys,
                                                               monkeypatch):
    # (q - 1)² > VERIFY_TABLE_LIMIT = 2**24 from q = 4099 on; 1048573 is
    # within the table budget, and its (q - 1)² tables would need TiB.
    assert VERIFY_TABLE_LIMIT == 2**24
    assert cli._field_params(4093, cli.RunConfig(), verify=True) == (4093, 1)
    assert cli._field_params(1048573, cli.RunConfig()) == (1048573, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("built a field")
    monkeypatch.setattr(cli, "build_field", refuse)
    for q in (4099, 1048573):
        code, out, err = run(capsys, "verify", "--q", "13", "--q", str(q))
        assert (code, out) == (1, "")
        assert err == (f"hypercount: error: verify at q={q} needs (q-1)^2 = "
                       f"{(q - 1) ** 2} table entries, past the verifiers' "
                       f"limit of {2**24}\n")
    # A --q-max range ends at 4099, the first q past the limit, and is
    # refused whole, however far it reaches.
    for q_max in ("4099", str(10**12)):
        code, out, err = run(capsys, "verify", "--q-max", q_max)
        assert (code, out) == (1, "")
        assert "verify at q=4099 needs" in err


def test_verify_builds_and_verifies_one_field_at_a_time(capsys, monkeypatch):
    calls = []
    build, verify = cli.build_field, cli._verify_field

    def build_logged(p, e, **kwargs):
        calls.append(("build", p**e))
        return build(p, e, **kwargs)

    def verify_logged(ctx, ring, seed):
        calls.append(("verify", ctx.q))
        return verify(ctx, ring, seed)

    monkeypatch.setattr(cli, "build_field", build_logged)
    monkeypatch.setattr(cli, "_verify_field", verify_logged)
    assert run(capsys, "verify", "--q", "5", "--q", "7", "--q", "9")[0] == 0
    assert calls == [(step, q) for q in (5, 7, 9)
                     for step in ("build", "verify")]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_table_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("HYPERCOUNT_TABLE_BUDGET", "50")
    code, _, err = run(capsys, "count", "--q", "73", "--family", "A",
                       "--d", "4", "--a", "1", "--b", "1")
    assert code == 1
    assert "table budget" in err


def test_table_budget_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("HYPERCOUNT_TABLE_BUDGET", "50")
    code, _, _ = run(capsys, "count", "--q", "73", "--family", "A",
                     "--d", "4", "--a", "1", "--b", "1",
                     "--table-budget", "100")
    assert code == 0


def test_table_budget_cap_enforced(capsys):
    code, _, err = run(capsys, "count", "--q", "73", "--family", "A",
                       "--d", "4", "--a", "1", "--b", "1",
                       "--table-budget", str(2**21))
    assert code == 1
    assert "exceeds the hard cap" in err


def test_run_config_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(backend="quantum")
    with pytest.raises(ValueError):
        cli.RunConfig(output_format="xml")
    for tolerance in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            cli.RunConfig(tolerance=tolerance)


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ("count", "--q", "73", "--family", "A", "--d", "4", "--a", "5",
     "--b", "11", "--check"),
    ("verify", "--q", "9"),
])
def test_non_finite_tolerance_is_refused(capsys, argv, tolerance):
    code, out, err = run(capsys, *argv, "--backend", "float",
                         "--tolerance", tolerance)
    assert (code, out) == (1, "")
    assert err == ("hypercount: error: tolerance must be finite and "
                   "positive\n")


# ---------------------------------------------------------------------------
# Dependencies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("count", "--q", "73", "--family", "A", "--d", "4", "--a", "5",
     "--b", "11", "--check"),
    ("sweep", "--q-max", "40", "--samples", "3"),
    ("verify", "--q", "9"),
])
def test_cli_runs_with_sympy_blocked(argv):
    # sympy is a test extra only: the package must import and run without.
    script = ("import sys\n"
              "sys.modules['sympy'] = None\n"
              "from hypercount import cli\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    src = Path(hypercount.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_exits_cleanly(fmt):
    # Like `hypercount sweep ... | head -c 0`: the reader is gone before the
    # report is written, so every write to stdout fails with EPIPE.
    src = Path(hypercount.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypercount.cli", "sweep", "--q-max", "40",
         "--samples", "3", "--format", fmt],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == cli.EXIT_BROKEN_PIPE, stderr
    assert stderr == ""
