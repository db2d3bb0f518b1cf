"""CLI contract: JSON schema of records, exit codes, formats."""

import json
import subprocess
import sys

import pytest

from qwk import cli
from qwk.algebra import MultiPoly
from qwk.cli import main
from qwk.symbols import DENSITY, FourierSymbol, make_term, slot_names


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "qwk", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_correlator_command():
    code, out, _ = run_cli("correlator", "--g", "1", "--d", "2")
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "correlator"
    assert record["value"] == "1/24"


def test_correlator_with_oracle():
    code, out, _ = run_cli("correlator", "--g", "2", "--d", "2", "--hurwitz-oracle")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "7/5760" and record["hurwitz"] == "7/5760"
    assert record["match"] is True


def test_correlator_three_point():
    code, out, _ = run_cli("correlator", "--g", "0", "--d", "0,0,0")
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_usage_errors_exit_2():
    code, _, err = run_cli("correlator", "--g", "1", "--d", "not-a-list")
    assert code == 2
    code, _, _ = run_cli("correlator", "--d", "1")
    assert code == 2
    code, _, _ = run_cli("nonsense")
    assert code == 2
    code, out, err = run_cli("table", "--sum-max", "-1", "--format", "json")
    assert code == 2 and out == "" and "bounds must be >= 0" in err


def test_values_never_rendered_as_floats():
    code, out, _ = run_cli("table", "--g-max", "1", "--n-max", "2",
                           "--sum-max", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    for row in record["rows"]:
        assert isinstance(row["correlator"], str)
        assert "." not in row["correlator"]
        assert "." not in row["series_coefficient"]


def test_decimal_flag_is_marked():
    code, out, _ = run_cli("correlator", "--g", "1", "--d", "2", "--decimal")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "1/24"
    assert record["approx_decimal"].startswith("approx ")


def test_table_json_contents():
    code, out, _ = run_cli("table", "--g-max", "1", "--n-max", "2",
                           "--sum-max", "3", "--format", "json")
    record = json.loads(out)
    values = {(tuple(r["d"]), r["g"]): r["correlator"] for r in record["rows"]}
    assert values[((2,), 1)] == "1/24"
    assert values[((0, 3), 1)] == "1/24"
    # parity-violating entries are exact zeros
    assert values[((1,), 1)] == "0"


def test_table_md_and_csv_render():
    code, out, _ = run_cli("table", "--g-max", "1", "--n-max", "1",
                           "--sum-max", "2", "--format", "md")
    assert code == 0 and "hbar^1" in out and "1/24" in out
    code, out, _ = run_cli("table", "--g-max", "1", "--n-max", "1",
                           "--sum-max", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "g,n,d,level,monomial,correlator,series_coefficient"


def test_verify_identities_small():
    code, out, _ = run_cli("verify", "identities", "--order", "4", "--cases", "5")
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True and record["kind"] == "verdict"


def test_verify_exit_code_contract():
    code, out, _ = run_cli("verify", "string", "--g-max", "1", "--n-max", "2")
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert all(c["ok"] for c in record["checks"])


def test_verify_parallel_matches_serial():
    code1, out1, _ = run_cli("verify", "levels", "--g-max", "1", "--n-max", "2",
                             "--jobs", "1")
    code2, out2, _ = run_cli("verify", "levels", "--g-max", "1", "--n-max", "2",
                             "--jobs", "2")
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["checks"] == r2["checks"]


def test_jobs_default_from_environment():
    import os
    env = dict(os.environ, QWK_JOBS="2")
    proc = subprocess.run(
        [sys.executable, "-m", "qwk", "verify", "string", "--g-max", "0",
         "--n-max", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_jobs_from_environment_must_be_an_integer():
    import os
    env = dict(os.environ, QWK_JOBS="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "qwk", "verify", "string", "--g-max", "0",
         "--n-max", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--jobs" in proc.stderr and "'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_main_entry_point_in_process(capsys):
    assert main(["correlator", "--g", "1", "--d", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == "1/24"


def test_hurwitz_genus_zero_single_part():
    # r = 0 branch points: H_0((3)) = 1/3 by the closed form and by the count
    code, out, _ = run_cli("hurwitz", "--g", "0", "--mu", "3", "--oracle")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "1/3" and record["factorization_count"] == "1/3"
    assert record["match"] is True


def test_empty_verification_grid_exits_2():
    for argv, bound in ((("hurwitz-oracle", "--degree-cap", "0"), '"degree_cap": 0'),
                        (("main-theorem", "--sum-max", "-1"), '"sum_max": -1'),
                        (("bracket-oracle", "--cases", "0"), '"cases": 0'),
                        (("identities", "--cases", "0"), '"cases": 0'),
                        (("identities", "--cases", "-5"), '"cases": -5'),
                        (("bracket-oracle", "--modes", "0"), '"modes": 0'),
                        (("bracket-oracle", "--modes", "-1"), '"modes": -1')):
        code, out, err = run_cli("verify", *argv)
        assert code == 2, argv
        assert out == ""
        assert "nothing to verify" in err and bound in err, err


def test_hurwitz_oracle_degree_cap_above_count_cap_exits_2():
    # a cap above DEFAULT_DEGREE_CAP would walk every partition up to it
    code, out, err = run_cli("verify", "hurwitz-oracle", "--degree-cap", "21")
    assert code == 2 and out == ""
    assert "factorization-count cap 20" in err and '"degree_cap": 21' in err, err


def test_bracket_oracle_cases_all_compare():
    code, out, _ = run_cli("verify", "bracket-oracle", "--cases", "3", "--modes", "3")
    assert code == 0
    record = json.loads(out)
    assert [c["key"]["case"] for c in record["checks"]] == [1, 2, 3]
    assert all(c["compared"] >= 1 for c in record["checks"]), record["checks"]


def test_bracket_oracle_out_of_redraws_exits_2(monkeypatch, capsys):
    # integrated u0 is the central p0: every pair has a zero commutator
    u0 = FourierSymbol(DENSITY, (make_term(0, 1, MultiPoly.const(1, slot_names(1))),))
    monkeypatch.setattr(cli, "_random_symbol",
                        lambda rng, kind: FourierSymbol(kind, u0.terms))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bracket-oracle", "--cases", "2", "--modes", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "case 1: 21 draws compared no monomial" in captured.err
    assert '"cases": 2' in captured.err and '"modes": 3' in captured.err
