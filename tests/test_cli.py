"""CLI contract: JSON schema of records, exit codes, formats."""

import json
import subprocess
import sys
import typing

import pytest

from qwk import cli
from qwk.algebra import MultiPoly
from qwk.cli import main
from qwk.symbols import DENSITY, FourierSymbol, make_term, slot_names
from test_memo_tables import MEMO_TABLES


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


def test_deep_one_point_key_with_oracle():
    # the density builds only the orbit its demand admits, and the 239-slot
    # full build at grade 0 never recurses once per slot
    code, out, err = run_cli("correlator", "--g", "60", "--d", "238", "--hurwitz-oracle")
    assert code == 0, err
    record = json.loads(out)
    assert record["match"] is True and record["value"] == record["hurwitz"] != "0"


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
    for argv, value in ((("correlator", "--g", "1", "--d", "2"), "1/24"),
                        (("hurwitz", "--g", "1", "--mu", "3"), "2")):
        code, out, _ = run_cli(*argv, "--decimal")
        assert code == 0
        record = json.loads(out)
        assert record["value"] == value
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


def test_removed_pool_and_cap_options_exit_2():
    # verification grids run in one process, and the factorization-count cap is fixed
    for argv, named in ((("verify", "string", "--g-max", "0", "--n-max", "2", "--jobs", "2"),
                         "--jobs"),
                        (("hurwitz", "--g", "1", "--mu", "3", "--oracle", "--cap", "5"),
                         "--cap")):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "", argv
        assert named in err, err


def test_main_entry_point_in_process(capsys):
    assert main(["correlator", "--g", "1", "--d", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == "1/24"


def test_metadata_says_whether_memo_tables_were_warm(capsys):
    # runtime_ms mixes cold and warm runs; metadata.memo tells them apart
    assert {(t.__module__, t.__qualname__) for t in cli._MEMO_TABLES} == MEMO_TABLES
    code, out, _ = run_cli("correlator", "--g", "2", "--d", "1,2")
    assert code == 0 and json.loads(out)["metadata"]["memo"] == "cold"
    for argv in (["correlator", "--g", "2", "--d", "1,2"],
                 ["verify", "levels", "--g-max", "1", "--n-max", "2"]):
        for table in cli._MEMO_TABLES:
            table.cache_clear()
        for memo in ("cold", "warm"):
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["metadata"]["memo"] == memo, argv


def test_metadata_memo_is_warm_with_only_shared_prefixes(capsys):
    # a nested-bracket intermediate alone is enough to make a run warm
    from qwk.qkdv import _prefix
    _prefix((4, 1), 2, 1)
    for table in cli._MEMO_TABLES:
        if table is not _prefix:
            table.cache_clear()
    assert _prefix.cache_info().currsize
    assert main(["correlator", "--g", "2", "--d", "1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["memo"] == "warm"


def test_hurwitz_genus_zero_single_part():
    # r = 0 branch points: H_0((3)) = 1/3 by the closed form and by the count
    code, out, _ = run_cli("hurwitz", "--g", "0", "--mu", "3", "--oracle")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "1/3" and record["factorization_count"] == "1/3"
    assert record["match"] is True


def test_empty_verification_grid_exits_2():
    for argv, bound in ((("hurwitz-oracle", "--degree-cap", "0"), '"degree_cap": 0'),
                        (("hurwitz-oracle", "--g-max", "-1"), '"g_max": -1'),
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


def test_hurwitz_negative_genus_or_insertion_exits_2():
    for argv in (("--g", "1", "--d=-1,2"), ("--g", "-1", "--d", "0,0,0,0,0")):
        code, out, err = run_cli("hurwitz", *argv)
        assert code == 2 and out == "", argv
        assert "negative genus grade or insertion" in err, err


def test_correlator_negative_genus_or_insertion_exits_2():
    # the library's refusal, the same message as hurwitz --d
    for argv in (("--g", "-1", "--d", "1"), ("--g", "1", "--d=-1,2")):
        code, out, err = run_cli("correlator", *argv)
        assert code == 2 and out == "", argv
        assert "negative genus grade or insertion" in err, err


def test_hurwitz_negative_genus_partition_exits_2():
    for argv in (("--mu", "1,1,1,1"), ("--mu", "1,1,1,1", "--oracle")):
        code, out, err = run_cli("hurwitz", "--g", "-1", *argv)
        assert code == 2 and out == "", argv
        assert "negative genus grade" in err, err


def test_hurwitz_oracle_partition_above_count_cap_exits_2():
    code, out, err = run_cli("hurwitz", "--g", "1", "--mu", "21", "--oracle")
    assert code == 2 and out == ""
    assert "factorization-count cap 20" in err and "Traceback" not in err, err
    code, out, _ = run_cli("hurwitz", "--g", "1", "--mu", "3", "--oracle")
    assert code == 0 and json.loads(out)["match"] is True


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


def test_cli_annotations_resolve():
    # annotations are strings under ``from __future__ import annotations``;
    # each must name something ``qwk.cli`` imports at module level
    functions = [f for f in vars(cli).values()
                 if callable(f) and getattr(f, "__module__", None) == "qwk.cli"]
    assert cli._random_symbol in functions
    for f in functions:
        typing.get_type_hints(f)
