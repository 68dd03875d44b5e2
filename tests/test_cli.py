from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lietilt.gzeta
from lietilt.charring import ConsistencyError
from lietilt.cli import main
from lietilt.liechar import lie_tilting_decomp

GOLDEN_TENSOR = (
    '{"r":3,"p":2,"kind":"tensor-power","basis":"tilting","entries":{"3":1,"1":2},'
    '"provenance":"tilting multiplicities by greedy highest-weight elimination"}\n'
)
GOLDEN_GZETA = (
    '{"r":9,"p":3,"kind":"gzeta","dim":6,"is_p_power":true,'
    '"provenance":"signed binomial coefficient sequence and subset-sum rank"}\n'
)
GOLDEN_LIE = (
    '{"r":4,"p":5,"kind":"lie-power","basis":"tilting","entries":{"2":1},"verdict":"tilting",'
    '"provenance":"necklace weight counts, then greedy tilting elimination"}\n'
)


# -- golden outputs -----------------------------------------------------


def test_golden_tensor_json(capsys):
    assert main(["decompose-tensor", "--r", "3", "--p", "2"]) == 0
    assert capsys.readouterr().out == GOLDEN_TENSOR


def test_golden_gzeta_json(capsys):
    assert main(["gzeta", "--r", "9", "--p", "3"]) == 0
    assert capsys.readouterr().out == GOLDEN_GZETA


def test_golden_lie_json(capsys):
    assert main(["decompose-lie", "--r", "4", "--p", "5"]) == 0
    assert capsys.readouterr().out == GOLDEN_LIE


def test_golden_tensor_csv(capsys):
    assert main(["decompose-tensor", "--r", "3", "--p", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "weight,multiplicity\n3,1\n1,2\n"


def test_pretty_tensor(capsys):
    assert main(["decompose-tensor", "--r", "3", "--p", "2", "--format", "pretty"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "r=3 p=2 tensor-power (tilting basis)"
    assert out.endswith("\n")


# -- per-command payloads ----------------------------------------------


def test_lie_verdict_not_tilting(capsys):
    assert main(["decompose-lie", "--r", "4", "--p", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "not-tilting-certified"
    assert payload["entries"] == {"2": 1, "0": -1}


def test_stohr_payload(capsys):
    assert main(["stohr", "--r", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "stohr"
    assert [(x["s"], x["t"]) for x in payload["summands"]] == [(4, 1), (1, 3)]
    for x in payload["summands"]:
        assert all(c > 0 for c in x["entries"].values())


def test_stohr_empty_degree(capsys):
    assert main(["stohr", "--r", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["summands"] == []
    assert main(["stohr", "--r", "4", "--format", "pretty"]) == 0
    assert "(none)" in capsys.readouterr().out


def test_stohr_csv(capsys):
    assert main(["stohr", "--r", "8", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s,t,mult,weight,multiplicity"
    assert all(line.startswith("1,2,") for line in lines[1:])


def test_theorem_a_payload(capsys):
    assert main(["theorem-a", "--r", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {(row["lambda1"], row["lambda2"]): row for row in payload["rows"]}
    assert rows[(8, 0)]["evidence"] == "zero-weight-space"
    assert rows[(7, 1)]["expected"] is False
    assert rows[(6, 2)]["evidence"] == "stohr-summand"
    assert all(row["certified"] for row in payload["rows"])


def test_theorem_b_single_and_null_dim(capsys):
    assert main(["theorem-b", "--r", "3", "--p", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["gzeta_dim"] is None


def test_theorem_b_range(capsys):
    assert main(["theorem-b", "--p", "2", "--r-min", "2", "--r-max", "4"]) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert [x["r"] for x in payloads] == [2, 3, 4]
    assert [x["holds"] for x in payloads] == [True, True, False]
    assert [x["gzeta_dim"] for x in payloads] == [1, None, 2]


@pytest.fixture
def profiles_built(monkeypatch):
    """The degrees whose coefficient sequence is built, in order."""
    built = []
    c_sequence = lietilt.gzeta.c_sequence

    def counting_c_sequence(r, p):
        built.append(r)
        return c_sequence(r, p)

    monkeypatch.setattr(lietilt.gzeta, "c_sequence", counting_c_sequence)
    return built


def test_theorem_b_range_builds_one_profile_per_even_degree(capsys, profiles_built):
    assert main(["theorem-b", "--r-min", "2", "--r-max", "12", "--p", "2"]) == 0
    capsys.readouterr()
    assert profiles_built == list(range(2, 13, 2))


def test_report_all_builds_one_profile_per_even_degree(capsys, profiles_built):
    assert main(["report-all", "--r-min", "7", "--r-max", "12"]) == 0
    capsys.readouterr()
    assert profiles_built == [8, 10, 12]


def test_theorem_c_payload(capsys):
    assert main(["theorem-c", "--r", "9", "--p", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["claimed"] for row in payload["rows"]] == [False, False, True, True, False]
    assert all(row["clause"] == "ii" for row in payload["rows"])


def test_theorem_37_payload(capsys):
    assert main(["theorem-37", "--r", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "tilting"
    assert main(["theorem-37", "--r", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "not-tilting-certified"


def test_report_all_range(capsys):
    assert main(["report-all", "--r-min", "4", "--r-max", "7"]) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert [x["r"] for x in payloads] == [4, 5, 6, 7]
    assert payloads[0]["gzeta"] == {"dim": 2, "is_p_power": True}
    assert payloads[1]["gzeta"] is None
    assert payloads[3]["theorem_37_verdict"] == "tilting"
    assert payloads[3]["theorem_a_certified"] is True
    assert payloads[0]["theorem_37_verdict"] is None  # degree too small


def test_range_payloads_ascend(capsys):
    for command in ("report-all", "theorem-37"):
        assert main([command, "--r-min", "7", "--r-max", "12"]) == 0
        assert [x["r"] for x in json.loads(capsys.readouterr().out)] == list(range(7, 13))


def test_report_all_decomposes_each_lie_power_once(capsys, monkeypatch):
    decomposed = []

    def counting_lie_tilting_decomp(r, p):
        decomposed.append(r)
        return lie_tilting_decomp(r, p)

    monkeypatch.setattr("lietilt.cli.lie_tilting_decomp", counting_lie_tilting_decomp)
    monkeypatch.setattr("lietilt.report.lie_tilting_decomp", counting_lie_tilting_decomp)
    assert main(["report-all", "--r-min", "7", "--r-max", "12"]) == 0
    capsys.readouterr()
    assert decomposed == list(range(7, 13))


def test_report_all_csv_rejected(capsys):
    assert main(["report-all", "--r-min", "4", "--r-max", "5", "--format", "csv"]) == 2


# -- output destination -------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    assert main(["decompose-tensor", "--r", "3", "--p", "2", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == GOLDEN_TENSOR


# -- exit codes ---------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    # A missing degree is reported by the subcommand, naming only the options it takes.
    assert main(["decompose-tensor", "--p", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lietilt decompose-tensor ")
    assert err.endswith("lietilt decompose-tensor: error: the following arguments are required: --r\n")
    assert "--r-min" not in err
    assert main(["report-all", "--r-min", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lietilt report-all ")
    assert err.endswith("lietilt report-all: error: the following arguments are required: --r-max\n")
    assert "--r R " not in err
    # A bad degree combination is reported by the subcommand too.
    assert main(["theorem-37", "--r-min", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lietilt theorem-37 ")
    assert err.endswith("lietilt theorem-37: error: missing --r (or --r-min and --r-max)\n")
    assert main(["report-all", "--r-min", "9", "--r-max", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lietilt report-all ")
    assert err.endswith("lietilt report-all: error: --r-min must not exceed --r-max\n")
    assert main(["gzeta", "--r", "8", "--p", "4"]) == 2  # not a prime
    assert main(["theorem-b", "--p", "2", "--r-min", "5", "--r-max", "3"]) == 2
    assert main(["theorem-b", "--p", "2", "--r", "3", "--r-min", "2", "--r-max", "4"]) == 2
    assert main(["theorem-b", "--r", "4097", "--p", "2"]) == 2
    assert main(["theorem-b", "--p", "3", "--r-min", "2", "--r-max", "4097"]) == 2
    assert "must not exceed" in capsys.readouterr().err
    assert main(["theorem-b", "--r", "4096", "--p", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(("name", "takes_p", "single", "ranged"), [
    ("decompose-tensor", True, True, False),
    ("decompose-lie", True, True, False),
    ("stohr", False, True, False),
    ("gzeta", True, True, False),
    ("theorem-a", False, True, True),
    ("theorem-b", True, True, True),
    ("theorem-c", True, True, False),
    ("theorem-37", False, True, True),
    ("report-all", True, False, True),
])
def test_subcommand_help_lists_its_options(name, takes_p, single, ranged, capsys):
    assert main([name, "--help"]) == 0
    out = capsys.readouterr().out
    assert ("--p P" in out) == takes_p
    assert ("--r R" in out) == single
    assert ("--r-min R_MIN" in out) == ("--r-max R_MAX" in out) == ranged


def test_domain_errors_exit_two(tmp_path, capsys):
    assert main(["gzeta", "--r", "7", "--p", "2"]) == 2  # p does not divide r
    assert "error" in capsys.readouterr().err
    assert main(["theorem-a", "--r", "5"]) == 2  # degree too small
    assert main(["theorem-c", "--r", "15", "--p", "3"]) == 2
    assert main(["theorem-c", "--r", "6", "--p", "3"]) == 2  # near-top row is no exception at m = 1
    assert main(["decompose-tensor", "--r", "3", "--p", str(2**89 - 1)]) == 2  # prime beyond the exact test
    capsys.readouterr()
    missing = tmp_path / "missing" / "x.json"
    assert main(["decompose-tensor", "--r", "3", "--p", "2", "--out", str(missing)]) == 2  # I/O error
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_verification_failure_exits_one(capsys, monkeypatch):
    def boom(r):
        raise ConsistencyError("forced")

    monkeypatch.setattr("lietilt.cli.theorem_37_report", boom)
    assert main(["theorem-37", "--r", "7"]) == 1
    assert "verification failure" in capsys.readouterr().err


@pytest.mark.parametrize(("argv", "stdout", "code"), [
    pytest.param(["decompose-tensor", "--p", "2"], os.devnull, 2, id="usage"),
    pytest.param(["gzeta", "--r", "7", "--p", "2"], os.devnull, 2, id="domain"),
    pytest.param(["decompose-tensor", "--r", "3", "--p", "2", "--out", "{tmp}/missing/x.json"], os.devnull, 2,
                 id="out-missing-dir"),
    pytest.param(["decompose-tensor", "--r", "3", "--p", "2"], "/dev/full", 2, id="stdout-full"),
    pytest.param(["--help"], "/dev/full", 2, id="help-stdout-full"),
    pytest.param(["theorem-b", "--help"], "/dev/full", 2, id="subcommand-help-stdout-full"),
    pytest.param(["theorem-37", "--r", "7"], None, 1, id="consistency-in-process"),
])
def test_exit_code_table(argv, stdout, code, tmp_path, capsys, monkeypatch):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if stdout is None:  # in process, with a forced verification failure
        def boom(r):
            raise ConsistencyError("forced")

        monkeypatch.setattr("lietilt.cli.theorem_37_report", boom)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "verification failure" in err
    else:
        src = str(Path(lietilt.__file__).parents[1])
        with open(stdout, "w") as sink:
            proc = subprocess.run([sys.executable, "-m", "lietilt", *argv], stdout=sink, stderr=subprocess.PIPE,
                                  text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == code
        err = proc.stderr
    assert "Traceback" not in err
    # argparse puts its usage text, indented past the first line, ahead of the error line.
    lines = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
    assert len(lines) == 1, err


def test_memo_policy():
    # Only the tilting factor table and the primality test are memoized; everything
    # else is computed afresh, so no caller can see another caller's result.
    memoized = set()
    for module in (lietilt.charring, lietilt.cli, lietilt.gzeta, lietilt.liechar, lietilt.modarith,
                   lietilt.report, lietilt.tiltchar):
        scopes = [vars(module)] + [vars(obj) for obj in vars(module).values() if isinstance(obj, type)]
        for scope in scopes:
            memoized |= {name for name, obj in scope.items()
                         if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}
    assert memoized == {"tilting_weyl_factors", "_is_prime"}


def test_package_exports_each_name_once():
    names = lietilt.__all__
    assert len(names) == len(set(names))  # a name in two modules would be shadowed by the star imports
    assert all(hasattr(lietilt, name) for name in names)


def test_cli_import_skips_the_introspection_modules():
    # Each CLI run is a new process, so start-up is paid per verdict; dataclasses alone
    # pulls in inspect, ast, dis and tokenize.  -S keeps site's .pth imports out.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    src = str(Path(lietilt.__file__).parents[1])
    code = f"import sys, lietilt.cli; print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert proc.stdout.split() == []
