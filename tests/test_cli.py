from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lietilt.gzeta
from lietilt import cli
from lietilt.charring import ConsistencyError
from lietilt.cli import main
from lietilt.liechar import lie_tilting_decomp
from lietilt.modarith import mobius_divisors

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


# sha256 of the stdout of larger runs, recorded before the character product
# was rewritten orbit by orbit.
GOLDEN_SHA256 = {
    "decompose-tensor --r 1150 --p 5": "efeee86daac8a93d164dd3ff6deef400600db4da0c4395e9a984fef6e14e1152",
    "report-all --r-min 7 --r-max 120 --p 3": "d49bcb07e1822bae3e6ceb6864b3a9fcce04812c3cc1d28f4365db973f176288",
    "stohr --r 300": "13b8dc800174c2d7a69162e9c137379c3acfe6a600fe3d0f9561bcb2352dca0a",
    "theorem-a --r-min 7 --r-max 60 --format pretty": "f38951aaef2ab2e75dde875b080b1c24ef47eef9e08eb4be334dd63c7326b2bf",
    "theorem-b --p 2 --r-min 2 --r-max 4096": "54e0096320174e0d01f92d995dd6b341523c79a3122ee0df5ca2351c6029cfd6",
    "theorem-b --p 3 --r-min 2 --r-max 4000 --format csv": "0d099c2e9024c75ecd6f25cbd48e0c246ef289c6c30a90cd2ef5b0ab152ecf39",
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256))
def test_golden_sha256_large(argv, capsys):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_SHA256[argv]


# sha256 of the stdout of every subcommand in every format its parser offers
# (report-all renders json and pretty only), recorded before csv and pretty
# output were rendered from one column table and one partition-row rule.  The
# runs cover one degree and a range, a Stohr degree with no summands, a
# theorem-b degree that p does not divide (gzeta_dim is null), theorem-c
# clauses i to iv (r = 25, 9, 10, 18) and report-all at p = 2 and p = 3.
LAYOUT_SHA256 = dict(line.rsplit(" ", 1) for line in """
decompose-tensor --r 3 --p 2 --format json 3fb1a0005cba04cadd3fce70f7c1c0e5687874ba0f507f878dc5b32ecf62c60e
decompose-tensor --r 3 --p 2 --format csv a611ba1304e7958ed015e7647450145895123398866951057fda2baf39b7ab4b
decompose-tensor --r 3 --p 2 --format pretty f42ddcfe1110780041682f02e29d3c3c6ca804e70f5d860a6143a10b3e777d8f
decompose-lie --r 4 --p 5 --format json 408c34fa05708817996cecc60b02f1166b8deb7b026238e39e8c327b87bee019
decompose-lie --r 4 --p 5 --format csv 25d959c8c711af39eb9dda05d0f70aca735f401bfb559c837647c811d58429a2
decompose-lie --r 4 --p 5 --format pretty e5fe027497b2cbbe165a5be8f64b84eb03564d0b289026436c64bff8e6ee4ece
decompose-lie --r 8 --p 2 --format json 78f30f1aff28a8ad6261123663fdda31ff56af7217e0df2ace716ac6e7a45ad9
decompose-lie --r 8 --p 2 --format csv 480b5adeb1c626eb3c06ae34385456951726aaef2c69463887f8459140e66bf6
decompose-lie --r 8 --p 2 --format pretty e633ad0791b7cd3c4eabc709ce8d9d0dd698d567570f4288f36c6f1a76d77d33
stohr --r 9 --format json 2bebbf63aaf09c04000d13443a2fd0dea6d5cff1f4a76885758866e89cf7fdb0
stohr --r 9 --format csv 16c5ca90fd158d0275c440a456a36e962b2d9ebbb0c0bb897da97e2028ad8472
stohr --r 9 --format pretty e67d95c66519f0ed9cd35beddda4e6629aa8cc556084b4a4a73ffa842c8acb63
stohr --r 4 --format json 863389871566e02ab0f90d549978d9c1f87a91591b43f250c045948db9f20754
stohr --r 4 --format csv d5e9e70ba179b4e18c8be092c7e93a29cc8f6557fedb00476eb604772fbc2b43
stohr --r 4 --format pretty 85945e9c8631f5c26ef898e28c5ed239cbc6282bb92c3c94f8e949a813ef0be0
gzeta --r 9 --p 3 --format json 5c08e5dbe4f224fb61bc709accffa1155873c05b0ec7a6c8341ec08cb60a0427
gzeta --r 9 --p 3 --format csv 6a352e9091549af922516022191993687dc845fc9fc0f24527f818b4488600fc
gzeta --r 9 --p 3 --format pretty f95287bfabb33168bc4dfe7931e5a5da75b596d341855e78072ad1e40d65b83d
theorem-a --r 9 --format json f47eab9f35996368b02255422e92b1d1833ddb1f533d619152a2933825a84e8d
theorem-a --r 9 --format csv 2b8537c8bd018c975bff6b71cb6a7e17d7e2d142c3f37d5c7233a7aea851a705
theorem-a --r 9 --format pretty 3a88fab4f06e6b5df3f1893b6048b405f0d337c12dee6bacab86bfaa3e891a6c
theorem-a --r-min 7 --r-max 9 --format json 0b2f17aa1371a37ac7f45555f9b375ceaa2a56655a8c74a18648654a9826cd19
theorem-a --r-min 7 --r-max 9 --format csv 68a76464ba9fd2d657e223f73aadca5bbfa1f3a933ba3e56a329bcf8183e9dd7
theorem-a --r-min 7 --r-max 9 --format pretty b7461787b23d9fa8f7b8df8f4cd9645e17de21099471d98f2a2eecca8cbddec8
theorem-b --r 9 --p 3 --format json b07e340efc81157c056a569a7dd4fbc092702d816f3b4eae67d288b698ac4943
theorem-b --r 9 --p 3 --format csv d771032895d13d6698241da9042c84e6c9212a7d45f6479bd3209c041ae91a5d
theorem-b --r 9 --p 3 --format pretty a05999eec72692a8d2ff01daf4a8671acd9375db49f0601a46a1d7f6f5593b7c
theorem-b --r 10 --p 3 --format json 0491117ec5d4288097e932189d7a2a380e0bb3b27cd1a821a1053cc4bd009343
theorem-b --r 10 --p 3 --format csv 7ab4165d551f4559670594b6e24c8d3eb4aeff7a8c2e95385067da7a21c5587d
theorem-b --r 10 --p 3 --format pretty 8450ad0bc6249ee3160d7092175eeb98a08124b68c71f0e3aa97a0ac68ff68f2
theorem-b --r-min 2 --r-max 9 --p 3 --format json b98bf31ab3400551fa79c262929093f792b05a4fffb1a90568b812880f51f44a
theorem-b --r-min 2 --r-max 9 --p 3 --format csv f82d1db08862331070d0823024efe8b77fe30628cbddc332e4c78fbf7d9ab61d
theorem-b --r-min 2 --r-max 9 --p 3 --format pretty 7c6e090dbee25d415f53406cb13738e01f95fba47ddb4d2fed4448e8cf080dad
theorem-c --r 25 --p 5 --format json 70d667370c521e4ea838a25183c2387067c10ff55157d9d6b235d9aed826ff3f
theorem-c --r 25 --p 5 --format csv 18b38028f439ccc6ffc9e9ab9e34c10f965bca0ec5b3a597a594098c58f81eb8
theorem-c --r 25 --p 5 --format pretty 76dd6b66e6e17b6bf59885966ae1bd859aa09cea5a42752aab2a1ba8d8c2930c
theorem-c --r 9 --p 3 --format json 00ff46d4cf902a890a42b366138b25d7523fdd9f9f58250dd7bdf327b49c669f
theorem-c --r 9 --p 3 --format csv 171a9183918badfaa6c179505ddda74e65eae5d9dfae0e5d613408cf0a12ca4f
theorem-c --r 9 --p 3 --format pretty 6b372d977bec347ef32265a8e2e18aed405eea6d4c21f20d37463dfdb96beef6
theorem-c --r 10 --p 5 --format json 405a853e6274c472dbfd263e0309a36fe322eb78a668a4cbe54ee0188ff2c0a6
theorem-c --r 10 --p 5 --format csv fd47bfd92de90e32136767445f9b9d8ad323f0be000aa51dc1efe8215db8184b
theorem-c --r 10 --p 5 --format pretty ff6c04e5337df6d6450bbacae5801b0a5b4393583c5ec5db6d43be0c2f788307
theorem-c --r 18 --p 3 --format json 6653850989aab0477821aff77e4977ad41e77769168aac4d2328cfd3c2daa640
theorem-c --r 18 --p 3 --format csv 27f5aec2e30156c7816db981a19dc3f810d7712897d1b7577a1459285737192a
theorem-c --r 18 --p 3 --format pretty c33d178fa245b63c9d73a8d3dbe8066e750681be2f73fa5f8263381d3095aa2c
theorem-37 --r 9 --format json 1131c1352345264c06211a4c3b8e10989c3172d19b1062527731446701a3b6b5
theorem-37 --r 9 --format csv bb221426691ea0b4601c7bacd637c80cd8765e04cd1c58dc2fe30bbb2ce87f8f
theorem-37 --r 9 --format pretty ebd04e285319a991811a38f03675e41217e6976608046c576ce1eddea1480ce6
theorem-37 --r-min 7 --r-max 9 --format json 619211680825fcea1341a5ba9e818b75bd75a65c54753cc7b5a7ccd5dc7ad7b1
theorem-37 --r-min 7 --r-max 9 --format csv 87fac98a7887ae8bf3e8a084dbbcb2129830f7f324b5b70a7871acf50dea883f
theorem-37 --r-min 7 --r-max 9 --format pretty 0fb9dcf552af7d1d694b91776f2b8310f3d4dbbd0064d5954152e5adb58b57fb
report-all --r-min 7 --r-max 9 --format json 58aeed8be06ffb6483a296a06cca177e66baae5adb783b918612a073fffa214f
report-all --r-min 7 --r-max 9 --format pretty 11f1bf315c3ab396505418940d80c8a52ecbaa3a68835750227568cc11dbde04
report-all --r-min 7 --r-max 9 --p 3 --format json d88cd10221334112078e8a1e47bcda5c5ab2d4baa448f76db8855215f5b2f052
report-all --r-min 7 --r-max 9 --p 3 --format pretty 015671c49c5603ed8162d71c8447d48012d9724a59f69b16174bcae8bac6aea6
""".splitlines() if line)


@pytest.mark.parametrize("argv", list(LAYOUT_SHA256))
def test_every_layout_byte_for_byte(argv, capsys):
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == LAYOUT_SHA256[argv]


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


def test_theorem_37_csv_names_each_degree(capsys):
    # r = 7 and r = 9 both have odd weights, so a row without its degree is ambiguous.
    assert main(["theorem-37", "--r-min", "7", "--r-max", "9", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    payloads = _run_json(capsys, "theorem-37", "--r-min", "7", "--r-max", "9")
    assert rows == [["r", "weight", "multiplicity"]] + [
        [str(x["r"]), m, str(c)] for x in payloads for m, c in x["entries"].items()
    ]


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
    """The degrees whose profile is built, in order."""
    built = []
    gzeta_profile = lietilt.gzeta.gzeta_profile

    def counting_gzeta_profile(r, p):
        built.append(r)
        return gzeta_profile(r, p)

    # cli imports gzeta_profile by name; theorem_b_predicate reads the module's.
    monkeypatch.setattr(lietilt.gzeta, "gzeta_profile", counting_gzeta_profile)
    monkeypatch.setattr(lietilt.cli, "gzeta_profile", counting_gzeta_profile)
    return built


def test_theorem_b_range_builds_one_profile_per_even_degree(capsys, profiles_built):
    assert main(["theorem-b", "--r-min", "2", "--r-max", "12", "--p", "2"]) == 0
    capsys.readouterr()
    assert profiles_built == list(range(2, 13, 2))


def test_theorem_c_builds_one_profile(capsys, profiles_built):
    # The near-top row of theorem-c asks theorem_b_predicate once, at its own degree.
    assert main(["theorem-c", "--r", "18", "--p", "3"]) == 0
    capsys.readouterr()
    assert profiles_built == [18]


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


def _run_json(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_report_all_fields_match_the_single_commands(p, capsys):
    # report-all only puts side by side what the single-degree commands print.
    reports = _run_json(capsys, "report-all", "--r-min", "1", "--r-max", "40", "--p", str(p))
    assert [x["r"] for x in reports] == list(range(1, 41))
    for report in reports:
        r, degree = report["r"], ["--r", str(report["r"])]
        classified = p == 2 and r > 6
        assert report["tensor"] == _run_json(capsys, "decompose-tensor", *degree, "--p", str(p))["entries"]
        if classified:
            lie = _run_json(capsys, "theorem-37", *degree)
        else:
            lie = _run_json(capsys, "decompose-lie", *degree, "--p", str(p))
        assert report["lie"] == {"entries": lie["entries"], "verdict": lie["verdict"]}
        if r % p:
            assert report["gzeta"] is None
        else:
            gzeta = _run_json(capsys, "gzeta", *degree, "--p", str(p))
            assert report["gzeta"] == {"dim": gzeta["dim"], "is_p_power": gzeta["is_p_power"]}
        if classified:
            rows = _run_json(capsys, "theorem-a", *degree)["rows"]
            assert report["theorem_a_certified"] is all(row["certified"] for row in rows)
            assert report["theorem_37_verdict"] == lie["verdict"]
        else:
            assert report["theorem_a_certified"] is None and report["theorem_37_verdict"] is None


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
    assert main(["report-all", "--r-min", "7", "--r-max", "12"]) == 0
    capsys.readouterr()
    assert decomposed == list(range(7, 13))


def test_report_all_csv_rejected(monkeypatch, capsys):
    # The parser refuses it, so no degree's payload is built first.
    built = []
    help_text, p_mode, degrees, _ = cli.COMMANDS["report-all"]
    monkeypatch.setitem(cli.COMMANDS, "report-all", (help_text, p_mode, degrees, lambda r, p: built.append(r)))
    assert main(["report-all", "--r-min", "7", "--r-max", "200", "--format", "csv"]) == 2
    assert built == []
    err = capsys.readouterr().err
    assert err.startswith("usage: lietilt report-all ")
    assert "argument --format: invalid choice: 'csv'" in err


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


def test_gzeta_indivisible_degree_message(capsys):
    assert main(["gzeta", "--r", "4", "--p", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree must be a positive multiple of 3, got 4\n"


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
    assert main(["stohr", "--r", "3"]) == 2  # the bidegree splitting starts at degree 4
    assert capsys.readouterr().err == "error: degree must be at least 4, got 3\n"
    assert main(["theorem-37", "--r", "6"]) == 2  # the command, not lie_tilting_decomp, bounds the degree
    assert capsys.readouterr().err == "error: degree must be at least 7, got 6\n"
    assert main(["theorem-37", "--r-min", "5", "--r-max", "8"]) == 2  # a range stops at its first such degree
    assert capsys.readouterr().err == "error: degree must be at least 7, got 5\n"
    missing = tmp_path / "missing" / "x.json"
    assert main(["decompose-tensor", "--r", "3", "--p", "2", "--out", str(missing)]) == 2  # I/O error
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert main(["decompose-tensor", "--r", "3", "--p", "2", "--out", ""]) == 2  # opened as given, not as "."
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"


def test_witt_remainder_exits_one(capsys, monkeypatch):
    # Wrong Moebius signs leave a remainder in witt_weight_count(8, 0), which theorem-a reads.
    monkeypatch.setattr("lietilt.modarith.mobius_divisors", lambda n: [(d, 1) for d, _ in mobius_divisors(n)])
    assert main(["theorem-a", "--r", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failure: ") and "r=8, i=0" in captured.err
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


def test_witt_remainder_exits_one_without_asserts():
    # Under python -O every assert statement is gone; the check must not be one.
    src = str(Path(lietilt.__file__).parents[1])
    code = ("import sys, lietilt.modarith as m; signs = m.mobius_divisors; "
            "m.mobius_divisors = lambda n: [(d, 1) for d, _ in signs(n)]; "
            "from lietilt.cli import main; sys.exit(main(['theorem-a', '--r', '8']))")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("verification failure: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(("argv", "stdout", "code"), [
    pytest.param(["decompose-tensor", "--p", "2"], os.devnull, 2, id="usage"),
    pytest.param(["gzeta", "--r", "7", "--p", "2"], os.devnull, 2, id="domain"),
    pytest.param(["decompose-tensor", "--r", "3", "--p", "2", "--out", "{tmp}/missing/x.json"], os.devnull, 2,
                 id="out-missing-dir"),
    pytest.param(["decompose-tensor", "--r", "3", "--p", "2", "--out", ""], os.devnull, 2, id="out-empty"),
    pytest.param(["decompose-tensor", "--r", "3", "--p", "2"], "/dev/full", 2, id="stdout-full"),
    pytest.param(["--help"], "/dev/full", 2, id="help-stdout-full"),
    pytest.param(["theorem-b", "--help"], "/dev/full", 2, id="subcommand-help-stdout-full"),
    pytest.param(["theorem-37", "--r", "7"], None, 1, id="consistency-in-process"),
])
def test_exit_code_table(argv, stdout, code, tmp_path, capsys, monkeypatch):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if stdout is None:  # in process, with a forced verification failure
        def boom(r, p):
            raise ConsistencyError("forced")

        monkeypatch.setattr("lietilt.cli.lie_tilting_decomp", boom)
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
    # Only the tilting factor table is memoized; everything else is computed
    # afresh, so no caller can see another caller's result.
    memoized = set()
    for module in (lietilt.charring, lietilt.cli, lietilt.gzeta, lietilt.liechar, lietilt.modarith,
                   lietilt.report, lietilt.tiltchar):
        scopes = [vars(module)] + [vars(obj) for obj in vars(module).values() if isinstance(obj, type)]
        for scope in scopes:
            memoized |= {name for name, obj in scope.items()
                         if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}
    assert memoized == {"tilting_weyl_factors"}


def test_package_exports_each_name_once():
    names = lietilt.__all__
    assert len(names) == len(set(names))  # a name in two modules would be shadowed by the star imports
    assert all(hasattr(lietilt, name) for name in names)


def test_cli_import_skips_the_introspection_modules():
    # Each CLI run is a new process, so start-up is paid per verdict; dataclasses alone
    # pulls in inspect, ast, dis and tokenize.  -S keeps site's .pth imports out.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib")
    src = str(Path(lietilt.__file__).parents[1])
    code = f"import sys, lietilt.cli; print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert proc.stdout.split() == []


def test_console_script_entry_point_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["lietilt"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
