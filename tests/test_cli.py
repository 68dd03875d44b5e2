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
    assert capsys.readouterr().out == (
        "r,p,kind,basis,weight,multiplicity\n3,2,tensor-power,tilting,3,1\n3,2,tensor-power,tilting,1,2\n"
    )


def test_pretty_tensor(capsys):
    assert main(["decompose-tensor", "--r", "3", "--p", "2", "--format", "pretty"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["r=3 p=2 kind=tensor-power basis=tilting", "  entries: 3=1 1=2"]
    assert out.endswith("\n")


# sha256 of the stdout of larger runs, recorded before the character product
# was rewritten orbit by orbit; the csv and pretty runs were re-recorded when
# both came to be rendered from the payload by one rule.
GOLDEN_SHA256 = {
    "decompose-tensor --r 1150 --p 5": "efeee86daac8a93d164dd3ff6deef400600db4da0c4395e9a984fef6e14e1152",
    "report-all --r-min 7 --r-max 120 --p 3": "d49bcb07e1822bae3e6ceb6864b3a9fcce04812c3cc1d28f4365db973f176288",
    "stohr --r 300": "13b8dc800174c2d7a69162e9c137379c3acfe6a600fe3d0f9561bcb2352dca0a",
    "theorem-a --r-min 7 --r-max 60 --format pretty": "76a469120b49d8867e21f31098fe6f38e3ff1ff1092bae313af4e6b8a6186b0b",
    "theorem-b --p 2 --r-min 2 --r-max 4096": "54e0096320174e0d01f92d995dd6b341523c79a3122ee0df5ca2351c6029cfd6",
    "theorem-b --p 3 --r-min 2 --r-max 4000 --format csv": "4574d8201754ce88aaee0edbe88b2cc1ff5b83c7f980770deb4b14dd55739c74",
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256))
def test_golden_sha256_large(argv, capsys):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_SHA256[argv]


# sha256 of the stdout of every subcommand in every format its parser offers
# (report-all renders json and pretty only).  The json lines were recorded
# before csv and pretty output were rendered from one column table and one
# partition-row rule; the csv and pretty lines were re-recorded when both came
# to be rendered from the payload by one rule.  The
# runs cover one degree and a range, a Stohr degree with no summands, a
# theorem-b degree that p does not divide (gzeta_dim is null), theorem-c
# clauses i to iv (r = 25, 9, 10, 18) and report-all at p = 2 and p = 3.
LAYOUT_SHA256 = dict(line.rsplit(" ", 1) for line in """
decompose-tensor --r 3 --p 2 --format json 3fb1a0005cba04cadd3fce70f7c1c0e5687874ba0f507f878dc5b32ecf62c60e
decompose-tensor --r 3 --p 2 --format csv 79a29d2ba3d3c3c89b9200b87f3ee153ff7d093398702855d8dbb7a3db30c30e
decompose-tensor --r 3 --p 2 --format pretty af11fbd063b84fccf2eedee1ba72500c3096ebdc1884fa3fcacafde444b72cbe
decompose-lie --r 4 --p 5 --format json 408c34fa05708817996cecc60b02f1166b8deb7b026238e39e8c327b87bee019
decompose-lie --r 4 --p 5 --format csv eee1b0f61aff7c90709649fc7b0498b58610c79ded705d407eab05d448304b94
decompose-lie --r 4 --p 5 --format pretty 4d9c7dc7a3769dc9cf0f3ff12c97d2fb11f0e8154e820d04283b0f83b4b1459a
decompose-lie --r 8 --p 2 --format json 78f30f1aff28a8ad6261123663fdda31ff56af7217e0df2ace716ac6e7a45ad9
decompose-lie --r 8 --p 2 --format csv 4562597d61c684a05d44d1e4e6300a4a43f2ea7949cf062b0ea6a884c58396bf
decompose-lie --r 8 --p 2 --format pretty cb64431e337e036d3e1a8d325535836c96971525678355ac3cbfc067892b9ec5
stohr --r 9 --format json 2bebbf63aaf09c04000d13443a2fd0dea6d5cff1f4a76885758866e89cf7fdb0
stohr --r 9 --format csv 18204fcf7c6a9053ec991f2324362946ec9f53351d0e337d270ca2edf323b7e7
stohr --r 9 --format pretty f0276328f5a02313fe4ff0a1da6d376112facdb539128da4dcccba874f605915
stohr --r 4 --format json 863389871566e02ab0f90d549978d9c1f87a91591b43f250c045948db9f20754
stohr --r 4 --format csv 4c44dde7a17ee100d1fba699c6e251be8970739e0d4127c8a9fec6ca15a95eb6
stohr --r 4 --format pretty 574539c21e36105ee830670baea0f4f5e56406caae5a99f531b10890c6e87219
gzeta --r 9 --p 3 --format json 5c08e5dbe4f224fb61bc709accffa1155873c05b0ec7a6c8341ec08cb60a0427
gzeta --r 9 --p 3 --format csv 4c2da9a1f2fcf2ce86639ac02807e26516234fbf6ccf24dc7f8e6d8c5326f552
gzeta --r 9 --p 3 --format pretty 4217a1a409900c027a4c8c1bbce4d55c094a1c61abd55e86641a151d04fa80cb
theorem-a --r 9 --format json f47eab9f35996368b02255422e92b1d1833ddb1f533d619152a2933825a84e8d
theorem-a --r 9 --format csv 9f0b3edecc13317484a132beb8b746a422a4ea3178b75a9613df8bc2702a4b29
theorem-a --r 9 --format pretty 84e935dc5fdaee2a39d0ea5bc5d41c4cdd7066cad3c2766a2c8caab8609b6e8e
theorem-a --r-min 7 --r-max 9 --format json 0b2f17aa1371a37ac7f45555f9b375ceaa2a56655a8c74a18648654a9826cd19
theorem-a --r-min 7 --r-max 9 --format csv 37cfc752b546175cd3154bacdc2f9ae94085ffccb843c4c0ebfc461872af0440
theorem-a --r-min 7 --r-max 9 --format pretty e16568b3c0fe5486a4f87195c663745b63c0917969bff8d2210071e33a7a3d42
theorem-b --r 9 --p 3 --format json b07e340efc81157c056a569a7dd4fbc092702d816f3b4eae67d288b698ac4943
theorem-b --r 9 --p 3 --format csv 89e8445ac90424bb85df5a16aaf0179be0cd62545198afcfd492a0ff2731d1a3
theorem-b --r 9 --p 3 --format pretty 86256b6ad42f251543eb9ff8429f4d0ddec19b72b01dd172af11136a58e37c17
theorem-b --r 10 --p 3 --format json 0491117ec5d4288097e932189d7a2a380e0bb3b27cd1a821a1053cc4bd009343
theorem-b --r 10 --p 3 --format csv 10537b7e793d3414c15e8f193759359ad342b967f80a114cbc599a4372bdf204
theorem-b --r 10 --p 3 --format pretty 30d4563bfa99f993f1d9330b28fc8655deb56ed96662360ad29ca4aa0d7f2c6a
theorem-b --r-min 2 --r-max 9 --p 3 --format json b98bf31ab3400551fa79c262929093f792b05a4fffb1a90568b812880f51f44a
theorem-b --r-min 2 --r-max 9 --p 3 --format csv afd898fcdbb751908834d3b20610cadc18add1f2c417075633f606bcd54eb66e
theorem-b --r-min 2 --r-max 9 --p 3 --format pretty d4a298317cf51e4cd8d29dd62ac214bfbe00f7f1fc650c6f694c58d16398e24c
theorem-c --r 25 --p 5 --format json 70d667370c521e4ea838a25183c2387067c10ff55157d9d6b235d9aed826ff3f
theorem-c --r 25 --p 5 --format csv 095f71db3adeef43dd23b8d70533d7e77c7f7caa8cdb331f25850b4768dfa033
theorem-c --r 25 --p 5 --format pretty 1cf9dce2294709148ab5c1f9c11a1718e3323a4d82328b539c4007d6c5e088c0
theorem-c --r 9 --p 3 --format json 00ff46d4cf902a890a42b366138b25d7523fdd9f9f58250dd7bdf327b49c669f
theorem-c --r 9 --p 3 --format csv 05aa57c907e782c2dc7cb2f47d53631ccc632728c071308f071b1218a0797fcb
theorem-c --r 9 --p 3 --format pretty 23ade5a548be0c296aede566ce62a2b3bb898b7de9f0aae412d1d5cfd43f5896
theorem-c --r 10 --p 5 --format json 405a853e6274c472dbfd263e0309a36fe322eb78a668a4cbe54ee0188ff2c0a6
theorem-c --r 10 --p 5 --format csv 5cb5491135a2a06fc14a7e5e81d55407f774c08a4b9a2b0b3c89b401b80e5f6f
theorem-c --r 10 --p 5 --format pretty 36ab2dc73f5ac0a7f7da7c1c8539dbb420dfed86fed45a059f4a24e2eeb857a4
theorem-c --r 18 --p 3 --format json 6653850989aab0477821aff77e4977ad41e77769168aac4d2328cfd3c2daa640
theorem-c --r 18 --p 3 --format csv 31a62ddb5704c668992bdd23e446e48d541852d34a5f6622c0ea17f30b25670d
theorem-c --r 18 --p 3 --format pretty bd3faf257f176714bb27c96cc399565b744b92ebc0afc021fc0c0c3ef88683d7
theorem-37 --r 9 --format json 1131c1352345264c06211a4c3b8e10989c3172d19b1062527731446701a3b6b5
theorem-37 --r 9 --format csv 20bf34e35be5af84a879707ab000c83a396d03c8da2f89ef907de6c4b9903cd2
theorem-37 --r 9 --format pretty 3b3e4019c687d3e79b99160abb03d570fad3a9bd3e293f8b821d289cf3d06dcc
theorem-37 --r-min 7 --r-max 9 --format json 619211680825fcea1341a5ba9e818b75bd75a65c54753cc7b5a7ccd5dc7ad7b1
theorem-37 --r-min 7 --r-max 9 --format csv 139d2c5e5cf998429066736db0165b39106cefac4ced6318e57acccf086b7029
theorem-37 --r-min 7 --r-max 9 --format pretty e7058ada74ba29c340624e7c2c1fa6278a1648d709c9272f078c5ef2238d5fae
report-all --r-min 7 --r-max 9 --format json 58aeed8be06ffb6483a296a06cca177e66baae5adb783b918612a073fffa214f
report-all --r-min 7 --r-max 9 --format pretty 4e9d154c5705e03e2e7a2d42b255ed2a01d90f42c6086a1b13fb3e7141b1587c
report-all --r-min 7 --r-max 9 --p 3 --format json d88cd10221334112078e8a1e47bcda5c5ab2d4baa448f76db8855215f5b2f052
report-all --r-min 7 --r-max 9 --p 3 --format pretty 434e43bbca063b757e4e9b03c21a916a0924f5115d34dc3b4dd79a0d616063b8
""".splitlines() if line)


@pytest.mark.parametrize("argv", list(LAYOUT_SHA256))
def test_every_layout_byte_for_byte(argv, capsys):
    assert main(argv.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == LAYOUT_SHA256[argv]


def _spelled(value) -> str:
    """A json scalar as a csv cell or a pretty field spells it: a string as itself, the rest as json."""
    return value if isinstance(value, str) else json.dumps(value)


def _scalars(fields: dict) -> dict:
    return {key: _spelled(value) for key, value in fields.items()
            if not isinstance(value, (dict, list)) and key != "provenance"}


def _expected_records(payload: dict) -> list[dict]:
    """The csv records of one payload: its scalar fields, then its own weight, row or summand weight."""
    if "entries" in payload:
        tails = [{"weight": m, "multiplicity": str(c)} for m, c in payload["entries"].items()]
    elif "rows" in payload:
        tails = [_scalars(row) for row in payload["rows"]]
    elif "summands" in payload:
        tails = [{**_scalars(x), "weight": m, "multiplicity": str(c)}
                 for x in payload["summands"] for m, c in x["entries"].items()]
    else:
        tails = [{}]
    return [{**_scalars(payload), **tail} for tail in tails] or [_scalars(payload)]


@pytest.mark.parametrize("argv", [argv for argv in LAYOUT_SHA256 if not argv.endswith(" json")])
def test_csv_and_pretty_keep_every_payload_field(argv, capsys):
    # csv and pretty are renderings of the json payload, so neither may drop a field of it.
    command, fmt = argv.rsplit(" --format ", 1)
    payloads = _run_json(capsys, *command.split())
    payloads = payloads if isinstance(payloads, list) else [payloads]
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        assert list(csv.DictReader(io.StringIO(out))) == [rec for x in payloads for rec in _expected_records(x)]
        return
    # A pretty block starts at each unindented line, which names every scalar field of its payload.
    heads = [line.split() for line in out.splitlines() if not line.startswith(" ")]
    assert len(heads) == len(payloads)
    for head, payload in zip(heads, payloads):
        assert [f"{key}={value}" for key, value in _scalars(payload).items()] == head


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
    assert capsys.readouterr().out == "r=4 p=2 kind=stohr\n  summands:\n"
    assert main(["stohr", "--r", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "r,p,kind\n4,2,stohr\n"  # the degree is still named


def test_stohr_csv(capsys):
    assert main(["stohr", "--r", "8", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r,p,kind,s,t,mult,weight,multiplicity"
    assert all(line.startswith("8,2,stohr,1,2,") for line in lines[1:])


def test_theorem_37_csv_names_each_degree(capsys):
    # r = 7 and r = 9 both have odd weights, so a row without its degree is ambiguous; each row
    # also carries its degree's verdict, the command's whole result.
    assert main(["theorem-37", "--r-min", "7", "--r-max", "9", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    payloads = _run_json(capsys, "theorem-37", "--r-min", "7", "--r-max", "9")
    assert rows == [["r", "p", "kind", "basis", "verdict", "weight", "multiplicity"]] + [
        [str(x["r"]), "2", "theorem-37", "tilting", x["verdict"], m, str(c)]
        for x in payloads for m, c in x["entries"].items()
    ]
    assert [row[4] for row in rows[1:] if row[0] == "8"] == ["not-tilting-certified"] * 4


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
    assert main(["decompose-tensor", "--r", "3", "--p", str(2**89 - 1)]) == 2  # a prime above TOP_MAX
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


PIPE = "pipe"  # read back: stdout must stay empty, stderr must hold one error line
CLOSED = "closed"  # the child starts with the file descriptor closed, as after `>&-` or `2>&-`
# The descriptor is open for reading only, so every write to it fails with EBADF.  This is how `2>&-`
# reaches the interpreter when a shell-script launcher starts it: the shell reopens the freed
# descriptor 2 on the script it reads.
READ_ONLY = "read-only"


def _child_stream(target: str):
    """The stdout or stderr argument of subprocess.run for one target of the table."""
    if target == PIPE:
        return subprocess.PIPE
    if target == READ_ONLY:
        return open(os.devnull)
    return open(os.devnull if target == CLOSED else target, "w")  # a CLOSED descriptor is closed after the fork


# stdout is where the child's stdout goes, or an exception that the Lie decomposition raises in process;
# stderr is where the child's stderr goes.
@pytest.mark.parametrize(("argv", "stdout", "stderr", "code"), [
    pytest.param(["decompose-tensor", "--p", "2"], PIPE, PIPE, 2, id="usage"),
    pytest.param(["gzeta", "--r", "7", "--p", "2"], PIPE, PIPE, 2, id="domain"),
    pytest.param(["decompose-tensor", "--r", "3", "--p", "2", "--out", "{tmp}/missing/x.json"], PIPE, PIPE, 2,
                 id="out-missing-dir"),
    pytest.param(["decompose-tensor", "--r", "3", "--p", "2", "--out", ""], PIPE, PIPE, 2, id="out-empty"),
    pytest.param(["decompose-tensor", "--r", "3", "--p", "2"], "/dev/full", PIPE, 2, id="stdout-full"),
    pytest.param(["--help"], "/dev/full", PIPE, 2, id="help-stdout-full"),
    pytest.param(["theorem-b", "--help"], "/dev/full", PIPE, 2, id="subcommand-help-stdout-full"),
    pytest.param(["decompose-tensor", "--r", "3", "--p", "2"], CLOSED, PIPE, 2, id="stdout-closed"),
    pytest.param(["--help"], CLOSED, PIPE, 2, id="help-stdout-closed"),
    # An error line that stderr cannot take is lost, never moved to stdout; the exit code still tells.
    pytest.param(["theorem-c", "--r", "6", "--p", "3"], PIPE, CLOSED, 2, id="stderr-closed"),
    pytest.param(["theorem-c", "--r", "6", "--p", "3"], PIPE, "/dev/full", 2, id="stderr-full"),
    pytest.param(["decompose-tensor", "--r", "3", "--p", "2"], "/dev/full", READ_ONLY, 2,
                 id="stdout-full-stderr-closed"),
    pytest.param(["theorem-37", "--r", "7"], ConsistencyError("forced"), PIPE, 1, id="consistency-in-process"),
    pytest.param(["decompose-lie", "--r", "7", "--p", "3"], KeyboardInterrupt(), PIPE, 2, id="interrupt-in-process"),
    pytest.param(["report-all", "--r-min", "1", "--r-max", "9"], MemoryError(), PIPE, 2,
                 id="memory-error-in-process"),
])
def test_exit_code_table(argv, stdout, stderr, code, tmp_path, capsys, monkeypatch):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if isinstance(stdout, BaseException):
        def boom(r, p):
            raise stdout

        monkeypatch.setattr("lietilt.cli.lie_tilting_decomp", boom)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("verification failure: " if code == 1 else "error: ")
    else:
        src = str(Path(lietilt.__file__).parents[1])
        closed = [fd for fd, target in ((1, stdout), (2, stderr)) if target == CLOSED]
        streams = [_child_stream(stdout), _child_stream(stderr)]
        try:
            proc = subprocess.run([sys.executable, "-m", "lietilt", *argv], stdout=streams[0], stderr=streams[1],
                                  text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
                                  preexec_fn=(lambda: [os.close(fd) for fd in closed]) if closed else None)
        finally:
            for stream in streams:
                if stream != subprocess.PIPE:
                    stream.close()
        assert proc.returncode == code
        if stdout == PIPE:
            assert proc.stdout == ""
        if stderr != PIPE:
            return
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
