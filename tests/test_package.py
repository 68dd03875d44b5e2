"""Rules for the source tree as a whole: what src/lietilt may import, and
which module may read the character layout."""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

from test_cli import LAYOUT_SHA256

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "lietilt"

# Every subcommand in every format its parser offers, the runs whose stdout test_cli pins.
STDLIB_RUNS = list(LAYOUT_SHA256)

STDLIB_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from lietilt.cli import main
codes = {}
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv] = main(argv.split())
print(json.dumps(codes))
"""


def test_every_subcommand_and_renderer_runs_on_the_standard_library_alone():
    # -I -S leave out site-packages and the environment, and only src is put on
    # sys.path, so a non-stdlib import anywhere in the package, also one made
    # only while rendering csv or pretty output, fails here.
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", STDLIB_CHILD, str(SRC), json.dumps(STDLIB_RUNS)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == dict.fromkeys(STDLIB_RUNS, 0), proc.stderr


def test_only_charring_reads_the_character_layout():
    # SymCharacter's row layout lives behind charring.py; every other module,
    # and the oracles, go through SymCharacter.from_row and .row.
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "charring.py"]
    found = [f"{path.relative_to(ROOT)}:{n}: {line.strip()}"
             for path in paths + [ROOT / "tests" / "oracles.py"]
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"\._(top|row)\b", line)]
    assert found == []


def test_no_package_module_imports_another_private_name():
    # A module's private helpers stay its own: the package builds on the public
    # names of its modules only.  Tests may still import private helpers.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.relative_to(ROOT)}:{node.lineno}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_public_surface_is_pinned():
    # Adding or removing a public name means editing this tuple, so the change shows up in review.
    import lietilt

    assert tuple(lietilt.__all__) == (
        "Basis", "ConsistencyError", "Decomposition", "Evidence", "GZetaProfile", "LieDecompReport", "Partition2",
        "StohrSummand", "SymCharacter", "TheoremARow", "TheoremCClause", "TheoremCRow", "Verdict", "basis_char",
        "char_lie_power", "char_simple", "char_tilting", "char_weyl", "decompose",
        "gzeta_profile", "is_p_power", "is_weyl_simple", "l4_weyl2_composition_factors", "lie_power_char",
        "lie_tilting_decomp", "metabelian_summand", "mobius_divisors", "natural_power_char", "poly_power_row",
        "prime_char", "stohr_pairs", "stohr_summand", "stohr_tilting_decomp", "tensor_power_decomp",
        "theorem_a_report", "theorem_b_predicate", "theorem_c_report",
        "tilting_bands", "tilting_weyl_factors", "two_row_partitions", "weight_set", "weyl_twist_identity",
        "witt_weight_count",
    )


def _names_read(paths: list[Path]) -> set[str]:
    """Every identifier that some expression in the given files reads: a bare name or an attribute."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_reader():
    # Library code that no command, report or acceptance criterion reads is deleted with its tests, so
    # every public name, and every public method or property of a record class, must be read by some
    # package module or by the acceptance tests.  A definition, an import or an __all__ entry is not a read.
    # Blind spot: an attribute counts by its name alone, so names shared across classes (.degree, .r,
    # .character) cannot be told apart, and record fields were audited by hand, not here.
    import lietilt

    read = _names_read(sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])
    records = [obj for obj in map(vars(lietilt).get, lietilt.__all__)
               if isinstance(obj, type) and issubclass(obj, tuple)]
    methods = {f"{cls.__name__}.{name}": name for cls in records for name, value in vars(cls).items()
               if not name.startswith("_") and isinstance(value, (property, classmethod, staticmethod, FunctionType))}
    unread = [name for name in lietilt.__all__ if name not in read]
    unread += [qualified for qualified, name in methods.items() if name not in read]
    assert unread == []
