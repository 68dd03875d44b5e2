"""Rules for the source tree as a whole: what src/lietilt may import, which
module may read the character layout, and that the contract runs every
function the package defines."""

from __future__ import annotations

import ast
import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import lietilt
from test_cli import GOLDEN_SHA256, LAYOUT_SHA256

ROOT = Path(__file__).resolve().parents[1]
# The package under test, which need not be the one beside this file: tests/mutants.py runs this
# file against a changed copy of src/.
PACKAGE = Path(lietilt.__file__).resolve().parent
SRC = PACKAGE.parent

# What the package promises and so must keep working: every run whose stdout test_cli pins (every
# subcommand in every format its parser offers, and the golden large runs), the acceptance tests
# (which import only the standard library besides lietilt) and the README's library doctest.
CONTRACT_RUNS = list(GOLDEN_SHA256) + list(LAYOUT_SHA256)

# One child runs the contract under sys.setprofile, started before lietilt is first imported, so
# that no memo is warm, and records every code object it enters.  It prints the exit code of each
# run and the functions, methods, property getters and class or static methods defined in
# src/lietilt, cached ones unwrapped, that no part of the contract entered.
CONTRACT_CHILD = """
import contextlib, doctest, importlib, inspect, io, json, pkgutil, sys
src, tests, readme, runs = sys.argv[1:]
sys.path[:0] = [src, tests]
entered = set()
def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(record)
from lietilt.cli import main
codes = {}
for argv in json.loads(runs):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv] = main(argv.split())
import test_acceptance
for name, test in vars(test_acceptance).items():
    if name.startswith("test_"):
        test()
with contextlib.redirect_stdout(io.StringIO()):
    doctest_failed = doctest.testfile(readme, module_relative=False).failed
sys.setprofile(None)

import lietilt
defined = {}
def collect(owner, module):
    for value in vars(owner).values():
        if isinstance(value, type) and value.__module__ == module:
            collect(value, module)
            continue
        value = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
        fn = inspect.unwrap(value.fget if isinstance(value, property) else value)
        code = getattr(fn, "__code__", None)
        if code is not None and code.co_filename.startswith(lietilt.__path__[0]):
            defined[code] = fn.__module__.rpartition(".")[2] + "." + fn.__qualname__
for info in pkgutil.iter_modules(lietilt.__path__):
    if info.name != "__main__":
        module = importlib.import_module("lietilt." + info.name)
        collect(module, module.__name__)
unentered = sorted(name for code, name in defined.items() if code not in entered)
print(json.dumps({"codes": codes, "doctest_failed": doctest_failed, "unentered": unentered}))
"""

# Library code that no command, report or acceptance criterion runs is deleted with its tests.  These
# are the exceptions, each with the reason it stays.
ALLOWED_UNENTERED = {
    "charring.SymCharacter.__init__": "the zero character, built only from a zero factor, which no command produces",
    "charring.SymCharacter.support": "perfbench/tracer.py counts the terms of each traced product through it",
    "charring.Partition2._make": "the README promises that _replace validates, and test_records.py pins it",
    "tiltchar.Decomposition._make": "the README promises that _replace validates, and test_records.py pins it",
    "cli._write_failed": "entered only on a failed write, which test_exit_code_table pins in a child process",
    "cli._Parser.print_help": "entered only on a failed write, which test_exit_code_table pins in a child process",
    "cli._failed": "entered only on a failed run, which test_exit_code_table pins",
}


@functools.lru_cache(maxsize=None)
def _traced_contract() -> dict:
    # -I -S leave out site-packages and the environment, and only src and tests are put on sys.path,
    # so a non-stdlib import anywhere in the package, also one made only while rendering csv or pretty
    # output, fails here.
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", CONTRACT_CHILD, str(SRC), str(ROOT / "tests"),
                           str(ROOT / "README.md"), json.dumps(CONTRACT_RUNS)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_subcommand_and_renderer_runs_on_the_standard_library_alone():
    traced = _traced_contract()
    assert traced["codes"] == dict.fromkeys(CONTRACT_RUNS, 0)
    assert traced["doctest_failed"] == 0


def test_every_package_function_is_entered_by_the_contract():
    # An entry that the contract now enters, or a function that no longer exists, fails as well.
    assert _traced_contract()["unentered"] == sorted(ALLOWED_UNENTERED)


def _names(tree: ast.AST) -> set[str]:
    """Every identifier that tree reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_oracle_is_named_by_a_test():
    # An oracle checks nothing unless another test file names it, or an oracle that is itself named does.
    # Oracles are top-level and their names unique, so unlike the package's methods a name is enough.
    tests = ROOT / "tests"
    oracles = {node.name: node for node in ast.parse((tests / "oracles.py").read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = set().union(*(_names(ast.parse(path.read_text())) for path in tests.glob("*.py")
                         if path.name != "oracles.py")) & oracles.keys()
    named = set()
    while todo:
        name = todo.pop()
        named.add(name)
        todo |= (_names(oracles[name]) & oracles.keys()) - named
    assert sorted(oracles.keys() - named) == []


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
