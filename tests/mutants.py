"""Mutation checks: each entry breaks one kernel of the package on purpose,
and names the test file that must catch it.

The file name does not match test_*.py, so a plain `pytest` run never
collects this module; run it by path:

    PYTHONPATH=src python -m pytest -q tests/mutants.py

An entry is (file under src/lietilt, old text, new text, test file).  Its
test copies src/ to a temporary directory, replaces the one occurrence of
the old text in the copy, and runs the named test file against the copy;
that run must fail.  A claim that a test catches a mutation belongs here as
an entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = {
    # Every product of characters runs through convolve; each row of it must reach the last wanted term.
    "convolve-truncation": ("modarith.py", "b[: n - i]", "b[: n - i - 1]", "test_charring.py"),
    # Same product, wrong cost: with the shorter list always outside, a dense row times a twisted Weyl
    # factor pays one pass over the factor's zeros per entry of the row.
    "convolve-outer-by-length": ("modarith.py", "if k and next(", "if False and next(", "test_modarith.py"),
    # Witt's necklace sum needs the Moebius signs, not only the squarefree divisors.
    "mobius-sign": ("modarith.py", "(d * q, -mu)", "(d * q, mu)", "test_liechar.py"),
    # Donkin: each factor n of T(b) gives p*n + p - 1 + a and p*n + p - 1 - a.
    "donkin-shift-sign": ("tiltchar.py", "shifts = (a, -a) if a else (0,)", "shifts = (a, a) if a else (0,)",
                          "test_tiltchar.py"),
    "miller-recurrence": ("modarith.py", "acc += (fixed - k * c) * row[k - i]", "acc += (fixed + k * c) * row[k - i]",
                          "test_modarith.py"),
    # Without E*P the first factor's row stays right; a product of two powers, as in a Stohr row, goes wrong.
    "product-e-update": ("modarith.py", "zip(convolve(e, coeffs), pd)", "zip(e + [0] * (len(coeffs) - 1), pd)",
                         "test_liechar.py"),
    # A tilting step must subtract every Weyl factor of T(w).
    "tilting-step-two-factors": ("tiltchar.py", "for u in tilting_weyl_factors(w, p) if",
                                 "for u in tilting_weyl_factors(w, p)[:2] if", "test_tiltchar.py"),
    "lucas-recurrence": ("gzeta.py", "row[-1] * (k - 1 - nd) * pow(k, -1, p)", "row[-1] * (k - nd) * pow(k, -1, p)",
                         "test_gzeta.py"),
    # The profile must see every entry of a row, not only the last one.
    "profile-one-entry-per-row": ("gzeta.py", "all(set(row) == {1} for row in", "all(row[-1] == 1 for row in",
                                  "test_gzeta.py"),
    "necklace-divisibility": ("liechar.py", "        if rem:\n            raise ConsistencyError(f\"necklace sum",
                              "        if False:\n            raise ConsistencyError(f\"necklace sum",
                              "test_liechar.py"),
    # The witness check behind every deeper theorem-a row: a bidegree summand's tilting support is fixed.
    "stohr-support-pattern": ("liechar.py", "if not dec.is_nonnegative or set(dec.entries) != expected:",
                              "if False:", "test_liechar.py"),
    # The near-top row is certified when the engine agrees with the expectation, also when both say no.
    "theorem-a-certification": ("report.py", "certified = near_top == expected", "certified = near_top",
                                "test_report.py"),
    # Clause III excepts the row (p^m, p^m); claiming it contradicts the stated list at (10, 5).
    "theorem-c-clause-iii-exception": ("report.py", "exceptions.add(Partition2(pm, pm))", "pass", "test_report.py"),
    # Each band of T(m) needs multiplicity k, not only a nonzero one.
    "char-consistent-band": ("report.py", "top // 2 + 1]) >= k for", "top // 2 + 1]) >= 1 for", "test_report.py"),
    # Every positive weight of r's parity must occur in the tensor power, not only stay non-negative.
    "tensor-positivity": ("tiltchar.py", "any(dec.coefficient(m) <= 0 for", "any(dec.coefficient(m) < 0 for",
                          "test_tiltchar.py"),
    # The csv and pretty layouts, each caught by the per-layout sha256 of test_cli.py.
    "csv-columns-swapped": ("cli.py", '"clause", "claimed", "char_consistent"),',
                            '"clause", "char_consistent", "claimed"),', "test_cli.py"),
    "csv-python-bools": ("cli.py", "writerows([_text(record[c]) for c", "writerows([record[c] for c", "test_cli.py"),
    "row-rule-repeats-lambda2": ("cli.py", 'if key not in ("lambda1", "lambda2"))', 'if key != "lambda1")',
                                 "test_cli.py"),
    # A public method that nothing in the contract calls is dead code.
    "unused-public-method": ("charring.py", "    __hash__ = None  # characters are compared, not hashed\n",
                             "    __hash__ = None  # characters are compared, not hashed\n\n"
                             "    def unused(self) -> int:\n        return 0\n", "test_package.py"),
    # A decomposition iterates its entries by descending weight, however they were given.
    "entries-ascend": ("tiltchar.py", "dict(sorted(pairs, reverse=True))", "dict(sorted(pairs))", "test_records.py"),
    # The payload envelope: the provenance comes after the command's own fields.
    "provenance-before-fields": ("cli.py", '**fields, "provenance": PROVENANCE[kind]}',
                                 '"provenance": PROVENANCE[kind], **fields}', "test_cli.py"),
    # theorem-37 refuses a degree below 7 itself; lie_tilting_decomp takes any degree.
    "theorem-37-degree-bound": ("cli.py", 'lie_tilting_decomp(at_least(r, 7, "degree"), 2)', "lie_tilting_decomp(r, 2)",
                                "test_cli.py"),
    # Only a range prints as a json array; a single --r prints one object.
    "json-single-as-array": ("cli.py", "json.dumps(payloads[0] if single else payloads,", "json.dumps(payloads,",
                             "test_cli.py"),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_fails_its_test_file(name, tmp_path):
    module, old, new, test_file = MUTANTS[name]
    src = tmp_path / "src"
    # Without the bytecode caches, since a mutant of the same length and mtime would load the old bytecode.
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "lietilt" / module
    text = path.read_text()
    assert text.count(old) == 1, f"{old!r} occurs {text.count(old)} times in {module}"
    path.write_text(text.replace(old, new))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", str(ROOT / "tests" / test_file)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=600,
    )
    # Exit code 1 is a failed test; 2 and above mean the run broke before testing anything.
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
