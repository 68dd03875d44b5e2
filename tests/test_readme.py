"""README.md against the package: its library doctest, the exact stdout of
each `$ lietilt ...` example, and its subcommand table."""

from __future__ import annotations

import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from lietilt import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# Each "$ lietilt ..." line is followed by its exact stdout, up to the next
# blank line or code fence.
EXAMPLES = re.findall(r"^\$ lietilt (.*)\n((?:[^$`\n].*\n)+)", README.read_text(), re.M)


def test_readme_library_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted and not failed


def test_readme_cli_examples_print_their_stated_output():
    assert EXAMPLES, "no lietilt examples found in README.md"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    got = [(argv, subprocess.run([sys.executable, "-m", "lietilt", *shlex.split(argv)], capture_output=True,
                                 text=True, env=env, timeout=60, check=True).stdout)
           for argv, _ in EXAMPLES]
    assert got == EXAMPLES


def test_readme_subcommand_table_lists_every_command():
    assert re.findall(r"^\| `([a-z0-9-]+)` ", README.read_text(), re.M) == list(cli.COMMANDS)
