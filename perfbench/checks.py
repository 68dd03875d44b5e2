"""Output checks for one lietilt invocation.

Independent of the program's code: dimensions come from a short
dimension-only copy of the tilting recursion and from the Witt necklace
formula, so a faster but wrong character core is caught here.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

KINDS = {
    "decompose-tensor": "tensor-power",
    "decompose-lie": "lie-power",
    "theorem-b": "theorem-b",
    "theorem-c": "theorem-c",
    "report-all": "report-all",
}


@lru_cache(maxsize=None)
def tilting_dim(m: int, p: int) -> int:
    """Dimension of the indecomposable tilting module T(m) in characteristic p."""
    if m <= p - 1:
        return m + 1
    if m <= 2 * p - 2:
        return 2 * p  # Weyl characters at m and at 2p - 2 - m
    k, i = divmod(m, p)
    if i == p - 1:
        return tilting_dim(k, p) * p
    return tilting_dim(k - 1, p) * 2 * p  # T(k - 1) twisted, times T(p + i)


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def necklace_count(r: int) -> int:
    """Dimension of the degree-r free Lie component on two letters."""
    total = sum(_mobius(d) * 2 ** (r // d) for d in range(1, r + 1) if r % d == 0)
    return total // r


def _is_p_power(r: int, p: int) -> bool:
    while r % p == 0 and r > 1:
        r //= p
    return r == 1


def _tilting_sum(entries: dict, p: int) -> int:
    return sum(c * tilting_dim(int(m), p) for m, c in entries.items())


def _check_item(command: str, r: int, p: int, item: dict) -> list[str]:
    where = f"{command} r={r} p={p}"
    if (item.get("r"), item.get("p"), item.get("kind")) != (r, p, KINDS[command]):
        return [f"{where}: output does not echo r, p and kind"]
    problems = []
    if command == "decompose-tensor" and _tilting_sum(item["entries"], p) != 2**r:
        problems.append(f"{where}: tilting dimensions do not sum to 2^r")
    if command == "decompose-lie" and _tilting_sum(item["entries"], p) != necklace_count(r):
        problems.append(f"{where}: tilting dimensions do not sum to the necklace count")
    if command == "report-all":
        if _tilting_sum(item["tensor"], p) != 2**r:
            problems.append(f"{where}: tensor dimensions do not sum to 2^r")
        if _tilting_sum(item["lie"]["entries"], p) != necklace_count(r):
            problems.append(f"{where}: Lie dimensions do not sum to the necklace count")
        gzeta_dim = item["gzeta"]["dim"] if r % p == 0 else None
        if r % p == 0 and gzeta_dim != (r - r // p if _is_p_power(r, p) else r - 1):
            problems.append(f"{where}: gzeta dimension breaks the dichotomy")
        # Characteristic 2 above degree 6: every theorem-a row is certified,
        # and the Lie power is tilting exactly in odd degree.
        if p == 2 and r > 6 and (item["theorem_a_certified"] is not True
                                 or (item["theorem_37_verdict"] == "tilting") != (r % 2 == 1)):
            problems.append(f"{where}: theorem-a or theorem-37 verdict is wrong")
    if command == "theorem-b":
        dim = item["gzeta_dim"]
        want_dim = None if r % p else (r - r // p if _is_p_power(r, p) else r - 1)
        want_holds = r % p != 0 or r == p or dim == r - 1
        if dim != want_dim or item["holds"] is not want_holds:
            problems.append(f"{where}: near-top predicate breaks the dichotomy")
    if command == "theorem-c":
        rows = item["rows"]
        if len(rows) != r // 2 + 1 or any(row["lambda1"] + row["lambda2"] != r for row in rows):
            problems.append(f"{where}: rows are not the two-row partitions of r")
        if any(row["claimed"] and not row["char_consistent"] for row in rows):
            problems.append(f"{where}: a claimed summand fails the character-consistency check")
    return problems


def _options(argv: list[str]) -> dict[str, int]:
    return {argv[i][2:]: int(argv[i + 1]) for i in range(1, len(argv), 2)}


def check(argv: list[str], code: int, stdout: bytes, stderr: bytes, reference: dict[str, str]) -> list[str]:
    """Problems with one invocation's result; empty when it is correct."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if stderr:
        problems.append("stderr is not empty: " + stderr.decode(errors="replace").strip()[-200:])
    want = reference.get(" ".join(argv))
    if want is not None and hashlib.sha256(stdout).hexdigest() != want:
        problems.append("stdout differs from the recorded reference")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    opts = _options(argv)
    p = opts.get("p", 2)
    if "r" in opts:
        degrees, items = [opts["r"]], [payload]
    else:
        degrees = list(range(opts["r-min"], opts["r-max"] + 1))
        items = payload if isinstance(payload, list) else []
        if len(items) != len(degrees):
            return problems + [f"{argv[0]}: expected {len(degrees)} results, got {len(items)}"]
    for r, item in zip(degrees, items):
        try:
            problems += _check_item(argv[0], r, p, item)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{argv[0]} r={r}: malformed output ({exc!r})")
    return problems
