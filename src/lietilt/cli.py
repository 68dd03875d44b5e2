"""Command line interface.

Subcommands cover single decompositions (decompose-tensor, decompose-lie,
stohr, gzeta), the classification sweeps (theorem-a, theorem-b, theorem-c,
theorem-37), and a batch driver (report-all).  Output is JSON by default,
with csv and pretty as alternatives, both rendered from the JSON payload by
one rule: its scalar fields first, then each nested field.

Exit codes: 0 on success, 1 on a verification failure (a computed result
contradicting a structural guarantee), 2 on a usage, domain or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .charring import ConsistencyError
from .gzeta import gzeta_profile, is_p_power, theorem_b_predicate
from .liechar import LieDecompReport, lie_tilting_decomp, stohr_pairs, stohr_tilting_decomp
from .modarith import at_least, prime_char
from .report import theorem_a_report, theorem_c_report
from .tiltchar import tensor_power_decomp

__all__ = ["build_parser", "main"]

PROVENANCE = {
    "tensor-power": "tilting multiplicities by greedy highest-weight elimination",
    "lie-power": "necklace weight counts, then greedy tilting elimination",
    "stohr": "bidegree Weyl product characters in the tilting basis",
    "gzeta": "signed binomial coefficient sequence and subset-sum rank",
    "theorem-a": "zero weight space, coefficient-sequence dichotomy, and bidegree summand coverage",
    "theorem-b": "coefficient-sequence dimension dichotomy",
    "theorem-c": "stated exception lists with one-subtraction character consistency",
    "theorem-37": "odd-degree tilting with signed certificates for even degrees",
}

# Largest degree any --r, --r-min or --r-max accepts.  Work grows fast with r:
# decompose-tensor --r 4096 --p 2 alone takes about 1.9 s (1.86-2.08 s; 2-vCPU Intel Xeon, CPython 3.11.7).
R_MAX = 4096


def _prime(text: str) -> int:
    try:
        return prime_char(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    if value > R_MAX:
        raise argparse.ArgumentTypeError(f"must not exceed {R_MAX}, got {value}")
    return value


def _resolve_degrees(args: argparse.Namespace) -> tuple[list[int], bool]:
    """Return (degrees, is_single) from --r or --r-min/--r-max.

    A bad combination is reported by the subcommand's own parser, so the
    usage line names the subcommand and its options.
    """
    parser = args.command_parser
    r = getattr(args, "r", None)
    r_min = getattr(args, "r_min", None)
    r_max = getattr(args, "r_max", None)
    if r is not None:
        if r_min is not None or r_max is not None:
            parser.error("give either --r or --r-min/--r-max, not both")
        return [r], True
    if r_min is not None and r_max is not None:
        if r_min > r_max:
            parser.error("--r-min must not exceed --r-max")
        return list(range(r_min, r_max + 1)), False
    parser.error("missing --r (or --r-min and --r-max)")
    raise AssertionError  # parser.error never returns


def _payload(kind: str, r: int, p: int, **fields) -> dict:
    """One degree's payload: r, p and kind, then the command's own fields, then its provenance."""
    return {"r": r, "p": p, "kind": kind, **fields, "provenance": PROVENANCE[kind]}


def _entries_obj(entries: dict[int, int]) -> dict[str, int]:
    return {str(m): c for m, c in entries.items()}  # a Decomposition holds them by descending weight


def payload_tensor(r: int, p: int) -> dict:
    dec = tensor_power_decomp(r, p)
    return _payload("tensor-power", r, p, basis=dec.basis.value, entries=_entries_obj(dec.entries))


def _lie_payload(kind: str, rep: LieDecompReport) -> dict:
    dec = rep.decomposition
    return _payload(kind, dec.r, dec.p, basis=dec.basis.value, entries=_entries_obj(dec.entries),
                    verdict=rep.verdict.value)


def payload_lie(r: int, p: int) -> dict:
    return _lie_payload("lie-power", lie_tilting_decomp(r, p))


def payload_stohr(r: int, p: int) -> dict:
    summands = [{"s": x.s, "t": x.t, "mult": x.mult, "entries": _entries_obj(stohr_tilting_decomp(x).entries)}
                for x in stohr_pairs(r)]
    return _payload("stohr", r, p, summands=summands)


def payload_gzeta(r: int, p: int) -> dict:
    return _payload("gzeta", r, p, dim=gzeta_profile(r, p).dim, is_p_power=is_p_power(r, p))


def payload_theorem_a(r: int, p: int) -> dict:
    rows = [{"lambda1": row.partition.lambda1, "lambda2": row.partition.lambda2, "expected": row.expected,
             "evidence": row.evidence.value, "certified": row.certified} for row in theorem_a_report(r)]
    return _payload("theorem-a", r, p, rows=rows)


def payload_theorem_b(r: int, p: int) -> dict:
    if r % p:  # no profile to build; the predicate still validates r
        holds, dim = theorem_b_predicate(r, p), None
    else:
        prof = gzeta_profile(r, p)
        holds, dim = prof.near_top_summand, prof.dim
    return _payload("theorem-b", r, p, holds=holds, gzeta_dim=dim)


def payload_theorem_c(r: int, p: int) -> dict:
    rows = [{"clause": row.clause.value, "lambda1": row.partition.lambda1, "lambda2": row.partition.lambda2,
             "claimed": row.claimed, "char_consistent": row.char_consistent} for row in theorem_c_report(r, p)]
    return _payload("theorem-c", r, p, rows=rows)


def payload_theorem_37(r: int, p: int) -> dict:
    return _lie_payload("theorem-37", lie_tilting_decomp(at_least(r, 7, "degree"), 2))


def _pick(payload: dict, *keys: str) -> dict:
    return {key: payload[key] for key in keys}


def payload_report_all(r: int, p: int) -> dict:
    classified = p == 2 and r > 6
    lie = payload_lie(r, p)  # at p = 2 and r > 6 its entries and verdict are theorem-37's
    # The Lie part runs first and the rest in key order, so a ConsistencyError names the first failing check.
    return {
        "r": r,
        "p": p,
        "kind": "report-all",
        "tensor": payload_tensor(r, p)["entries"],
        "lie": _pick(lie, "entries", "verdict"),
        "gzeta": None if r % p else _pick(payload_gzeta(r, p), "dim", "is_p_power"),
        "theorem_a_certified": all(row.certified for row in theorem_a_report(r)) if classified else None,
        "theorem_37_verdict": lie["verdict"] if classified else None,
    }


# name -> (help, --p mode, degree mode, payload), in --help order.  The --p mode
# is "required", "default2" or None (a characteristic-2 command); the degree
# mode says whether the command takes --r ("single"), --r-min/--r-max
# ("range") or either ("both").
COMMANDS = {
    "decompose-tensor": ("tilting multiplicities of the r-fold tensor power", "required", "single", payload_tensor),
    "decompose-lie": ("tilting content and verdict for the degree-r Lie power", "required", "single", payload_lie),
    "stohr": ("characteristic-2 bidegree summands of the degree-r Lie power", None, "single", payload_stohr),
    "gzeta": ("near-top submodule dimension profile (requires p | r)", "required", "single", payload_gzeta),
    "theorem-a": ("characteristic-2 summand classification for degree r > 6", None, "both", payload_theorem_a),
    "theorem-b": ("near-top summand predicate", "required", "both", payload_theorem_b),
    "theorem-c": ("odd-characteristic classification at p-power-shaped degrees", "required", "single",
                  payload_theorem_c),
    "theorem-37": ("characteristic-2 tilting dichotomy for degree r > 6", None, "both", payload_theorem_37),
    "report-all": ("batch report across a degree range", "default2", "range", payload_report_all),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed --help write exits 2."""

    def print_help(self, file=None) -> None:
        # argparse's own printer drops OSError, so --help to a full disk would exit 0.
        file = file or sys.stdout
        try:
            file.write(self.format_help())
            file.flush()
        except OSError as exc:
            self.exit(_write_failed(exc, file is sys.stdout))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lietilt",
        description="Exact tilting decompositions of tensor and Lie powers for SL(2) in prime characteristic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, p_mode, degrees, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(command_parser=sp)
        # A report-all degree nests two weight maps, which one csv record per weight cannot tell apart.
        formats = ("json", "pretty") if name == "report-all" else ("json", "csv", "pretty")
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--out", default=None, help="write output to a file instead of stdout")
        if p_mode == "required":
            sp.add_argument("--p", type=_prime, required=True)
        elif p_mode == "default2":
            sp.add_argument("--p", type=_prime, default=2)
        # A command with one degree mode requires its options; "both" is left to _resolve_degrees.
        if degrees in ("single", "both"):
            sp.add_argument("--r", type=_positive, required=degrees == "single")
        if degrees in ("range", "both"):
            sp.add_argument("--r-min", type=_positive, required=degrees == "range")
            sp.add_argument("--r-max", type=_positive, required=degrees == "range")
    return parser


def _dispatch(args: argparse.Namespace) -> tuple[list[dict], bool]:
    """The payload of every degree asked for, and whether a single --r asked."""
    degrees, single = _resolve_degrees(args)
    *_, payload = COMMANDS[args.command]
    p = getattr(args, "p", 2)  # the characteristic-2 commands take no --p
    return [payload(r, p) for r in degrees], single


def _split(fields: dict) -> tuple[dict, list]:
    """The scalar fields of a payload or of a nested record, provenance aside, and its nested (key, value) fields."""
    head = {key: value for key, value in fields.items() if not isinstance(value, (dict, list)) and key != "provenance"}
    return head, [(key, value) for key, value in fields.items() if isinstance(value, (dict, list))]


def _text(value) -> str:
    """A scalar as csv and pretty print it: a string as itself, anything else as JSON spells it."""
    return value if isinstance(value, str) else json.dumps(value)


def _records(fields: dict) -> list[dict]:
    """The csv records of a payload: its scalar fields, followed by one record per weight of a
    weight map and by the records of each item of a list; with neither, the scalar fields alone."""
    head, nested = _split(fields)
    records = []
    for _, value in nested:
        if isinstance(value, dict):
            records += [{**head, "weight": m, "multiplicity": c} for m, c in value.items()]
        else:
            records += [{**head, **record} for item in value for record in _records(item)]
    return records or [head]


def render_csv(payloads: list[dict]) -> str:
    records = [record for payload in payloads for record in _records(payload)]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, list(dict.fromkeys(key for record in records for key in record)), lineterminator="\n")
    writer.writeheader()
    writer.writerows({key: _text(value) for key, value in record.items()} for record in records)
    return buf.getvalue()


def _pretty(fields: dict, indent: str = "", label: str = "") -> list[str]:
    """The scalar fields on one line, then each nested field indented below it: a weight map or a
    record as its own block, a list as its key and then one block per item."""
    head, nested = _split(fields)
    words = [f"{label}:"] if label else []
    lines = [indent + " ".join(words + [f"{key}={_text(value)}" for key, value in head.items()])]
    for key, value in nested:
        if isinstance(value, dict):
            lines += _pretty(value, indent + "  ", key)
        else:
            lines += [f"{indent}  {key}:"] + [line for item in value for line in _pretty(item, indent + "    ")]
    return lines


def render(payloads: list[dict], single: bool, fmt: str) -> str:
    """The text of a run; json prints a single --r as one object, a range as an array."""
    if fmt == "json":
        return json.dumps(payloads[0] if single else payloads, separators=(",", ":")) + "\n"
    if fmt == "csv":
        return render_csv(payloads)
    return "\n".join(line for payload in payloads for line in _pretty(payload)) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payloads, single = _dispatch(args)
        text = render(payloads, single, args.format)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    except OSError as exc:
        return _write_failed(exc, args.out is None)
    return 0


def _write_failed(exc: OSError, to_stdout: bool) -> int:
    """Report a failed output write in one error line; the exit code is 2."""
    if to_stdout:
        # The interpreter flushes stdout again at exit; aim that flush at the null device.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
