"""Command-line front door.

Subcommands: kron, coeff, classify, classify-triple, classify-skew,
table, verify.  All output orderings are fixed, so identical
invocations produce byte-identical stdout; timing goes to stderr.

Exit codes: 0 success (and multiplicity-free for classify), 1 for a
negative classification or verification mismatches, 2 for usage errors
(bad grammar, a flag the subcommand does not read, degree mismatch,
exceeded ceilings) and faults outside the program (an unwritable
stdout, such as a closed pipe), each reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import factorial

from .cache import ProductCache
from .characters import TableCeilingError, character_table
from .classification import is_mf_pair, is_mf_skew_times_irr, is_mf_triple
from .expansion import CharacterExpansion
from .kronecker import ENGINES, kron_coefficient, kron_product
from .partitions import Partition, SkewShape, csv_field, format_partition, parse_integer, parse_partition, parse_skew
from .verdict import MfVerdict
from .verify import DEFAULT_CEILINGS, VERIFY_MODES


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one line on stderr."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _integer(text: str) -> int:
    """A degree argument, read by ``parse_integer`` under argparse's message."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _format_flag(sub: argparse.ArgumentParser, *extra: str) -> None:
    sub.add_argument("--format", choices=("text", "json", *extra), default="text")


def _engine_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--engine", choices=ENGINES, default="auto")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kronmf",
        description="Exact Kronecker products and the multiplicity-free classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kron", help="expand a Kronecker product")
    p.add_argument("lam")
    p.add_argument("mu")
    _format_flag(p, "csv")
    _engine_flag(p)

    p = sub.add_parser("coeff", help="one Kronecker coefficient g(lam,mu,nu)")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    _format_flag(p)
    _engine_flag(p)

    p = sub.add_parser("classify", help="multiplicity-free test for a pair")
    p.add_argument("lam")
    p.add_argument("mu")
    _format_flag(p)

    p = sub.add_parser("classify-triple", help="multiplicity-free test for a triple")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    _format_flag(p)

    p = sub.add_parser("classify-skew", help="multiplicity-free test for skew times irreducible")
    p.add_argument("skew")
    p.add_argument("alpha")
    _format_flag(p)

    p = sub.add_parser("table", help="exact character table")
    p.add_argument("n", type=_integer)
    _format_flag(p, "csv")
    p.add_argument("--force", action="store_true", help="bypass the character-table ceiling")

    p = sub.add_parser("verify", help="exhaustive verification sweep at one degree")
    p.add_argument("n", type=_integer)
    p.add_argument("--mode", choices=tuple(VERIFY_MODES), default="pairs")
    _format_flag(p)
    _engine_flag(p)
    p.add_argument("--jobs", type=_integer, default=1, help="only 1: every sweep runs in one process")
    p.add_argument("--cache", default=None, metavar="PATH", help="product cache file (pairs mode only)")
    p.add_argument("--force", action="store_true", help="bypass mode ceilings")

    return parser


def _usage(fn, *args):
    """fn(*args), a ValueError or OSError (a bad operand, an unopenable cache) reported as a usage error."""
    try:
        return fn(*args)
    except (ValueError, OSError) as exc:
        raise CliError(str(exc)) from None


def _operands(*texts: str) -> list[Partition]:
    """Parse partition operands that must all have one degree."""
    parts = [_usage(parse_partition, t) for t in texts]
    if len({p.n for p in parts}) > 1:
        raise CliError("degree mismatch: " + ", ".join(f"|{t}| = {p.n}" for t, p in zip(texts, parts)))
    return parts


def _render_expansion(exp: CharacterExpansion, fmt: str, left: Partition, right: Partition) -> str:
    # operands are rendered only where the format prints them: a long one
    # costs a walk over every part
    if fmt == "text":
        return str(exp)
    if fmt == "json":
        return json.dumps(
            {
                "left": str(left),
                "right": str(right),
                "n": exp.degree,
                "terms": [{"p": format_partition(p), "m": exp[p]} for p in exp.support()],
            },
            separators=(",", ":"),
        )
    lines = ["partition,multiplicity"]
    for p in exp.support():
        lines.append(f"{csv_field(format_partition(p))},{exp[p]}")
    return "\n".join(lines)


def _render_verdict(v: MfVerdict, fmt: str, operands: dict[str, Partition | SkewShape]) -> str:
    if fmt == "json":
        payload = {label: str(operand) for label, operand in operands.items()}
        payload.update(
            {
                "multiplicity_free": v.multiplicity_free,
                "clause": v.clause,
                "normalization": list(v.normalization),
            }
        )
        return json.dumps(payload, separators=(",", ":"))
    if not v.multiplicity_free:
        return "not multiplicity-free"
    norm = ", ".join(v.normalization) if v.normalization else "none"
    return f"multiplicity-free  clause={v.clause}  normalization={norm}"


def _cmd_kron(args) -> int:
    lam, mu = _operands(args.lam, args.mu)
    exp = kron_product(lam, mu, args.engine)
    print(_render_expansion(exp, args.format, lam, mu))
    return 0


def _cmd_coeff(args) -> int:
    lam, mu, nu = _operands(args.lam, args.mu, args.nu)
    g = kron_coefficient(lam, mu, nu, args.engine)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "lambda": format_partition(lam),
                    "mu": format_partition(mu),
                    "nu": format_partition(nu),
                    "n": lam.n,
                    "g": g,
                },
                separators=(",", ":"),
            )
        )
    else:
        print(g)
    return 0


def _print_verdict(predicate, fmt: str, operands: dict[str, Partition | SkewShape]) -> int:
    """Classify the operands, in order, and print the verdict: exit 0 if
    multiplicity-free, else 1.  A ValueError is a usage error."""
    verdict = _usage(predicate, *operands.values())
    print(_render_verdict(verdict, fmt, operands))
    return 0 if verdict else 1


def _cmd_classify(args) -> int:
    """Pair classification of two partitions of one degree."""
    lam, mu = _operands(args.lam, args.mu)
    return _print_verdict(is_mf_pair, args.format, {"left": lam, "right": mu})


def _cmd_classify_triple(args) -> int:
    """Triple classification of three partitions of one degree."""
    lam, mu, nu = _operands(args.lam, args.mu, args.nu)
    return _print_verdict(is_mf_triple, args.format, {"left": lam, "middle": mu, "right": nu})


def _cmd_classify_skew(args) -> int:
    """Classification of a skew character times an irreducible one of its size."""
    skew, alpha = _usage(parse_skew, args.skew), _usage(parse_partition, args.alpha)
    if skew.size != alpha.n:
        raise CliError(f"size mismatch: |{args.skew}| = {skew.size}, |{args.alpha}| = {alpha.n}")
    return _print_verdict(is_mf_skew_times_irr, args.format, {"skew": skew, "alpha": alpha})


def _spot_check_orthogonality(table) -> None:
    """Cheap sanity: trivial-row pairings before anything is printed."""
    nfact = factorial(table.degree)
    trivial = table.values[0]
    for i, row in enumerate(table.values):
        dot = sum(cs * x * y for cs, x, y in zip(table.class_sizes, trivial, row))
        if dot != (nfact if i == 0 else 0):
            raise AssertionError("character table failed the orthogonality spot check")


def _cmd_table(args) -> int:
    table = _usage(character_table, args.n, args.n if args.force else None)
    _spot_check_orthogonality(table)
    if args.format == "json":
        print(table.to_json())
    elif args.format == "csv":
        print(table.to_csv(), end="")
    else:
        labels = [format_partition(p) for p in table.rows]
        widths = [max(len(format_partition(c)), 1) for c in table.cols]
        widths = [
            max(w, *(len(str(row[j])) for row in table.values))
            for j, w in enumerate(widths)
        ]
        label_w = max(len("class size"), *(len(s) for s in labels))
        head = " ".join(c.rjust(w) for c, w in zip((format_partition(c) for c in table.cols), widths))
        print(f"{'':>{label_w}} {head}")
        print(f"{'class size':>{label_w}} " + " ".join(str(cs).rjust(w) for cs, w in zip(table.class_sizes, widths)))
        for label, row in zip(labels, table.values):
            print(f"{label:>{label_w}} " + " ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    return 0


def _cmd_verify(args) -> int:
    if args.n < 1:
        raise CliError("degree must be at least 1")
    if args.jobs != 1:
        raise CliError(f"--jobs takes only 1, got {args.jobs}: every sweep runs in one process")
    if args.mode != "pairs" and args.cache is not None:
        raise CliError(f"--cache applies to --mode pairs only, not {args.mode}")
    if args.mode == "engines" and args.engine != "auto":
        raise CliError("--engine does not apply to --mode engines, which runs both engines")
    ceiling = DEFAULT_CEILINGS[args.mode]
    if args.n > ceiling and not args.force:
        raise CliError(f"n={args.n} exceeds the {args.mode} ceiling {ceiling}; pass --force")
    # the only clock: it covers opening the cache as well as the sweep
    start = time.monotonic()
    kwargs = {} if args.mode == "engines" else {"engine": args.engine}
    if args.mode == "pairs":
        kwargs["cache"] = _usage(ProductCache, args.cache) if args.cache else None
    report = VERIFY_MODES[args.mode](args.n, **kwargs)
    wall_time = time.monotonic() - start
    print(report.to_json() if args.format == "json" else report.to_text())
    print(f"wall_time={wall_time:.3f}s", file=sys.stderr)
    return 0 if report.ok else 1


_COMMANDS = {
    "kron": _cmd_kron,
    "coeff": _cmd_coeff,
    "classify": _cmd_classify,
    "classify-triple": _cmd_classify_triple,
    "classify-skew": _cmd_classify_skew,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (CliError, TableCeilingError, OSError) as exc:
        if isinstance(exc, OSError) and sys.stdout is sys.__stdout__:
            # stdout may be what failed (a closed pipe, a full device): point
            # fd 1 at the null device, so that the flush at exit cannot fail
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
