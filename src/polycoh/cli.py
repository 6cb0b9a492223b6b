"""Command-line front end.

Subcommands: check (verdict over a ring), primes (the congruence-class
answer), witness (a decomposition at one prime), decompose (all of them),
catalog (table dump), verify (brute-force cross-check suites), and
molien-verify (invariant-theory sweep over the monomial families).

Each subcommand's answer is one document: its ``_cmd_*`` function returns
the JSON object and the text lines that render it, and :func:`main` alone
prints one of the two, as ``--format`` asks.  The process exit status is 0
whenever evaluation succeeded, regardless of the mathematical verdict;
nonzero means bad input or an internal error.  JSON output is byte-stable
for fixed inputs.

Every number a user writes, in a ring, a degree list, an entry name or an
option, is read by :func:`~polycoh.ntheory.int_of_digits`: ASCII digits,
spaces around them allowed, and nothing else.  A ring's primes are checked
once, by :class:`PrimeSpec`.  The grammar declares ``--degrees`` and
``--format`` once each, in parent parsers, and :func:`build_parser` builds
it once per process.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from contextlib import nullcontext
from functools import cache

from . import __version__
from .catalog import Catalog, DegreeMultiset, builtin
from .decompose import decompose, decompose_at_prime
from .errors import InvalidTypeError, NotAPrimeError, PolycohError, RingSpecError
from .molien import doubled_degrees, group_order, verify_degrees
from .ntheory import divisors, int_of_digits, prime_factors
from .realizability import (
    PrimeSpec,
    congruence_classes,
    realizable_at_prime,
    realizable_over,
)
from .residues import as_json_dict, make
from .verify import check_integral_realizability, check_p3_realizability


def parse_ring(text: str) -> PrimeSpec:
    """Translate a coefficient-ring description into its non-unit primes.

    Accepted forms: "Z" (all primes), "Q" (none), "F_p" (just p),
    "Z[1/a,1/b,...]" (all primes not dividing the inverted integers),
    "primes=2,5" (an explicit list), and "primes=mod:N:a1,a2" (the primes
    in the given residue classes).  Each number is read by
    :func:`int_of_digits` and each prime checked by :class:`PrimeSpec`.
    """
    t = text.strip()
    try:
        if t == "Z":
            return PrimeSpec.all_primes()
        if t == "Q":
            return PrimeSpec.finite(())
        m = re.fullmatch(r"F_(.+)", t)
        if m:
            return PrimeSpec.finite((int_of_digits(m.group(1), RingSpecError),))
        m = re.fullmatch(r"Z\[(.*)\]", t)
        if m:
            excluded: set[int] = set()
            for piece in m.group(1).split(","):
                piece = piece.strip()
                mm = re.fullmatch(r"1/(.+)", piece)
                if not mm:
                    raise RingSpecError(f"cannot parse inverted element {piece!r}")
                k = int_of_digits(mm.group(1), RingSpecError)
                if k == 0:
                    raise RingSpecError("cannot invert 0")
                excluded.update(prime_factors(k))
            return PrimeSpec.cofinite(sorted(excluded))
        if t.startswith("primes=mod:"):
            parts = t[len("primes=mod:") :].split(":")
            if len(parts) != 2:
                raise RingSpecError(f"expected primes=mod:N:a1,a2,..., got {text!r}")
            modulus, residues = parts
            return PrimeSpec.listable(make(
                int_of_digits(modulus, RingSpecError),
                [int_of_digits(a, RingSpecError) for a in residues.split(",")],
            ))
        if t.startswith("primes="):
            listed = t[len("primes=") :].split(",")
            return PrimeSpec.finite(int_of_digits(p, RingSpecError) for p in listed)
    except NotAPrimeError as exc:
        raise RingSpecError(str(exc)) from None
    raise RingSpecError(f"cannot parse ring description {text!r}")


def parse_degrees(text: str, cat: Catalog) -> DegreeMultiset:
    """Parse '--degrees' input: comma lists and/or entry names joined by +.

    "4,6,8", "SU(5)+Sp(2)" and "4,4+C_6" are all accepted.
    """
    def degrees():
        if not text.strip():
            return
        for token in text.split("+"):
            token = token.strip()
            if re.fullmatch(r"[\d\s,]+", token):
                for piece in filter(None, map(str.strip, token.split(","))):
                    yield int_of_digits(piece, InvalidTypeError)
            else:
                yield from cat.degrees_of(cat.lookup(token))

    return DegreeMultiset.of(degrees())


def _cmd_check(args, cat: Catalog):
    target = parse_degrees(args.degrees, cat)
    spec = parse_ring(args.ring)
    report = realizable_over(cat, target, spec)
    ps = as_json_dict(report.prime_set)
    lines = [
        f"degrees: {', '.join(map(str, target)) or '(none)'}",
        f"ring primes: {spec.describe()}",
        f"verdict: {'realizable' if report.verdict else 'not realizable'}",
        f"occurrence classes: N={ps['modulus']}, residues={ps['residues']}",
    ]
    for p, dec in sorted(report.witnesses.items()):
        lines.append(f"witness at p={p}: {dec}")
    if report.failing_prime is not None:
        lines.append(f"failing prime: {report.failing_prime}")
    if report.failing_class is not None:
        a, n = report.failing_class
        lines.append(f"failing class: {a} mod {n}")
    return report.to_json_dict(), lines


def _cmd_primes(args, cat: Catalog):
    target = parse_degrees(args.degrees, cat)
    modulus, residues = congruence_classes(cat, target)
    doc = {
        "degrees": list(target.degrees),
        "modulus": modulus,
        "residues": residues,
    }
    return doc, [f"N={modulus}, residues={residues}"]


def _cmd_witness(args, cat: Catalog):
    target = parse_degrees(args.degrees, cat)
    ok, dec = realizable_at_prime(cat, target, args.prime)
    doc = {
        "degrees": list(target.degrees),
        "prime": args.prime,
        "realizable": ok,
    }
    if not ok:
        return doc, [f"not realizable at p={args.prime}"]
    doc["witness"] = list(dec.names)
    return doc, [f"p={args.prime}: {dec}"]


def _cmd_decompose(args, cat: Catalog):
    target = parse_degrees(args.degrees, cat)
    if args.prime is not None:
        decs = decompose_at_prime(cat, target, args.prime)
    else:
        decs = decompose(cat, target)
    doc = {
        "degrees": list(target.degrees),
        "decompositions": [list(d.names) for d in decs],
    }
    if args.prime is not None:
        doc["prime"] = args.prime
    return doc, [str(d) for d in decs] or ["no decompositions"]


def _cmd_catalog(args, cat: Catalog):
    lines = []
    for section in ("families", "sporadics"):
        lines.append(f"{section}:")
        for row in getattr(cat, section):
            cond = f"; conditions {row.constraints}" if row.constraints else ""
            lines.append(
                f"  {row.ident}: degrees {row.degree_formula}{cond};"
                f" occurs for {row.prime_condition}"
            )
    return cat.to_json_dict(), lines


def _cmd_verify(args, cat: Catalog):
    integral = check_integral_realizability(cat, args.max_degree, args.max_count)
    p3 = check_p3_realizability(cat, args.max_degree, min(args.max_count, 3))
    doc = {
        name: {"checked": suite.checked, "mismatches": suite.mismatches}
        for name, suite in (("integral", integral), ("p3", p3))
    }
    return doc, [integral.summary(), p3.summary()]


def _molien_sweep() -> list[tuple[int, int, int]]:
    runs = []
    for m in range(1, 11):
        for r in divisors(m):
            for n in range(1, 4):
                runs.append((m, r, n))
    for m in range(11, 31):
        for r in (1, m):
            runs.append((m, r, 2))
    # the cyclic groups G(m, 1, 1) up to m = 10 are listed above
    runs += [(m, 1, 1) for m in range(11, 31)]
    return runs


def _cmd_molien_verify(args, cat: Catalog):
    # The CSV file is opened first, so a path that cannot be written fails
    # before the sweep runs.
    try:
        out = open(args.csv, "w", newline="") if args.csv else nullcontext()
    except OSError as exc:
        raise PolycohError(f"cannot write {args.csv!r}: {exc.strerror}") from None
    rows = []
    with out as handle:
        for m, r, n in _molien_sweep():
            start = time.perf_counter()
            ok = verify_degrees(m, r, n)
            elapsed = time.perf_counter() - start
            degrees = doubled_degrees(m, r, n)
            rows.append((m, r, n, degrees, ok, elapsed))
        if handle is not None:
            writer = csv.writer(handle)
            writer.writerow(["m", "r", "n", "degrees", "verdict", "seconds"])
            for m, r, n, degrees, ok, elapsed in rows:
                writer.writerow(
                    [m, r, n, " ".join(map(str, degrees)), ok, f"{elapsed:.4f}"]
                )
    failures = sum(not row[4] for row in rows)
    doc = {
        "runs": [
            {
                "m": m,
                "r": r,
                "n": n,
                "degrees": list(degrees),
                "verdict": ok,
            }
            for m, r, n, degrees, ok, _ in rows
        ],
        "failures": failures,
    }
    lines = [
        f"G({m},{r},{n}) order {group_order(m, r, n)}: degrees "
        f"{list(degrees)} {'ok' if ok else 'MISMATCH'} ({elapsed:.3f}s)"
        for m, r, n, degrees, ok, elapsed in rows
    ]
    lines.append(f"{len(rows)} groups checked, {failures} mismatches")
    return doc, lines


def _number(text: str) -> int:
    """The argparse type of a numeric option: :func:`int_of_digits`."""
    return int_of_digits(text, argparse.ArgumentTypeError)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The whole grammar, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="polycoh",
        description=(
            "Decide whether a graded polynomial ring on even-degree "
            "generators is realizable as the cohomology of a space."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    degrees = argparse.ArgumentParser(add_help=False)
    degrees.add_argument(
        "--degrees",
        required=True,
        help="comma list of even degrees and/or entry names joined "
        "by '+', e.g. '4,6' or 'SU(5)+Sp(2)'",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    def command(func, name, summary, parents=(degrees, fmt)):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(func=func)
        return p

    p = command(_cmd_check, "check", "realizability verdict over a ring")
    p.add_argument(
        "--ring",
        required=True,
        help="coefficient ring: Z, Q, F_p, Z[1/a,...], primes=..., "
        "or primes=mod:N:a1,a2",
    )
    command(_cmd_primes, "primes", "congruence classes of usable primes")
    p = command(_cmd_witness, "witness", "decomposition witness at one prime")
    p.add_argument("--prime", type=_number, required=True)
    p = command(_cmd_decompose, "decompose", "list all decompositions")
    p.add_argument("--prime", type=_number, default=None)
    command(_cmd_catalog, "catalog", "dump the built-in catalog", [fmt])
    p = command(_cmd_verify, "verify", "run the brute-force cross-check suites", [fmt])
    p.add_argument("--max-degree", type=_number, default=24)
    p.add_argument("--max-count", type=_number, default=4)
    p = command(
        _cmd_molien_verify,
        "molien-verify",
        "verify family degrees by exact Molien series",
        [fmt],
    )
    p.add_argument("--csv", default=None, help="also write results to a CSV file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cat = builtin()
    try:
        doc, lines = args.func(args, cat)
        if args.format == "json":
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
        return 0
    except PolycohError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout: send what is left to the null device, so
        # the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
