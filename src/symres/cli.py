"""Command-line front end.

Subcommands:

  resultant <file>      direct Macaulay resultant of a system file
  decompose <file>      partitionwise factorization of an equivariant system
  verify <file>         decomposition against the direct resultant
  discriminant          factored discriminant of a symmetric form
  selfcheck             built-in identity suite, one pass/fail line each

System files use the parser module's format: a header line
``n=<int> d=<int> params=<comma list>`` followed by one polynomial per
line.  Exit status is 0 on success, 1 when a verification or selfcheck
finds a mismatch, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable, List, Tuple

from symres.combinatorics import Partition
from symres.discriminant import (
    SymmetricPoly,
    discriminant_decomposition,
    partial_derivatives,
)
from symres.divdiff import EquivariantSystem
from symres.equivariant import (
    decompose_resultant,
    generic_equivariant_system,
    verify_decomposition,
)
from symres.parser import (
    format_int,
    parse_int,
    parse_system_file,
    print_coefficient,
)
from symres.resultant import macaulay_resultant


def _read_file(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _factored_doc(factored) -> dict:
    """The ``prefactor`` and ``factors`` fields of a factored result."""
    return {
        "prefactor": print_coefficient(factored.prefactor),
        "factors": [
            {"expr": print_coefficient(coeff), "multiplicity": mult}
            for coeff, mult in factored.factors
        ],
    }


def emit_factored_json(factored) -> str:
    """Serialize a factored resultant as a stable JSON document.

    Accepts any object with ``prefactor`` (Coefficient) and ``factors``
    (ordered list of (Coefficient, multiplicity) pairs).
    """
    return json.dumps(_factored_doc(factored), indent=2)


def _print_factors(factored) -> None:
    print(f"prefactor: {print_coefficient(factored.prefactor)}")
    for lam, (value, mult) in zip(factored.partitions, factored.factors):
        print(f"lambda {lam}: multiplicity {mult}: "
              f"{print_coefficient(value)}")


def _cmd_resultant(args) -> int:
    system = parse_system_file(_read_file(args.file))
    value = macaulay_resultant(list(system.polys))
    if args.format == "json":
        print(json.dumps({"resultant": print_coefficient(value)}, indent=2))
    else:
        print(print_coefficient(value))
    return 0


def _cmd_decompose(args) -> int:
    parsed = parse_system_file(_read_file(args.file))
    system = EquivariantSystem(list(parsed.polys))
    factored = decompose_resultant(system)
    if args.format == "json":
        print(emit_factored_json(factored))
    else:
        _print_factors(factored)
    return 0


def _cmd_verify(args) -> int:
    parsed = parse_system_file(_read_file(args.file))
    system = EquivariantSystem(list(parsed.polys))
    report = verify_decomposition(system)
    if args.format == "json":
        print(json.dumps({
            "equal": report.equal,
            "expanded": print_coefficient(report.expanded),
            "direct": print_coefficient(report.direct),
        }, indent=2))
    else:
        print(f"expanded: {print_coefficient(report.expanded)}")
        print(f"direct:   {print_coefficient(report.direct)}")
        print("equal: " + ("yes" if report.equal else "NO"))
    return 0 if report.equal else 1


def _partition_from_name(name: str) -> Partition:
    """c21 -> (2,1); c_12_1 or c[12,1] -> (12,1).  Single digits
    concatenate; ``coefficient_name`` prints the first two forms."""
    if not name.startswith("c"):
        raise ValueError(f"coefficient names start with 'c': {name!r}")
    body = name[1:]
    try:
        if body.startswith("[") and body.endswith("]"):
            parts = tuple(int(s) for s in body[1:-1].split(","))
        elif body.startswith("_"):
            parts = tuple(int(s) for s in body[1:].split("_"))
        elif body.isdigit() and body:
            parts = tuple(int(ch) for ch in body)
        else:
            raise ValueError
        return Partition(parts)
    except ValueError:
        raise ValueError(
            f"cannot read a partition from {name!r}; use e.g. c21, "
            "c_12_1 or c[12,1]") from None


def _split_entries(spec: str) -> List[str]:
    # commas both separate entries and sit inside bracketed partitions
    entries, buf, depth = [], [], 0
    for ch in spec:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth = max(depth - 1, 0)
        if (ch == "," or ch.isspace()) and depth == 0:
            if buf:
                entries.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if buf:
        entries.append("".join(buf))
    return entries


def _parse_coeff_spec(spec: str):
    """Comma or whitespace separated name=integer assignments."""
    coeffs = {}
    for entry in _split_entries(spec):
        name, eq, value = entry.partition("=")
        if not eq:
            raise ValueError(f"expected name=value, got {entry!r}")
        lam = _partition_from_name(name)
        if lam in coeffs:
            raise ValueError(
                f"coefficient of partition {lam} given more than once "
                f"(again as {entry!r})")
        try:
            coeffs[lam] = parse_int(value)
        except ValueError:
            raise ValueError(
                f"integer coefficient required in {entry!r}") from None
    if not coeffs:
        raise ValueError("empty coefficient list")
    return coeffs


def _cmd_discriminant(args) -> int:
    if args.coeffs is None:
        form = SymmetricPoly.generic(args.n, args.d)
    else:
        spec = args.coeffs
        try:
            is_file = Path(spec).is_file()
        except OSError:  # e.g. an inline list longer than a file name
            is_file = False
        if is_file:
            spec = _read_file(spec)
        form = SymmetricPoly(args.n, args.d, _parse_coeff_spec(spec))
    result = discriminant_decomposition(form)
    integral = all(c.is_constant() for c in form.coeffs.values())
    value = result.value() if integral else None
    if args.format == "json":
        doc = json.dumps({
            "n": form.n,
            "d": form.d,
            "a": result.a,
            "sign": result.sign,
            **_factored_doc(result.factored),
        }, indent=2)
        # json writes ints with str(), which refuses very long ones
        number = "null" if value is None else format_int(value)
        print(f'{doc[:-2]},\n  "value": {number}\n}}')
    else:
        print(f"normalization: {form.d}^{result.a} * Disc"
              + (" (with a global minus sign)" if result.sign else ""))
        _print_factors(result.factored)
        if value is not None:
            print(f"Disc = {format_int(value)}")
    return 0


def _identity_suite() -> List[Tuple[str, Callable[[], bool]]]:
    def linear_decomposition():
        system = generic_equivariant_system(3, 1)
        a, b = (system.ring.parameter(s) for s in "ab")
        got = decompose_resultant(system)
        return (got.prefactor == a ** 2
                and got.factors == ((a + b * 3, 1),)
                and got.expand() == macaulay_resultant(system.polys))

    def binary_quadratic():
        system = generic_equivariant_system(2, 2)
        a, b, c, d = (system.ring.parameter(s) for s in "abcd")
        want = (a + b * 2 + c * 4 + d) * (a + b) ** 2 * (a - d)
        got = decompose_resultant(system).expand()
        return got == want and got == macaulay_resultant(system.polys)

    def quadric_discriminants():
        ok = True
        for n in (3, 4):
            F = SymmetricPoly.generic(n, 2)
            c2, c11 = F.ring.parameter("c2"), F.ring.parameter("c11")
            # 2^a Disc is -(n-1)c2^n - ... for even n and +... for odd n
            disc = c2 ** (n - 1) * (c2 * (n - 1) + c11 * (2 * n))
            want = -disc if n % 2 == 0 else disc
            ok = ok and discriminant_decomposition(F).normalized() == want
        return ok

    def ternary_cubic():
        F = SymmetricPoly.generic(3, 3)
        c3, c21, c111 = (F.ring.parameter(s) for s in ("c3", "c21", "c111"))
        inner = c111 * c3 ** 2 - c21 ** 2 * c3 - c21 ** 3
        disc = c3 ** 2 * (c3 + c21 * 9 + c111 * 27) * inner ** 3
        return discriminant_decomposition(F).normalized() == disc * 27

    def quartic_surface():
        F = SymmetricPoly.generic(4, 3)
        c3, c21, c111 = (F.ring.parameter(s) for s in ("c3", "c21", "c111"))
        disc = -(c3 ** 10) * (c3 + c21 * 2) ** 9 \
            * (c3 + c21 * 6 + c111 * 16) \
            * (c111 * 4 * c3 ** 2 - c21 ** 2 * c3 * 3 - c21 ** 3 * 2) ** 4
        return discriminant_decomposition(F).normalized() == disc * 3 ** 5

    def clebsch_surface():
        F = SymmetricPoly(4, 3, {(3,): 1, (2, 1): -1})
        direct = macaulay_resultant(partial_derivatives(F).polys)
        return (direct == 3 ** 5 * -5
                and discriminant_decomposition(F).normalized() == direct)

    return [
        ("linear equivariant decomposition (n = 3)", linear_decomposition),
        ("binary quadratic factorization", binary_quadratic),
        ("quadric discriminant parity forms (n = 3, 4)",
         quadric_discriminants),
        ("ternary cubic discriminant", ternary_cubic),
        ("quartic surface discriminant", quartic_surface),
        ("Clebsch surface discriminant", clebsch_surface),
    ]


def _cmd_selfcheck(args) -> int:
    checks = _identity_suite()
    failed = 0
    for name, check in checks:
        ok = check()
        print(("ok   " if ok else "FAIL ") + name)
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} identities hold")
    return 1 if failed else 0


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="symres",
        description="Exact resultants of equivariant systems and "
                    "discriminants of symmetric forms.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("resultant", _cmd_resultant, "direct Macaulay resultant")
    p.add_argument("file", help="system file")

    p = add("decompose", _cmd_decompose, "partitionwise factorization")
    p.add_argument("file", help="system file")

    p = add("verify", _cmd_verify, "decomposition vs direct resultant")
    p.add_argument("file", help="system file")

    p = add("discriminant", _cmd_discriminant,
            "factored discriminant of a symmetric form")
    p.add_argument("--n", type=int, required=True, help="variables")
    p.add_argument("--d", type=int, required=True, help="degree")
    p.add_argument("--coeffs",
                   help="file or inline list like c3=1,c21=-1; "
                        "omit for the fully symbolic form")

    p = sub.add_parser("selfcheck", help="built-in identity suite")
    p.set_defaults(func=_cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ParseError, EquivarianceError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
