"""Text and JSON front end for polynomials and factored results.

The polynomial grammar is deliberately small: integer literals,
declared parameter names, main variables x1..xn, the operators
+ - * ^ and parentheses.  There is
no implicit multiplication and no unary plus; ^ takes a bare
nonnegative integer exponent.  ``print_poly`` emits canonical text that
the grammar accepts, so parse(print(p)) == p.

Expressions are evaluated in Z[x1..xn, params] as ``Coefficient``s of
one joint ring, so the parser has no arithmetic of its own and ^ is
the ring's square-and-multiply power (0^0 = 1).  Only the value is
split back into a ``Polynomial`` and checked for homogeneity.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from symres.ring import Coefficient, Monomial, ParameterRing, Polynomial

# Below the smallest digit limit Python lets int()/str() be set to (640),
# so every piece converts whatever the interpreter-wide limit is.
_DIGITS_PER_PIECE = 600
_SIGNED_DIGITS_RE = re.compile(r"[+-]?\d+\Z")
_VAR_RE = re.compile(r"x([0-9]+)\Z")


def format_int(k: int) -> str:
    """Decimal text of an int of any length.

    ``str`` refuses ints longer than ``sys.get_int_max_str_digits()``;
    longer ones are split at a power of ten into pieces it accepts.
    """
    if k < 0:
        return "-" + format_int(-k)
    digits = int(k.bit_length() * 0.30103) + 1  # within one of the count
    if digits <= _DIGITS_PER_PIECE:
        return str(k)
    low_digits = digits // 2
    high, low = divmod(k, 10 ** low_digits)
    return format_int(high) + format_int(low).zfill(low_digits)


def parse_int(text: str) -> int:
    """``int(text)`` for decimal text of any length."""
    if len(text) <= _DIGITS_PER_PIECE:
        return int(text)
    text = text.strip()
    if not _SIGNED_DIGITS_RE.match(text):
        raise ValueError(f"invalid literal for int(): {text[:20]!r}...")
    if text[0] in "+-":
        value = parse_int(text[1:])
        return -value if text[0] == "-" else value
    low_digits = len(text) // 2
    return (parse_int(text[:-low_digits]) * 10 ** low_digits
            + parse_int(text[-low_digits:]))


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*^()]))")


class ParseError(ValueError):
    """Syntax or semantic error; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


@dataclass
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.lastgroup is not None:
            tokens.append(_Token(m.lastgroup, m.group(m.lastgroup),
                                 m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _atoms(ambient: int, ring: ParameterRing) -> Tuple[Coefficient, ...]:
    """1, x1..xn and the parameters, in one joint ring Z[x1..xn, params].

    A term of the joint ring is one flat exponent tuple, main exponents
    first.  Its main variables are named x_1..x_n, with more
    underscores while a declared parameter takes one of those names.
    """
    prefix = "x_"
    while any(f"{prefix}{i}" in ring.params for i in range(1, ambient + 1)):
        prefix += "_"
    joint = ParameterRing(tuple(f"{prefix}{i}" for i in range(1, ambient + 1))
                          + ring.params)
    return (joint.one(),) + tuple(map(joint.parameter, joint.params))


class _Parser:
    def __init__(self, text: str, ambient: int, ring: ParameterRing,
                 atoms: Tuple[Coefficient, ...]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ambient = ambient
        self.ring = ring
        self.atoms = atoms

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end'!r}",
                             tok.offset)
        return self.advance()

    def parse(self) -> Coefficient:
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.offset)
        return value

    def expression(self) -> Coefficient:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "+":
            raise ParseError("unary plus is not allowed", tok.offset)
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> Coefficient:
        value = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = value * self.unary()
            else:
                return value

    def unary(self) -> Coefficient:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> Coefficient:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.expect("int")
            try:
                exponent = int(exp_tok.text)
            except ValueError:  # past the interpreter's int digit limit
                raise ParseError(
                    f"exponent of {len(exp_tok.text)} digits is too large",
                    exp_tok.offset) from None
            return base ** exponent
        return base

    def atom(self) -> Coefficient:
        tok = self.advance()
        if tok.kind == "int":
            return self.atoms[0] * parse_int(tok.text)
        if tok.kind == "ident":
            m = _VAR_RE.match(tok.text)
            if m:
                idx = parse_int(m.group(1))
                if not 1 <= idx <= self.ambient:
                    raise ParseError(
                        f"variable {tok.text!r} outside ambient 1..{self.ambient}",
                        tok.offset)
                return self.atoms[idx]
            if tok.text in self.ring.params:
                return self.atoms[1 + self.ambient + self.ring.index(tok.text)]
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            value = self.expression()
            self.expect("op", ")")
            return value
        raise ParseError(f"unexpected token {tok.text or 'end'!r}", tok.offset)


def parse_poly(text: str, ambient: int, ring: ParameterRing,
               degree: Optional[int] = None) -> Polynomial:
    """Parse polynomial text into a canonical homogeneous Polynomial.

    ``degree`` fixes the expected degree (required to make sense of a
    zero polynomial); when omitted it is inferred from the terms.
    """
    return _parse_poly(text, ambient, ring, degree, _atoms(ambient, ring))


def _parse_poly(text: str, ambient: int, ring: ParameterRing,
                degree: Optional[int],
                atoms: Tuple[Coefficient, ...]) -> Polynomial:
    value = _Parser(text, ambient, ring, atoms).parse()
    by_monomial: Dict[Monomial, Dict[Monomial, int]] = {}
    for exp, v in value.terms.items():
        by_monomial.setdefault(exp[:ambient], {})[exp[ambient:]] = v
    degrees = {sum(mexp) for mexp in by_monomial}
    if len(degrees) > 1:
        listed = ", ".join(map(format_int, sorted(degrees)))
        raise ParseError(f"inhomogeneous input: term degrees [{listed}]", 0)
    if degree is None:
        degree = degrees.pop() if degrees else 0
    elif degrees and degrees != {degree}:
        raise ParseError(
            f"degree {format_int(degrees.pop())} does not match declared "
            f"degree {format_int(degree)}", 0)
    terms = {mexp: Coefficient(ring, pterms)
             for mexp, pterms in by_monomial.items()}
    return Polynomial(ring, ambient, degree, terms)


def parse_coefficient(text: str, ring: ParameterRing) -> Coefficient:
    """Parse parameter-only text (no main variables) into a Coefficient."""
    return parse_poly(text, 1, ring, degree=0).as_coefficient()


# --- printing ----------------------------------------------------------------

def _format_power(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def _coefficient_pieces(c: Coefficient) -> List[Tuple[int, str]]:
    """Each term as (signed integer, symbol part); symbol part may be ''."""
    pieces = []
    for exp in sorted(c.terms, reverse=True):
        k = c.terms[exp]
        syms = "*".join(_format_power(name, e)
                        for name, e in zip(c.ring.params, exp) if e)
        pieces.append((k, syms))
    return pieces


def _join_signed(parts: List[Tuple[int, str]]) -> str:
    out = []
    for sign, body in parts:
        if not out:
            out.append(f"-{body}" if sign < 0 else body)
        else:
            out.append(f" - {body}" if sign < 0 else f" + {body}")
    return "".join(out)


def print_coefficient(c: Coefficient) -> str:
    if c.is_zero():
        return "0"
    parts = []
    for k, syms in _coefficient_pieces(c):
        mag = abs(k)
        if syms and mag == 1:
            body = syms
        elif syms:
            body = f"{format_int(mag)}*{syms}"
        else:
            body = format_int(mag)
        parts.append((k, body))
    return _join_signed(parts)


def print_poly(p: Polynomial) -> str:
    """Canonical text form, terms in decreasing (graded) lex order."""
    if p.is_zero():
        return "0"
    names = [f"x{i + 1}" for i in range(p.ambient)]
    parts: List[Tuple[int, str]] = []
    for exp in sorted(p.terms, reverse=True):
        coeff = p.terms[exp]
        mon = "*".join(_format_power(names[i], e)
                       for i, e in enumerate(exp) if e)
        pieces = _coefficient_pieces(coeff)
        if len(pieces) == 1:
            k, syms = pieces[0]
            stem = "*".join(s for s in (syms, mon) if s)
            if abs(k) == 1 and stem:
                body = stem
            elif stem:
                body = f"{format_int(abs(k))}*{stem}"
            else:
                body = format_int(abs(k))
            parts.append((k, body))
        else:
            inner = print_coefficient(coeff)
            body = f"({inner})*{mon}" if mon else inner
            parts.append((1, body))
    return _join_signed(parts)


# --- system files ------------------------------------------------------------

_HEADER_RE = re.compile(r"n=(\d+)\s+d=(\d+)\s+params=(.*)\Z")


@dataclass
class SystemFile:
    """Parsed contents of a system file: n polynomials of degree d."""

    n: int
    d: int
    ring: ParameterRing
    polys: Tuple[Polynomial, ...]


def parse_system_file(text: str) -> SystemFile:
    lines = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in lines if line]
    if not lines:
        raise ParseError("empty system file", 0)
    header_no, header = lines[0]
    m = _HEADER_RE.match(header)
    if not m:
        raise ParseError(
            f"line {header_no}: malformed header {header!r}; expected "
            "'n=<int> d=<int> params=<comma list>'", 0)
    try:
        n, d = int(m.group(1)), int(m.group(2))
    except ValueError:  # past the interpreter's int digit limit
        raise ParseError(f"line {header_no}: n or d is too large", 0) from None
    if n < 1 or d < 1:
        raise ParseError(f"line {header_no}: need n >= 1 and d >= 1", 0)
    params = tuple(s.strip() for s in m.group(3).split(",") if s.strip())
    try:
        ring = ParameterRing(params)
    except ValueError as exc:
        raise ParseError(f"line {header_no}: {exc}", 0) from None
    body = lines[1:]
    if len(body) != n:
        raise ParseError(
            f"expected {n} polynomial lines, found {len(body)}", 0)
    atoms = _atoms(n, ring)
    polys = []
    for no, line in body:
        try:
            polys.append(_parse_poly(line, n, ring, d, atoms))
        except ParseError as exc:
            raise ParseError(f"line {no}: {exc.message}", exc.offset) from None
    return SystemFile(n=n, d=d, ring=ring, polys=tuple(polys))


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
