"""Text and JSON front end for polynomials and factored results.

The polynomial grammar is deliberately small: integer literals,
declared parameter names, main variables x1..xn, the operators
+ - * ^ and parentheses.  There is
no implicit multiplication and no unary plus; ^ takes a bare
nonnegative integer exponent.  ``print_poly`` emits canonical text that
the grammar accepts, so parse(print(p)) == p.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from symres.ring import Coefficient, Monomial, ParameterRing, Polynomial, grlex_key

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


class _RawPoly:
    """Parse-time polynomial over (main exponents, parameter exponents).

    Intermediate expressions need not be homogeneous; the final result
    is split into a Polynomial and checked at the end.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[Monomial, Monomial], int]):
        self.terms = {k: v for k, v in terms.items() if v}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _RawPoly(out)

    def __neg__(self):
        return _RawPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: Dict[Tuple[Monomial, Monomial], int] = {}
        for (ma, pa), va in self.terms.items():
            for (mb, pb), vb in other.terms.items():
                key = (tuple(x + y for x, y in zip(ma, mb)),
                       tuple(x + y for x, y in zip(pa, pb)))
                s = out.get(key, 0) + va * vb
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _RawPoly(out)

    def __pow__(self, n: int):
        width_m, width_p = 0, 0
        for (m, p) in self.terms:
            width_m, width_p = len(m), len(p)
        out = _RawPoly({((0,) * width_m, (0,) * width_p): 1})
        for _ in range(n):
            out = out * self
        return out


class _Parser:
    def __init__(self, text: str, ambient: int, ring: ParameterRing):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ambient = ambient
        self.ring = ring

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

    def parse(self) -> _RawPoly:
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.offset)
        return value

    def expression(self) -> _RawPoly:
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

    def term(self) -> _RawPoly:
        value = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = value * self.unary()
            else:
                return value

    def unary(self) -> _RawPoly:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> _RawPoly:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.expect("int")
            return base ** int(exp_tok.text)
        return base

    def atom(self) -> _RawPoly:
        tok = self.advance()
        zero_m = (0,) * self.ambient
        zero_p = (0,) * len(self.ring.params)
        if tok.kind == "int":
            return _RawPoly({(zero_m, zero_p): parse_int(tok.text)})
        if tok.kind == "ident":
            m = _VAR_RE.match(tok.text)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.ambient:
                    raise ParseError(
                        f"variable {tok.text!r} outside ambient 1..{self.ambient}",
                        tok.offset)
                exp = tuple(1 if j == idx - 1 else 0
                            for j in range(self.ambient))
                return _RawPoly({(exp, zero_p): 1})
            if tok.text in self.ring.params:
                i = self.ring.index(tok.text)
                exp = tuple(1 if j == i else 0
                            for j in range(len(self.ring.params)))
                return _RawPoly({(zero_m, exp): 1})
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
    raw = _Parser(text, ambient, ring).parse()
    by_monomial: Dict[Monomial, Dict[Monomial, int]] = {}
    for (mexp, pexp), v in raw.terms.items():
        by_monomial.setdefault(mexp, {})[pexp] = v
    degrees = {sum(mexp) for mexp in by_monomial}
    if len(degrees) > 1:
        raise ParseError(
            f"inhomogeneous input: term degrees {sorted(degrees)}", 0)
    if degree is None:
        degree = degrees.pop() if degrees else 0
    elif degrees and degrees != {degree}:
        raise ParseError(
            f"degree {degrees.pop()} does not match declared degree {degree}",
            0)
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


def print_poly(p) -> str:
    """Canonical text form; also accepts a bare Coefficient."""
    if isinstance(p, Coefficient):
        return print_coefficient(p)
    if p.is_zero():
        return "0"
    names = [f"x{i + 1}" for i in range(p.ambient)]
    parts: List[Tuple[int, str]] = []
    for exp in sorted(p.terms, key=grlex_key, reverse=True):
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
    n = int(m.group(1))
    d = int(m.group(2))
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
    polys = []
    for no, line in body:
        try:
            polys.append(parse_poly(line, n, ring, degree=d))
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
