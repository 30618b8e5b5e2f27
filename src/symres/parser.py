"""Text front end for polynomials and coefficients.

The polynomial grammar is deliberately small: integer literals,
declared parameter names, main variables x1..xn, the operators
+ - * ^ and parentheses.  There is
no implicit multiplication and no unary plus; ^ takes a bare
nonnegative integer exponent.  ``print_poly`` emits canonical text that
the grammar accepts, so parse(print(p)) == p.

Expressions are evaluated in Z[x1..xn, params] as ``Coefficient``s of
one joint ring, so the parser has no arithmetic of its own and ^ is
the ring's square-and-multiply power (0^0 = 1).  Each line's value is
checked once, for homogeneity and its declared degree, from the main
exponents of its joint terms, and ``ring.split_joint`` then builds its
``Polynomial`` without checking the terms again.

Each distinct parenthesised group and product term is evaluated once
per call: a memo keyed by its source text lasts one
``parse_system_file`` call, so the symmetric cofactors that every line
of an equivariant system repeats are evaluated on the first line only;
``parse_poly`` and ``parse_coefficient`` start a fresh memo each.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from symres.ring import (
    Coefficient,
    ParameterRing,
    Polynomial,
    format_int,
    parse_int,
    split_joint,
)

_VAR_RE = re.compile(r"x([0-9]+)\Z")
_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*^()])|(?P<bad>\S))")


class ParseError(ValueError):
    """Syntax or semantic error; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


def _tokenize(text: str) -> Tuple[List[Tuple[str, str, int]], Dict[int, int]]:
    """The (kind, text, offset) tokens of ``text``, closed by an "end"
    token, and the index of the matching ')' of every '(' that has one."""
    tokens = []
    close: Dict[int, int] = {}
    opened = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        offset = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text[offset]!r}", offset)
        tok = m.group(kind)
        if tok == "(":
            opened.append(len(tokens))
        elif tok == ")" and opened:
            close[opened.pop()] = len(tokens)
        tokens.append((kind, tok, offset))
    tokens.append(("end", "", len(text)))
    return tokens, close


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
    """Recursive descent over one line's tokens.

    ``memo`` maps the source text of every parenthesised group and
    product term evaluated so far to its value.  A span's value depends
    only on its text, given the ambient and ring, so a repeat is read
    back instead of evaluated.  A value is stored only once its span has
    parsed to exactly the end found from the paren map, so an error is
    raised at a span's first occurrence, before its value could be
    stored.  Memo values never leave the parser: the split copies their
    terms.
    """

    def __init__(self, text: str, ambient: int, ring: ParameterRing,
                 atoms: Tuple[Coefficient, ...],
                 memo: Dict[str, Coefficient]):
        self.text = text
        self.tokens, self.close = _tokenize(text)
        self.pos = 0
        self.ambient = ambient
        self.ring = ring
        self.atoms = atoms
        self.memo = memo

    def expect(self, kind: str,
               text: Optional[str] = None) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end'!r}",
                             tok[2])
        self.pos += 1
        return tok

    def memoized(self, end: int,
                 evaluate: Callable[[], Coefficient]) -> Coefficient:
        """``evaluate()`` of the span of tokens pos..end - 1, or its
        value from the memo."""
        _, last, offset = self.tokens[end - 1]
        key = self.text[self.tokens[self.pos][2]:offset + len(last)]
        value = self.memo.get(key)
        if value is not None:
            self.pos = end
            return value
        value = evaluate()
        if self.pos == end:
            self.memo[key] = value
        return value

    def parse(self) -> Coefficient:
        value = self.expression()
        kind, text, offset = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", offset)
        return value

    def expression(self) -> Coefficient:
        _, text, offset = self.tokens[self.pos]
        if text == "+":
            raise ParseError("unary plus is not allowed", offset)
        value = self.term()
        while True:
            op = self.tokens[self.pos][1]
            if op == "+":
                self.pos += 1
                value = value + self.term()
            elif op == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> Coefficient:
        end = self.term_end()
        if end == self.pos:  # no operand: product() raises
            return self.product()
        return self.memoized(end, self.product)

    def term_end(self) -> int:
        """Index past the product term at pos: the first '+' or '-' after
        an operand, ')' or end, outside the term's groups."""
        tokens = self.tokens
        i = self.pos
        operand = False
        while True:
            kind, text, _ = tokens[i]
            if (kind == "end" or text == ")"
                    or operand and (text == "+" or text == "-")):
                return i
            if text == "(":
                i = self.close.get(i)
                if i is None:  # unclosed: the term runs to the end
                    return len(tokens) - 1
            operand = kind != "op" or text == "("
            i += 1

    def product(self) -> Coefficient:
        value = self.unary()
        while self.tokens[self.pos][1] == "*":
            self.pos += 1
            value = value * self.unary()
        return value

    def unary(self) -> Coefficient:
        if self.tokens[self.pos][1] == "-":
            self.pos += 1
            return -self.unary()
        return self.power()

    def power(self) -> Coefficient:
        base = self.atom()
        if self.tokens[self.pos][1] == "^":
            self.pos += 1
            _, digits, offset = self.expect("int")
            try:
                exponent = int(digits)
            except ValueError:  # past the interpreter's int digit limit
                raise ParseError(
                    f"exponent of {len(digits)} digits is too large",
                    offset) from None
            return base ** exponent
        return base

    def atom(self) -> Coefficient:
        if self.tokens[self.pos][1] == "(":
            end = self.close.get(self.pos)
            if end is None:  # unclosed: group() raises
                return self.group()
            return self.memoized(end + 1, self.group)
        kind, text, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "int":
            return self.atoms[0] * parse_int(text)
        if kind == "ident":
            m = _VAR_RE.match(text)
            if m:
                idx = parse_int(m.group(1))
                if not 1 <= idx <= self.ambient:
                    raise ParseError(
                        f"variable {text!r} outside ambient 1..{self.ambient}",
                        offset)
                return self.atoms[idx]
            if text in self.ring.params:
                return self.atoms[1 + self.ambient + self.ring.index(text)]
            raise ParseError(f"unknown identifier {text!r}", offset)
        raise ParseError(f"unexpected token {text or 'end'!r}", offset)

    def group(self) -> Coefficient:
        self.pos += 1
        value = self.expression()
        self.expect("op", ")")
        return value


def parse_poly(text: str, ambient: int, ring: ParameterRing,
               degree: Optional[int] = None) -> Polynomial:
    """Parse polynomial text into a canonical homogeneous Polynomial.

    ``degree`` fixes the expected degree (required to make sense of a
    zero polynomial); when omitted it is inferred from the terms.
    """
    if ambient < 1:
        raise ValueError("ambient must be at least 1")
    return _parse_poly(text, ambient, ring, degree, _atoms(ambient, ring), {})


def _parse_poly(text: str, ambient: int, ring: ParameterRing,
                degree: Optional[int], atoms: Tuple[Coefficient, ...],
                memo: Dict[str, Coefficient]) -> Polynomial:
    value = _Parser(text, ambient, ring, atoms, memo).parse()
    degrees = {sum(exp[:ambient]) for exp in value.terms}
    if len(degrees) > 1:
        listed = ", ".join(map(format_int, sorted(degrees)))
        raise ParseError(f"inhomogeneous input: term degrees [{listed}]", 0)
    if degree is None:
        degree = degrees.pop() if degrees else 0
    elif degrees and degrees != {degree}:
        raise ParseError(
            f"degree {format_int(degrees.pop())} does not match declared "
            f"degree {format_int(degree)}", 0)
    return split_joint(value, ambient, ring, degree)


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
    terms = p.terms
    for exp in sorted(terms, reverse=True):
        coeff = terms[exp]
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
    memo: Dict[str, Coefficient] = {}
    polys = []
    for no, line in body:
        try:
            polys.append(_parse_poly(line, n, ring, d, atoms, memo))
        except ParseError as exc:
            raise ParseError(f"line {no}: {exc.message}", exc.offset) from None
    return SystemFile(n=n, d=d, ring=ring, polys=tuple(polys))
