from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations

import pytest

import symres.ring as ring_module
from symres.cli import emit_factored_json
from symres.combinatorics import basis_partitions
from symres.equivariant import expand_elementary
from symres.parser import (
    ParseError,
    format_int,
    parse_coefficient,
    parse_int,
    parse_poly,
    parse_system_file,
    print_coefficient,
    print_poly,
)
from symres.ring import ParameterRing, Polynomial

from conftest import random_coefficient, random_polynomial


AB = ParameterRing(("a", "b"))
ABCD = ParameterRing(("a", "b", "c", "d"))


def test_parse_simple_symbolic():
    p = parse_poly("a*x1^2 + b*x1*x2", 2, AB, degree=2)
    a = AB.parameter("a")
    b = AB.parameter("b")
    assert p == Polynomial(AB, 2, 2, {(2, 0): a, (1, 1): b})


def test_parse_integer_polynomial():
    p = parse_poly("3*x1^2 - x2^2", 2, ParameterRing(), degree=2)
    assert p.coefficient_of((2, 0)) == 3
    assert p.coefficient_of((0, 2)) == -1


def test_parse_parenthesized_coefficient():
    p = parse_poly("(a + d)*x1 + b*x2 + c*x3", 3, ABCD, degree=1)
    assert p.coefficient_of((1, 0, 0)) == ABCD.parameter("a") + ABCD.parameter("d")
    assert p.coefficient_of((0, 1, 0)) == ABCD.parameter("b")


def test_parse_zero():
    p = parse_poly("0", 2, AB, degree=3)
    assert p.is_zero() and p.degree == 3


# (text, declared degree, message, offset), each recorded before the
# tokenizer produced tuples and the parser kept a memo
PARSE_ERRORS = [
    ("x1 +", 1, "unexpected token 'end'", 4),
    ("+x1", 1, "unary plus is not allowed", 0),
    ("2x1", 1, "trailing input 'x1'", 1),  # implicit multiplication
    ("x1 x2", 2, "trailing input 'x2'", 3),
    ("x1^a", 1, "expected 'int', found 'a'", 3),  # integer exponents only
    ("x3", 1, "variable 'x3' outside ambient 1..2", 0),
    ("z*x1", 1, "unknown identifier 'z'", 0),
    ("x1 + x2^2", None, "inhomogeneous input: term degrees [1, 2]", 0),
    ("x1^2", 3, "degree 2 does not match declared degree 3", 0),
    ("x1 @ x2", 1, "unexpected character '@'", 3),
    ("(x1 + x2", 1, "expected ')', found 'end'", 8),  # unclosed group
    ("x1 + x2)", 1, "trailing input ')'", 7),  # stray ')'
    (")x1", 1, "unexpected token ')'", 0),
    ("((x1 + x2)", 1, "expected ')', found 'end'", 10),
    ("x1*+x2", 2, "unexpected token '+'", 3),
    ("()", 1, "unexpected token ')'", 1),
    ("x1*(x2 @", 2, "unexpected character '@'", 7),
]

_G1 = "(x1 + x2 + x3)"
_G2 = "(x1*x2 + x1*x3 + x2*x3)"
_REPEATED = "".join(f"x{i}*{_G1} + a*{_G2}\n" for i in (1, 2))
# (third polynomial line, message, offset): an error inside a near-copy
# of a group that the two lines before it repeat
SYSTEM_FILE_ERRORS = [
    (f"x3*(x1 + x2 $ x3) + a*{_G2}", "line 4: unexpected character '$'", 12),
    (f"x3*{_G1} + a*(x1*x2 + x1*x4 + x2*x3)",
     "line 4: variable 'x4' outside ambient 1..3", 34),
    (f"x3*{_G1} + a*(x1*x2 + x1*x3 + x2*x3",
     "line 4: expected ')', found 'end'", 44),
    # a group the memo holds, read as one token, at the error: it is
    # named by its '(' as when it was tokenized in full
    (f"x3^{_G1} + a*x3^2", "line 4: expected 'int', found '('", 3),
    (f"x3*{_G1}{_G1}", "line 4: trailing input '('", 17),
    (f"x3 {_G1}", "line 4: trailing input '('", 3),
    (f"{_G1}^{_G1}", "line 4: expected 'int', found '('", 15),
]


def test_parse_errors():
    for text, degree, message, offset in PARSE_ERRORS:
        with pytest.raises(ParseError) as info:
            parse_poly(text, 2, AB, degree=degree)
        assert (info.value.message, info.value.offset) == (message, offset), \
            text
    for line, message, offset in SYSTEM_FILE_ERRORS:
        with pytest.raises(ParseError) as info:
            parse_system_file(f"n=3 d=2 params=a\n{_REPEATED}{line}\n")
        assert (info.value.message, info.value.offset) == (message, offset), \
            line
        assert str(info.value) == f"{message} (at offset {offset})"


def test_parse_error_offset():
    try:
        parse_poly("x1 + z*x2", 2, AB, degree=1)
    except ParseError as exc:
        assert exc.offset == 5
    else:
        raise AssertionError("expected ParseError")


def test_parse_poly_needs_a_variable():
    for ambient in (0, -1):
        with pytest.raises(ValueError, match="ambient must be at least 1"):
            parse_poly("5", ambient, AB)


def test_unary_minus_forms():
    p = parse_poly("-x1 + x2", 2, ParameterRing(), degree=1)
    assert p.coefficient_of((1, 0)) == -1
    q = parse_poly("-(x1 - x2)", 2, ParameterRing(), degree=1)
    assert p == q
    r = parse_poly("--x1", 2, ParameterRing(), degree=1)
    assert r == Polynomial.variable(ParameterRing(), 2, 0)


def test_print_ordering_and_signs():
    ring = ParameterRing()
    x1 = Polynomial.variable(ring, 2, 0)
    x2 = Polynomial.variable(ring, 2, 1)
    assert print_poly(x2 - x1) == "-x1 + x2"
    assert print_poly(x1 - x2) == "x1 - x2"
    assert print_poly((x1 + x2) * (x1 + x2)) == "x1^2 + 2*x1*x2 + x2^2"
    assert print_poly(Polynomial.zero(ring, 2, 1)) == "0"


def test_print_symbolic_coefficients():
    p = parse_poly("(a + d)*x1 + b*x2 - 2*c*x3", 3, ABCD, degree=1)
    assert print_poly(p) == "(a + d)*x1 + b*x2 - 2*c*x3"
    q = parse_poly("-a*x1 + (a - 2*d)*x2", 2, ABCD, degree=1)
    assert print_poly(q) == "-a*x1 + (a - 2*d)*x2"


def test_print_coefficient_forms():
    a = ABCD.parameter("a")
    b = ABCD.parameter("b")
    assert print_coefficient(a + 3 * b) == "a + 3*b"
    assert print_coefficient(a * a) == "a^2"
    assert print_coefficient(ABCD.constant(-5)) == "-5"
    assert print_coefficient(ABCD.zero()) == "0"
    assert print_coefficient(-a) == "-a"
    assert print_coefficient ((a * a) * 2 - b + 1) == "2*a^2 - b + 1"


def test_round_trip_random_polynomials():
    rng = random.Random(101)
    rings = [ParameterRing(), AB, ABCD]
    for _ in range(60):
        ring = rng.choice(rings)
        ambient = rng.randint(1, 4)
        degree = rng.randint(0, 3)
        p = random_polynomial(rng, ring, ambient, degree,
                              n_terms=rng.randint(1, 5))
        text = print_poly(p)
        assert parse_poly(text, ambient, ring, degree=p.degree) == p


def test_round_trip_random_coefficients():
    rng = random.Random(103)
    for _ in range(40):
        c = random_coefficient(rng, ABCD, max_degree=3, n_terms=4)
        assert parse_coefficient(print_coefficient(c), ABCD) == c


def test_round_trip_beyond_the_int_str_limit():
    # 5000 digits, over Python's default 4300-digit int/str limit
    k = 10 ** 4999 + 12345
    text = "1" + "0" * 4994 + "12345"
    for c, want in ((ABCD.constant(k), text),
                    (ABCD.constant(-k), "-" + text),
                    (ABCD.constant(k) * ABCD.parameter("a"), text + "*a")):
        assert print_coefficient(c) == want
        assert parse_coefficient(want, ABCD) == c
    p = Polynomial(ABCD, 2, 1, {(1, 0): ABCD.constant(k),
                                (0, 1): ABCD.constant(-k) * ABCD.parameter("b")})
    assert print_poly(p) == f"{text}*x1 - {text}*b*x2"
    assert parse_poly(print_poly(p), 2, ABCD, degree=1) == p


def test_format_and_parse_int_split_long_numbers():
    rng = random.Random(107)
    for digits in (1, 599, 600, 601, 1300, 9001):
        k = rng.randrange(10 ** (digits - 1), 10 ** digits)
        text = format_int(k)
        assert len(text) == digits and text[0] != "0"
        assert parse_int(text) == k and format_int(-k) == "-" + text
        assert parse_int("-" + text) == -k
    assert format_int(10 ** 1200) == "1" + "0" * 1200
    with pytest.raises(ValueError):
        parse_int("12" * 400 + "x")


def test_parse_system_file():
    text = """
n=2 d=1 params=a,b

a*x1 + b*x2
b*x1 + a*x2
"""
    sf = parse_system_file(text)
    assert sf.n == 2 and sf.d == 1
    assert sf.ring == AB
    assert sf.polys[0].coefficient_of((1, 0)) == AB.parameter("a")


def test_parse_system_file_no_params():
    sf = parse_system_file("n=2 d=2 params=\nx1^2 - x2^2\nx1*x2\n")
    assert sf.ring == ParameterRing()
    assert len(sf.polys) == 2


def test_parse_system_file_errors():
    with pytest.raises(ParseError):
        parse_system_file("")
    with pytest.raises(ParseError):
        parse_system_file("n=2 params=a\nx1\nx2\n")
    with pytest.raises(ParseError):
        parse_system_file("n=2 d=1 params=\nx1\n")  # missing a line
    with pytest.raises(ParseError, match="line 3"):
        parse_system_file("n=2 d=1 params=\nx1\nx3\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_system_file("n=1 d=2 params=\nx1\n")  # wrong degree


@dataclass
class _Factored:
    prefactor: object
    factors: list


def test_emit_factored_json_shape():
    a = AB.parameter("a")
    b = AB.parameter("b")
    n = 4
    factored = _Factored(prefactor=AB.one(),
                         factors=[(a, n - 1), (a + n * b, 1)])
    text = emit_factored_json(factored)
    assert text == emit_factored_json(factored)  # byte-stable
    doc = json.loads(text)
    assert list(doc) == ["prefactor", "factors"]
    assert doc["prefactor"] == "1"
    assert doc["factors"] == [
        {"expr": "a", "multiplicity": 3},
        {"expr": "a + 4*b", "multiplicity": 1},
    ]
    assert list(doc["factors"][0]) == ["expr", "multiplicity"]


# --- one evaluation per distinct group and term of a file --------------------

def _e_sum(p, n):
    return "(" + " + ".join("*".join(f"x{i + 1}" for i in chosen)
                            for chosen in combinations(range(n), p)) + ")"


def _equivariant_file(rng, n, d, params):
    """A seeded system file shaped like the benchmark's: line i is
    F^{i} = sum_k x_i^k S_{d-k}, each S_j a combination of products of
    expanded e-sums in parentheses; returns the text and the expected
    polynomials, built by ring arithmetic."""
    ring = ParameterRing(params)
    slots = [(k, mu) for k in range(d, -1, -1)
             for mu in (basis_partitions(n, d - k) if k < d else [()])]
    values = [rng.randint(-3, 3) for _ in slots]
    values[0] = values[0] or 1
    for name, pos in zip(params, rng.sample(range(len(slots)), len(params))):
        values[pos] = name
    lines, polys = [f"n={n} d={d} params={','.join(params)}"], []
    for i in range(n):
        pieces, poly = [], Polynomial.zero(ring, n, d)
        for (k, mu), v in zip(slots, values):
            if v == 0:
                continue
            factors = [f"x{i + 1}^{k}" if k > 1 else f"x{i + 1}"] if k else []
            body = "*".join(factors + [_e_sum(p, n) for p in mu])
            scale = ring.parameter(v) if isinstance(v, str) else v
            if isinstance(v, str):
                pieces.append((" + ", f"{v}*{body}"))
            else:
                pieces.append((" - " if v < 0 else " + ",
                               body if abs(v) == 1 else f"{abs(v)}*{body}"))
            monomial = Polynomial.monomial(
                ring, n, tuple(k if j == i else 0 for j in range(n)))
            cofactor = (expand_elementary(mu, n, ring) if mu
                        else Polynomial.constant(ring, n, 1))
            poly = poly + monomial * cofactor * scale
        sign, first = pieces[0]
        lines.append(("-" if sign == " - " else "") + first
                     + "".join(sign + piece for sign, piece in pieces[1:]))
        polys.append(poly)
    return "\n".join(lines) + "\n", polys


@pytest.mark.parametrize("n,d,params", [
    (8, 2, ()), (9, 3, ("a",)), (10, 2, ("a", "b")), (11, 3, ()),
    (12, 2, ("a",)), (12, 3, ("a", "b"))])
def test_memo_gives_the_values_of_lines_parsed_alone(n, d, params):
    rng = random.Random(f"memo:{n}:{d}:{len(params)}")
    text, expected = _equivariant_file(rng, n, d, params)
    sf = parse_system_file(text)
    assert (sf.n, sf.d, sf.ring.params) == (n, d, params)
    for line, poly, want in zip(text.splitlines()[1:], sf.polys, expected):
        assert poly == parse_poly(line, n, sf.ring, d) == want, line


def test_memo_spans_at_the_edges():
    ring = ParameterRing()
    x1, x2 = (Polynomial.variable(ring, 5, i) for i in range(2))
    s = x1 + x2
    group = "(x1 + x2)"
    lines = [
        (f"x1^2*{group}", x1 * x1 * s),
        (f"-3*{group}*{group}*x2", s * s * x2 * -3),
        (f"2*-x1*{group}*x2", x1 * s * x2 * -2),
        (f"(({group[1:-1]}))*{group}*x1", s * s * x1),
        (f"{group}*{group}*x1 - x1^2*{group}", s * s * x1 - x1 * x1 * s),
    ]
    sf = parse_system_file("n=5 d=3 params=\n"
                           + "".join(line + "\n" for line, _ in lines))
    for (line, want), poly in zip(lines, sf.polys):
        assert poly == parse_poly(line, 5, ring, 3) == want, line
    with pytest.raises(ParseError) as info:
        parse_system_file("n=2 d=2 params=\nx1^2\nx1^2^3\n")
    assert (info.value.message, info.value.offset) == (
        "line 3: trailing input '^'", 4)
    with pytest.raises(ParseError) as info:
        parse_poly("x1^2^3", 2, ring)
    assert (info.value.message, info.value.offset) == ("trailing input '^'", 4)


def test_memo_cuts_the_products_of_a_file(monkeypatch):
    text, _ = _equivariant_file(random.Random("memo-count"), 12, 2, ("a", "b"))
    kernel, calls = ring_module._mul, []

    def counting(a, b):
        calls.append(None)
        return kernel(a, b)

    monkeypatch.setattr(ring_module, "_mul", counting)
    sf = parse_system_file(text)
    whole = len(calls)
    for line in text.splitlines()[1:]:
        parse_poly(line, 12, sf.ring, 2)
    alone = len(calls) - whole
    assert 4 * whole <= alone, (whole, alone)


# --- evaluation in the joint ring Z[x, params] -------------------------------

def test_zero_to_the_zero_is_one():
    x1, x2 = (Polynomial.variable(AB, 2, i) for i in range(2))
    assert parse_poly("0^0*x1", 2, AB) == x1
    assert parse_poly("x1 + 0^0*x2", 2, AB) == x1 + x2
    assert parse_poly("(x1 - x1)^0*x2", 2, AB) == x2
    assert parse_poly("0^3 + (a - a)^2*x1^4 + x2", 2, AB) == x2


def test_high_powers_by_squaring():
    p = parse_poly("x1^200000", 1, AB)
    assert p == Polynomial.monomial(AB, 1, (200000,))
    q = parse_poly("(2*a*x1)^300", 1, AB)
    assert q == Polynomial.monomial(AB, 1, (300,),
                                    AB.parameter("a") ** 300 * 2 ** 300)


@pytest.mark.parametrize("params", ["x_1,b", "b,x_2,x_1", "x_1,x__2,x__1"])
def test_parameters_named_like_the_joint_variables(params):
    # x_1, x_2 are the names the parser tries first for x1, x2
    sf = parse_system_file(f"n=2 d=2 params={params}\n"
                           "x_1*x1^2 + x1*x2\nx_1^2*x2^2 - x1^2\n")
    t = sf.ring.parameter("x_1")
    assert sf.polys == (
        Polynomial(sf.ring, 2, 2, {(2, 0): t, (1, 1): 1}),
        Polynomial(sf.ring, 2, 2, {(0, 2): t * t, (2, 0): -1}))


def _random_form(rng, degree, names, depth=0):
    """Text of a random form of the given degree in x1, x2, x3 over the
    named parameters, with nested parentheses, powers and unary minus."""
    if depth > 3 or rng.random() < 0.3:
        if degree == 0:
            return rng.choice([str(rng.randint(0, 9)), rng.choice(names)])
        factors = [f"x{rng.randint(1, 3)}" for _ in range(degree)]
        return "*".join(factors)
    kind = rng.choice(("sum", "product", "power", "minus"))
    if kind == "sum":
        op = rng.choice((" + ", " - "))
        return (_random_form(rng, degree, names, depth + 1) + op
                + _random_form(rng, degree, names, depth + 1))
    if kind == "product":
        k = rng.randint(0, degree)
        return (f"({_random_form(rng, k, names, depth + 1)})*"
                f"({_random_form(rng, degree - k, names, depth + 1)})")
    if kind == "power":
        e = rng.choice([e for e in range(1, 4) if degree % e == 0]
                       if degree else range(4))
        base = _random_form(rng, degree // e if degree else 0, names,
                            depth + 1)
        return f"({base})^{e}"
    return "-" + _random_form(rng, degree, names, depth + 1)


def test_parse_agrees_with_sympy_expand():
    sympy = pytest.importorskip("sympy")
    names = ("a", "b", "t2")
    ring = ParameterRing(names)
    gens = [sympy.Symbol(s) for s in ("x1", "x2", "x3") + names]
    local = {str(g): g for g in gens}
    rng = random.Random(211)
    big = str(rng.randrange(10 ** 700, 10 ** 701))
    texts = [f"{big}*a*x1 - (b - {big})^2*x2"]
    texts += [_random_form(rng, rng.randint(0, 3), names) for _ in range(80)]
    for text in texts:
        p = parse_poly(text, 3, ring)
        want = sympy.Poly(sympy.expand(sympy.parse_expr(
            text.replace("^", "**"), local_dict=local)), *gens).as_dict()
        got = {mexp + pexp: v for mexp, c in p.terms.items()
               for pexp, v in c.terms.items()}
        assert got == {e: int(v) for e, v in want.items() if v}, text
