from __future__ import annotations

import json
import random
from dataclasses import dataclass

import pytest

from symres.parser import (
    ParseError,
    emit_factored_json,
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


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("x1 +", 2, AB, degree=1)
    with pytest.raises(ParseError):
        parse_poly("+x1", 2, AB, degree=1)  # unary plus forbidden
    with pytest.raises(ParseError):
        parse_poly("2x1", 2, AB, degree=1)  # implicit multiplication
    with pytest.raises(ParseError):
        parse_poly("x1 x2", 2, AB, degree=2)
    with pytest.raises(ParseError):
        parse_poly("x1^a", 2, AB, degree=1)  # exponent must be an integer
    with pytest.raises(ParseError):
        parse_poly("x3", 2, AB, degree=1)  # outside the ambient
    with pytest.raises(ParseError):
        parse_poly("z*x1", 2, AB, degree=1)  # unknown identifier
    with pytest.raises(ParseError):
        parse_poly("x1 + x2^2", 2, AB)  # inhomogeneous
    with pytest.raises(ParseError):
        parse_poly("x1^2", 2, AB, degree=3)  # contradicts declared degree
    with pytest.raises(ParseError):
        parse_poly("x1 @ x2", 2, AB, degree=1)


def test_parse_error_offset():
    try:
        parse_poly("x1 + z*x2", 2, AB, degree=1)
    except ParseError as exc:
        assert exc.offset == 5
    else:
        raise AssertionError("expected ParseError")


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
