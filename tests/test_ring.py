from __future__ import annotations

import random
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import symres.ring as ring_module
from symres.combinatorics import partitions
from symres.divdiff import divided_difference_determinant, vandermonde_product
from symres.ring import (
    Coefficient,
    NotDivisibleError,
    ParameterRing,
    Polynomial,
    determinant,
    determinant_bareiss,
    determinant_minors,
    format_int,
    split_joint,
)

from conftest import (
    determinant_cofactor,
    leading_term,
    random_coefficient,
    random_int_polynomial,
    random_polynomial,
)


def det_permutation_expansion(rows):
    """Sign-weighted permutation sum; independent of both library routes."""
    n = len(rows)
    acc = None
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        if inversions % 2:
            prod = -prod
        acc = prod if acc is None else acc + prod
    return acc


# --- ParameterRing ---------------------------------------------------------

def test_ring_rejects_bad_names():
    with pytest.raises(ValueError):
        ParameterRing(("a", "a"))
    with pytest.raises(ValueError):
        ParameterRing(("2bad",))
    with pytest.raises(ValueError):
        ParameterRing(("x1",))  # reserved for main variables


def test_ring_equality_by_value():
    assert ParameterRing(("a", "b")) == ParameterRing(("a", "b"))
    assert ParameterRing(("a", "b")) != ParameterRing(("b", "a"))


# --- Coefficient arithmetic --------------------------------------------------

def test_coefficient_basic_identities():
    ring = ParameterRing(("a", "b"))
    a = ring.parameter("a")
    b = ring.parameter("b")
    assert a + b == b + a
    assert (a + b) * (a - b) == a * a - b * b
    assert a - a == ring.zero()
    assert (a + 1) * (a - 1) == a * a - 1
    assert a * 0 == ring.zero()
    assert (a + b) ** 2 == a * a + 2 * a * b + b * b


def test_coefficient_constant_value():
    ring = ParameterRing()
    assert ring.constant(-7).constant_value() == -7
    assert ring.zero().constant_value() == 0
    sym = ParameterRing(("a",)).parameter("a")
    with pytest.raises(ValueError):
        sym.constant_value()


def test_coefficient_random_ring_axioms():
    rng = random.Random(7)
    ring = ParameterRing(("a", "b", "c"))
    for _ in range(40):
        x = random_coefficient(rng, ring)
        y = random_coefficient(rng, ring)
        z = random_coefficient(rng, ring)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)


def test_coefficient_exact_div_round_trip():
    rng = random.Random(11)
    ring = ParameterRing(("a", "b"))
    checked = 0
    for _ in range(60):
        q = random_coefficient(rng, ring)
        h = random_coefficient(rng, ring)
        if q.is_zero():
            continue
        assert (q * h).exact_div(q) == h
        checked += 1
    assert checked > 40


def test_coefficient_exact_div_failure():
    ring = ParameterRing(("a", "b"))
    a = ring.parameter("a")
    b = ring.parameter("b")
    with pytest.raises(NotDivisibleError):
        (a * a + b).exact_div(a + b)
    with pytest.raises(NotDivisibleError):
        ring.constant(3).exact_div(ring.constant(2))
    with pytest.raises(ZeroDivisionError):
        a.exact_div(ring.zero())


def test_division_errors_print_integers_of_any_length():
    # past Python's default 4300-digit int/str limit
    a = ParameterRing(("a",)).parameter("a")
    big = 10 ** 4400
    for num, den, shown in ((a * (big + 1), big, (big, big + 1)),
                            (a * a + 1, a * big, (big,))):
        with pytest.raises(NotDivisibleError) as info:
            num.exact_div(den)
        message = str(info.value)
        assert "does not divide" in message
        assert all(format_int(k) in message for k in shown)
    assert repr(a * -big) == f"Coefficient<(1,): -{format_int(big)}>"


def assert_clean(c: Coefficient) -> None:
    """What public construction guarantees, checked on a trusted result."""
    width = len(c.ring.params)
    assert all(v != 0 for v in c.terms.values())
    assert all(len(e) == width and min(e, default=0) >= 0 for e in c.terms)
    assert c == Coefficient(c.ring, c.terms)


@pytest.mark.parametrize("params", [(), ("a",), ("a", "b"), ("a", "b", "c")])
def test_arithmetic_results_are_clean(params):
    rng = random.Random(13 + len(params))
    ring = ParameterRing(params)
    for _ in range(40):
        x = random_coefficient(rng, ring, n_terms=4)
        y = random_coefficient(rng, ring, n_terms=4)
        k = rng.choice((0, 1, -1, 3, rng.randint(-99, 99)))
        results = [x + y, x + (-x), x - y, x - x, y - x, -x, x * y,
                   x * k, k * x, x * 0, x ** rng.randint(0, 4), x ** 0]
        if not y.is_zero():
            results += [(x * y).exact_div(y), (x * y - x * y).exact_div(y)]
        for c in results:
            assert_clean(c)


@pytest.mark.parametrize("params", [(), ("a",), ("a", "b")])
def test_split_joint_pieces_are_clean(params):
    rng = random.Random(17 + len(params))
    ring = ParameterRing(params)
    joint = ParameterRing(("x_1", "x_2", "x_3") + params)
    for _ in range(30):
        degree = rng.randint(0, 4)
        shape = random_polynomial(rng, ring, 3, degree, n_terms=4)
        pieces = {mexp: random_coefficient(rng, ring, max_degree=3)
                  for mexp in shape.terms}
        value = Coefficient(joint, {mexp + pexp: v
                                    for mexp, c in pieces.items()
                                    for pexp, v in c.terms.items()})
        got = split_joint(value, 3, ring, degree)
        assert (got.ring, got.ambient, got.degree) == (ring, 3, degree)
        assert got == Polynomial(ring, 3, degree, pieces)
        assert_clean_polynomial(got)


def test_public_construction_still_checks():
    ring = ParameterRing(("a", "b"))
    with pytest.raises(ValueError):
        Coefficient(ring, {(1,): 2})
    with pytest.raises(ValueError):
        Coefficient(ring, {(1, 0, 0): 2})
    with pytest.raises(ValueError):
        Coefficient(ring, {(1, -1): 2})
    assert Coefficient(ring, {(1, 0): 0, (0, 1): 5}).terms == {(0, 1): 5}


# --- Polynomial construction and bookkeeping --------------------------------

def test_polynomial_rejects_inhomogeneous():
    ring = ParameterRing()
    with pytest.raises(ValueError):
        Polynomial(ring, 2, 2, {(2, 0): 1, (1, 0): 1})


def test_zero_polynomial_degree_is_nominal():
    ring = ParameterRing()
    z2 = Polynomial.zero(ring, 3, 2)
    z5 = Polynomial.zero(ring, 3, 5)
    assert z2 == z5
    assert z2.is_zero()
    x0 = Polynomial.variable(ring, 3, 0)
    # adding zero of any nominal degree is allowed
    assert x0 + Polynomial.zero(ring, 3, 7) == x0


def test_polynomial_degree_mismatch_raises():
    ring = ParameterRing()
    x0 = Polynomial.variable(ring, 2, 0)
    sq = x0 * x0
    with pytest.raises(ValueError):
        x0 + sq
    with pytest.raises(ValueError):
        x0 + Polynomial.variable(ring, 3, 0)


def test_polynomial_product_degree():
    ring = ParameterRing(("a",))
    x0 = Polynomial.variable(ring, 2, 0)
    x1 = Polynomial.variable(ring, 2, 1)
    p = (x0 + x1) * (x0 - x1)
    assert p.degree == 2
    assert p == x0 * x0 - x1 * x1
    # cancellation keeps the nominal degree
    q = (x0 + x1) * (x0 + x1) - (x0 * x0 + 2 * x0 * x1 + x1 * x1)
    assert q.is_zero() and q.degree == 2


def test_polynomial_exact_div_explicit():
    ring = ParameterRing()
    x1 = Polynomial.variable(ring, 2, 0)
    x2 = Polynomial.variable(ring, 2, 1)
    assert (x1 * x1 - x2 * x2).exact_div(x1 - x2) == x1 + x2
    assert (x2 * x2 - x1 * x1).exact_div(x1 - x2) == -(x1 + x2)
    with pytest.raises(NotDivisibleError):
        (x1 * x1 + x2 * x2).exact_div(x1 - x2)


def test_polynomial_exact_div_round_trip():
    rng = random.Random(23)
    ring = ParameterRing(("a", "b"))
    checked = 0
    for _ in range(40):
        q = random_polynomial(rng, ring, 3, rng.randint(1, 2))
        h = random_polynomial(rng, ring, 3, rng.randint(1, 2))
        if q.is_zero():
            continue
        assert (q * h).exact_div(q) == h
        checked += 1
    assert checked > 25


def assert_clean_polynomial(p: Polynomial) -> None:
    """What public construction guarantees, checked on a trusted result."""
    assert not any(c.is_zero() for c in p.terms.values())
    for c in p.terms.values():
        assert_clean(c)
    assert p == Polynomial(p.ring, p.ambient, p.degree, p.terms)
    if p.terms:
        assert leading_term(p)[0] == max(p.terms, key=lambda e: (sum(e), e))


@pytest.mark.parametrize("params", [(), ("a",), ("a", "b")])
def test_polynomial_results_are_clean(params):
    rng = random.Random(31 + len(params))
    ring = ParameterRing(params)
    for _ in range(30):
        n = rng.randint(1, 3)
        d = rng.randint(0, 3)
        x, y = (random_polynomial(rng, ring, n, d, n_terms=5)
                for _ in range(2))
        z = random_polynomial(rng, ring, n, rng.randint(1, 2))
        c = random_coefficient(rng, ring)
        k = rng.choice((0, 1, -1, rng.randint(-99, 99)))
        sigma = rng.sample(range(n), n)
        images = [random_polynomial(rng, ring, n, 1) for _ in range(n)]
        results = [x + y, x + (-x), x - y, x - x, -x, x * y, x * z,
                   x * c, c * x, x * ring.zero(), x * k, k * x, x * 0,
                   x ** rng.randint(0, 3), x ** 0, x.permute(sigma),
                   x.derivative(rng.randrange(n)),
                   x.substitute(dict(enumerate(images)))]
        if not z.is_zero():
            results += [(x * z).exact_div(z), (x * z - x * z).exact_div(z)]
        for p in results:
            assert_clean_polynomial(p)
        assert not (x * 0).terms and not (x * ring.zero()).terms
        assert_clean(x.evaluate([rng.randint(-3, 3) for _ in range(n)]))


def test_public_polynomial_construction_still_checks():
    ring = ParameterRing(("a",))
    for ambient, degree, terms in [(2, 1, {(1,): 1}), (2, 1, {(2, -1): 1}),
                                   (1, -1, {(-1,): 1}), (0, 0, {})]:
        with pytest.raises(ValueError):
            Polynomial(ring, ambient, degree, terms)
    with pytest.raises(ValueError):
        Polynomial(ring, 1, 0, {(0,): ParameterRing(("b",)).one()})
    for zero in (0, ring.zero()):
        p = Polynomial(ring, 2, 1, {(1, 0): 3, (0, 1): zero})
        assert p.terms == {(1, 0): ring.constant(3)}


def test_leading_term_graded_lex():
    ring = ParameterRing()
    p = Polynomial(ring, 3, 2, {(0, 1, 1): 1, (1, 0, 1): 2, (0, 0, 2): 3})
    exp, c = leading_term(p)
    assert exp == (1, 0, 1) and c == 2


# --- substitute / permute / derivative ---------------------------------------

def test_substitute_collapse_to_single_variable():
    ring = ParameterRing()
    p = Polynomial(ring, 2, 3, {(2, 1): 1})  # x1^2 * x2
    y1 = Polynomial.variable(ring, 1, 0)
    img = p.substitute({0: y1, 1: y1})
    assert img == Polynomial(ring, 1, 3, {(3,): 1})


def test_substitute_integer_point():
    ring = ParameterRing(("a", "b"))
    a = ring.parameter("a")
    b = ring.parameter("b")
    p = Polynomial(ring, 2, 2, {(2, 0): a, (1, 1): b})
    val = p.evaluate([2, -3])
    assert val == a * 4 - b * 6
    assert p.evaluate([1, 1]) == a + b


def naive_substitute(p: Polynomial, images) -> Polynomial:
    """Term by term, each image power by repeated multiplication."""
    first = images[0]
    acc = Polynomial.zero(first.ring, first.ambient, first.degree * p.degree)
    for exp, c in p.terms.items():
        part = Polynomial.constant(first.ring, first.ambient, c)
        for i, e in enumerate(exp):
            for _ in range(e):
                part = part * images[i]
        acc = acc + part
    return acc


@pytest.mark.parametrize("params", [(), ("a",)])
@pytest.mark.parametrize("image_degree", [1, 2])
def test_substitute_matches_naive_expansion(params, image_degree):
    rng = random.Random(43 + 3 * len(params) + image_degree)
    ring = ParameterRing(params)
    for trial in range(25):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        degree = rng.randint(0, 3)
        p = Polynomial(ring, n, degree, {
            exp: random_coefficient(rng, ring)
            for exp in random_polynomial(rng, ring, n, degree, 5).terms})
        if trial == 0:
            p = Polynomial.zero(ring, n, degree)
        images = [random_polynomial(rng, ring, m, image_degree, n_terms=3)
                  * random_coefficient(rng, ring, n_terms=2)
                  for _ in range(n)]
        got = p.substitute(dict(enumerate(images)))
        assert got == naive_substitute(p, images)
        assert (got.ring, got.ambient) == (ring, m)
        assert got.degree == image_degree * degree
        assert_clean_polynomial(got)


def test_substitute_computes_each_power_once(monkeypatch):
    ring = ParameterRing(("a",))
    xs = [Polynomial.variable(ring, 3, i) for i in range(3)]
    e1 = xs[0] + xs[1] + xs[2]
    p = e1 ** 4 * ring.parameter("a") + xs[0] ** 2 * xs[1] ** 2
    images = {i: x + xs[(i + 1) % 3] * 2 for i, x in enumerate(xs)}
    want = naive_substitute(p, images)
    calls = []
    original = Polynomial.__pow__

    def spy(self, n):
        calls.append((self, n))
        return original(self, n)

    monkeypatch.setattr(Polynomial, "__pow__", spy)
    assert p.substitute(images) == want
    pairs = {(i, e) for exp in p.terms for i, e in enumerate(exp) if e}
    assert len(calls) == len(pairs)
    assert {(i, n) for i, image in images.items()
            for base, n in calls if base is image} == pairs


def test_substitute_errors():
    ring = ParameterRing()
    p = Polynomial(ring, 2, 2, {(1, 1): 1})
    y1 = Polynomial.variable(ring, 2, 0)
    with pytest.raises(ValueError):
        p.substitute({0: y1})  # x2 has no image
    with pytest.raises(ValueError):
        Polynomial.constant(ring, 2, 5).substitute({})  # no image at all
    with pytest.raises(ValueError):
        p.substitute({0: y1, 1: 3})  # mixed image kinds
    y_sq = y1 * y1
    with pytest.raises(ValueError):
        p.substitute({0: y1, 1: y_sq})  # mismatched image degrees


def test_substitute_preserves_homogeneity():
    rng = random.Random(31)
    ring = ParameterRing(("a",))
    for _ in range(20):
        p = random_polynomial(rng, ring, 3, 2)
        images = {i: random_polynomial(rng, ring, 2, 1, n_terms=2)
                  for i in range(3)}
        q = p.substitute(images)
        if not q.is_zero():
            assert q.degree == p.degree
            assert all(sum(e) == q.degree for e in q.terms)


def test_permute_transposition():
    ring = ParameterRing()
    x1 = Polynomial.variable(ring, 3, 0)
    swapped = x1.permute([1, 0, 2])
    assert swapped == Polynomial.variable(ring, 3, 1)


def test_permute_composition():
    rng = random.Random(5)
    ring = ParameterRing(("a",))
    for _ in range(20):
        p = random_polynomial(rng, ring, 4, 3)
        sigma = list(range(4))
        tau = list(range(4))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        comp = [sigma[tau[i]] for i in range(4)]
        assert p.permute(tau).permute(sigma) == p.permute(comp)


PERMUTE_RINGS = (ParameterRing(), ParameterRing(("a", "b")))


@st.composite
def polynomials(draw):
    """A Polynomial over Z or Z[a, b] in 1-4 variables, possibly zero."""
    ring = draw(st.sampled_from(PERMUTE_RINGS))
    ambient = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exp = [0] * ambient
        for _ in range(degree):
            exp[rng.randrange(ambient)] += 1
        terms[tuple(exp)] = random_coefficient(rng, ring)
    return Polynomial(ring, ambient, degree, terms)


def near_miss(q, kind, rng):
    """``q`` with one coefficient changed, a term added or dropped, or
    moved to another ring of the same width; None when ``kind`` cannot
    change ``q``."""
    terms = dict(q.terms)
    one = q.ring.one()
    if kind == "coefficient" and terms:
        exp = rng.choice(sorted(terms))
        terms[exp] = terms[exp] + (q.ring.parameter("a") if q.ring.params
                                   else one)
    elif kind == "extra":
        free = [e for e in product(range(q.degree + 1), repeat=q.ambient)
                if sum(e) == q.degree and e not in terms]
        if not free:
            return None
        terms[rng.choice(free)] = one
    elif kind == "missing" and terms:
        del terms[rng.choice(sorted(terms))]
    elif kind == "ring":
        other = ParameterRing(("c",) + q.ring.params[1:]) if q.ring.params \
            else ParameterRing(("c",))
        return Polynomial(other, q.ambient, q.degree, {
            e: Coefficient(other, c.terms if q.ring.params else
                           {(0,): c.constant_value()})
            for e, c in terms.items()})
    else:
        return None
    out = Polynomial(q.ring, q.ambient, q.degree, terms)
    return None if out == q else out


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.randoms(use_true_random=False),
       st.sampled_from(("coefficient", "extra", "missing", "ring")))
def test_permutes_to_matches_permute(p, rng, kind):
    sigma = list(range(p.ambient))
    rng.shuffle(sigma)
    q = p.permute(sigma)
    assert p.permutes_to(sigma, q)
    assert p.permutes_to(sigma, p) == (q == p)
    miss = near_miss(q, kind, rng)
    if miss is not None:
        assert not p.permutes_to(sigma, miss)
        assert (p.permute(sigma) == miss) is False
    assert not p.permutes_to(sigma, 0)


def test_permutes_to_rejects_a_non_permutation():
    p = Polynomial.variable(ParameterRing(), 3, 0)
    for sigma in ([0, 0, 1], [0, 1], [1, 2, 3]):
        with pytest.raises(ValueError, match="not a permutation"):
            p.permutes_to(sigma, p)


def relabel_by_sums(p, target, ambient):
    """``relabel`` as a sum of one monomial per term: the oracle."""
    out = Polynomial.zero(p.ring, ambient, p.degree)
    for exp, c in p.terms.items():
        img = [0] * ambient
        for t, e in zip(target, exp):
            img[t] += e
        out = out + Polynomial.monomial(p.ring, ambient, tuple(img), c)
    return out


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.integers(1, 4), st.randoms(use_true_random=False))
def test_relabel_matches_a_sum_of_monomials(p, ambient, rng):
    """Collapsing maps and permutations alike; the operand is left as it
    was, and every stored coefficient is a nonzero element of the ring."""
    target = [rng.randrange(ambient) for _ in range(p.ambient)]
    before = {e: (c, dict(c.terms)) for e, c in p.terms.items()}
    got = p.relabel(target, ambient)
    assert got == relabel_by_sums(p, target, ambient)
    assert (got.ambient, got.degree) == (ambient, p.degree)
    kind = Coefficient if p.ring.params else int
    assert all(type(c) is kind and c for c in got.stored_terms.values())
    assert {e: (c, dict(c.terms)) for e, c in p.terms.items()} == before


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.randoms(use_true_random=False))
def test_relabeler_collapses_like_relabel_for_every_partition(p, rng):
    """One relabeler serves every blockwise collapse of p, with the
    lead-first blocking of the chains and the plain one of rho_lambda,
    and any other map, each one the sum of monomials ``relabel`` is."""
    collapse = p.relabeler()
    maps = [[rng.randrange(2) for _ in range(p.ambient)]]
    for lam in partitions(p.ambient):
        maps.append(list(range(lam.length)) + [
            j for j, part in enumerate(lam) for _ in range(part - 1)])
        maps.append([j for j, part in enumerate(lam) for _ in range(part)])
    for target in maps:
        ambient = max(target) + 1
        got = collapse(target, ambient)
        assert got == relabel_by_sums(p, target, ambient)
        assert (got.ambient, got.degree) == (ambient, p.degree)
        kind = Coefficient if p.ring.params else int
        assert all(type(c) is kind and c for c in got.stored_terms.values())


def test_relabel_rejects_a_map_out_of_range():
    p = Polynomial.variable(ParameterRing(), 3, 2)
    for relabel in (p.relabel, p.relabeler()):
        for target, ambient in (([0, 1], 2), ([0, 1, 2, 0], 3),
                                ([0, 1, 2], 2), ([0, 1, -1], 2)):
            with pytest.raises(ValueError, match="not a map of 3 variables"):
                relabel(target, ambient)


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.randoms(use_true_random=False))
def test_divided_difference_matches_exact_division(p, rng):
    assume(p.ambient >= 2)
    i, j = rng.sample(range(p.ambient), 2)
    xi, xj = (Polynomial.variable(p.ring, p.ambient, k) for k in (i, j))
    sigma = list(range(p.ambient))
    sigma[i], sigma[j] = j, i
    got = p.divided_difference(i, j)
    assert got == (p - p.permute(sigma)).exact_div(xj - xi)
    assert (got.ambient, got.degree) == (p.ambient, p.degree - 1)
    kind = Coefficient if p.ring.params else int
    assert all(type(c) is kind and c for c in got.stored_terms.values())


def test_divided_difference_of_a_term():
    # x1^3 x2 x3 under d_12: -(x1 x2) h_1(x1, x2) x3
    ring = ParameterRing()
    p = Polynomial.monomial(ring, 3, (3, 1, 1), 5)
    want = Polynomial(ring, 3, 4, {(2, 1, 1): -5, (1, 2, 1): -5})
    assert p.divided_difference(0, 1) == want
    assert p.divided_difference(1, 0) == -want
    assert p.divided_difference(1, 2).is_zero()
    for i, j in ((0, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            p.divided_difference(i, j)


def test_derivative():
    ring = ParameterRing(("a",))
    a = ring.parameter("a")
    p = Polynomial(ring, 2, 3, {(2, 1): a, (0, 3): 1})  # a*x1^2*x2 + x2^3
    assert p.derivative(0) == Polynomial(ring, 2, 2, {(1, 1): a * 2})
    assert p.derivative(1) == Polynomial(ring, 2, 2, {(2, 0): a, (0, 2): 3})


# --- determinants -------------------------------------------------------------

def test_determinant_2x2_symbolic():
    ring = ParameterRing(("a", "b", "c", "d"))
    a, b, c, d = (ring.parameter(s) for s in "abcd")
    assert determinant([[a, b], [c, d]]) == a * d - b * c


def test_bareiss_equals_cofactor_on_random_5x5():
    rng = random.Random(43)
    for _ in range(15):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        expected = determinant_cofactor(rows)
        assert determinant_bareiss(rows) == expected
        assert det_permutation_expansion(rows) == expected
        assert determinant(rows) == expected


def test_bareiss_equals_cofactor_on_coefficient_entries():
    rng = random.Random(47)
    ring = ParameterRing(("a", "b"))
    for _ in range(6):
        rows = [[random_coefficient(rng, ring, max_degree=1, n_terms=2,
                                    bound=3)
                 for _ in range(5)] for _ in range(5)]
        assert determinant_bareiss(rows) == determinant_cofactor(rows)


def test_bareiss_pivoting_and_singular():
    # leading zero forces a row swap
    rows = [[0, 1, 2], [1, 0, 1], [3, 1, 0]]
    assert determinant_bareiss(rows) == det_permutation_expansion(rows)
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert determinant_bareiss(singular) == 0
    assert determinant_cofactor(singular) == 0


def test_determinant_polynomial_entries_vandermonde():
    # det [x_i^j] for j = 0..k-1 equals the product of (x_r - x_s), s < r
    ring = ParameterRing()
    for k in range(2, 6):
        xs = [Polynomial.variable(ring, k, i) for i in range(k)]
        one = Polynomial.constant(ring, k, 1)
        rows = [[xs[i] ** j if j else one for j in range(k)]
                for i in range(k)]
        expected = Polynomial.constant(ring, k, 1)
        for r in range(k):
            for s in range(r):
                expected = expected * (xs[r] - xs[s])
        assert determinant(rows) == expected


def test_square_matrix_validation():
    with pytest.raises(ValueError):
        determinant([[1, 2], [3]])
    with pytest.raises(ValueError):
        determinant([])
    assert determinant([[1, 2], [3, 4]]) == -2


# --- integer fast path -------------------------------------------------------

Z = ParameterRing()
T = ParameterRing(("t",))


@st.composite
def int_matrices(draw):
    """Square int matrices of size 1-12, zero-heavy so pivots need swaps;
    some are made singular by a row that is a multiple of another."""
    n = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        rows[i] = [c * x for x in rows[j]]
    return rows


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_int_determinant_matches_slow_routes(rows):
    before = [list(row) for row in rows]
    value = determinant(rows)
    assert rows == before
    assert type(value) is int
    if len(rows) <= 7:
        assert determinant_cofactor(rows) == value
    # the generic loop, kept symbolic by a one-parameter ring
    assert determinant_bareiss(
        [[T.constant(v) for v in row] for row in rows]) == T.constant(value)


@settings(max_examples=50, deadline=None)
@given(int_matrices())
def test_constant_coefficient_matrix_lifts_back(rows):
    """Constant Coefficients, read as ints by ``determinant``, give the
    value and the Coefficient type of the generic Bareiss loop."""
    value = determinant(rows)
    for ring in (Z, T, ParameterRing(("a", "b", "c"))):
        entries = [[ring.constant(v) for v in row] for row in rows]
        lifted = determinant(entries)
        assert type(lifted) is Coefficient and lifted.ring == ring
        assert lifted == ring.constant(value)
        assert lifted == determinant_bareiss(entries)
        if len(rows) <= 6:
            assert lifted == determinant_cofactor(entries)


def test_constant_matrix_past_the_cap_packs_nothing(monkeypatch):
    """A parameter-free matrix over Z[t] of more than three rows whose
    Hadamard bound passes 2^15 bits is read as ints: one int elimination
    and no symbolic route."""
    big = 1 << 20000
    rows = [[T.constant(x) for x in row]
            for row in ((big, 3, 0, 1), (5, big + 1, -7, 0), (0, 2, big, 4),
                        (1, 0, -2, big))]
    calls = []
    real = ring_module._bareiss_int

    def spy(ints):
        calls.append(len(ints))
        return real(ints)

    def refuse(rows):
        raise AssertionError("symbolic route taken")

    monkeypatch.setattr(ring_module, "_bareiss_int", spy)
    monkeypatch.setattr(ring_module, "determinant_minors", refuse)
    monkeypatch.setattr(ring_module, "determinant_bareiss", refuse)
    value = determinant(rows)
    assert calls == [4]
    monkeypatch.undo()
    assert value == determinant_cofactor(rows)


def test_int_determinant_forced_row_swaps_and_singular():
    rows = [[0, 0, 2, 1], [0, 3, 1, 0], [5, 1, 0, 0], [1, 1, 1, 1]]
    assert determinant(rows) == det_permutation_expansion(rows)
    assert determinant([[0, 1], [0, 2]]) == 0
    assert determinant([[7]]) == 7


# --- smallest pivot ----------------------------------------------------------

def wide_entry():
    """0, +-1..9 or +-(2^k + c) with k <= 300: a column's smallest
    nonzero entry is rarely its first."""
    big = st.builds(lambda k, c, sign: sign * ((1 << k) + c),
                    st.integers(10, 300), st.integers(-9, 9),
                    st.sampled_from((1, -1)))
    return st.one_of(st.just(0), st.integers(-9, 9), big, big)


@st.composite
def wide_int_matrices(draw):
    """Square int matrices of size 1-8 with entries from ``wide_entry``.
    Some have a column whose only small entry sits in the last row, and
    some are made singular by a multiple of another row or a zero
    column."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(wide_entry(), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from(("plain", "last_small", "multiple", "zero")))
    if kind == "last_small":
        j = draw(st.integers(0, n - 1))
        for row in rows[:-1]:
            row[j] = draw(st.sampled_from((1, -1))) * ((1 << 200) + 1)
        rows[-1][j] = draw(st.sampled_from((1, -1, 2, -3)))
    elif n > 1 and kind == "multiple":
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((-1, 2, (1 << 150) + 3)))
        rows[i] = [c * x for x in rows[j]]
    elif kind == "zero":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    return rows


@settings(max_examples=150, deadline=None)
@given(wide_int_matrices())
def test_smallest_pivot_matches_oracles_on_wide_ints(rows):
    expected = determinant_minors(rows)
    if len(rows) <= 7:
        assert determinant_cofactor(rows) == expected
    assert determinant(rows) == expected
    assert determinant_bareiss(rows) == expected


def test_smallest_pivot_where_only_the_last_row_is_small():
    big = (1 << 300) + 7
    rows = [[big, 3, 1], [-big, 0, 5], [2, big, -big]]
    expected = det_permutation_expansion(rows)
    assert determinant(rows) == expected
    assert determinant_bareiss(rows) == expected
    assert determinant([[big, 0], [1, big]]) == big * big
    assert determinant([[big, 1], [2 * big, 2]]) == 0


def test_int_pivot_is_the_first_entry_of_fewest_bits():
    """The pivot scan stops at the first +-1 and otherwise picks the row
    that ``min`` over (bits, row) picks: that row ends on top."""
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(2, 7)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 5, 12, (1 << 40) + 1))
                 for _ in range(n)] for _ in range(n)]
        heads = [(row[0].bit_length(), i) for i, row in enumerate(rows)
                 if row[0]]
        ints = [list(row) for row in rows]
        first = ints[min(heads)[1]] if heads else None
        assert ring_module._bareiss_int(ints) == determinant_minors(rows)
        if heads:
            assert ints[0] is first


def test_smallest_pivot_on_coefficient_heads_of_differing_length():
    """Column heads of 0 to 5 terms, so the fewest-term pivot is rarely
    the first nonzero entry; some matrices are singular."""
    ring = ParameterRing(("a", "b"))
    rng = random.Random(67)
    for trial in range(30):
        n = rng.randint(1, 7)
        rows = [[random_coefficient(rng, ring, max_degree=2,
                                    n_terms=rng.choice((0, 1, 2, 5)))
                 for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 4 == 0:
            i, j = rng.sample(range(n), 2)
            rows[i] = [x * (ring.parameter("a") + 2) for x in rows[j]]
        value = determinant_bareiss(rows)
        assert value == determinant_minors(rows)
        if n > 1 and trial % 4 == 0:
            assert value.is_zero()


# --- powers ------------------------------------------------------------------

def test_powers_match_repeated_products():
    rng = random.Random(53)
    ring = ParameterRing(("a", "b"))
    for _ in range(3):
        c = random_coefficient(rng, ring, max_degree=2, n_terms=3)
        p = random_polynomial(rng, ring, 2, 2, n_terms=3)
        c_acc, p_acc = ring.one(), Polynomial.constant(ring, 2, 1)
        for e in range(10):
            assert c ** e == c_acc
            power = p ** e
            assert power == p_acc and power.degree == p_acc.degree
            c_acc, p_acc = c_acc * c, p_acc * p


# --- division-free minor expansion -------------------------------------------

ST = ParameterRing(("s", "t"))
AB = ParameterRing(("a", "b"))
AF = ParameterRing(tuple("abcdef"))
SMALL = st.integers(-3, 3)


@st.composite
def symbolic_matrices(draw):
    """Square matrices of size 1-9 over Z[s,t] or Z[a..f] with entries
    c + c' p for one parameter p.  Sparse or dense; over Z[a..f] only
    sparse above 6 rows, where Bareiss on a dense one takes seconds.
    Some are made singular by a repeated or a zero row."""
    ring = draw(st.sampled_from((ST, AF)))
    n = draw(st.integers(1, 9))
    zeros = 3 if ring is AF and n > 6 else draw(st.integers(0, 3))
    entry = st.tuples(st.integers(0, 3), SMALL, SMALL,
                      st.sampled_from(ring.params))
    rows = []
    for _ in range(n):
        row = []
        for z, c, c1, p in draw(st.lists(entry, min_size=n, max_size=n)):
            row.append(ring.zero() if z < zeros
                       else ring.constant(c) + ring.parameter(p) * c1)
        rows.append(row)
    kind = draw(st.sampled_from(("regular", "repeated", "zero")))
    if n > 1 and kind != "regular":
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = list(rows[j]) if kind == "repeated" else [ring.zero()] * n
    return rows


@settings(max_examples=80, deadline=None)
@given(symbolic_matrices())
def test_minor_expansion_matches_oracles(rows):
    value = determinant_minors(rows)
    assert isinstance(value, Coefficient)
    if len(rows) <= 7:
        assert determinant_cofactor(rows) == value
    assert determinant_bareiss(rows) == value


def test_minor_expansion_on_bordered_vandermonde():
    """The bordered Vandermonde rows of ``divided_difference_determinant``
    with Polynomial entries, and the same rows evaluated to ints."""
    rng = random.Random(59)
    for ring in (Z, T):
        for k in (2, 3, 4):
            polys = [random_polynomial(rng, ring, k, 3, n_terms=4)
                     for _ in range(k)]
            one = Polynomial.constant(ring, k, 1)
            rows = []
            for i in range(k):
                xi = Polynomial.variable(ring, k, i)
                rows.append([one] + [xi ** j for j in range(1, k - 1)]
                            + [polys[i]])
            value = determinant_minors(rows)
            assert value == determinant_cofactor(rows)
            assert value == determinant_bareiss(rows)
            if ring is Z:
                point = [rng.randint(-5, 5) for _ in range(k)]
                ints = [[e.evaluate(point).constant_value() for e in row]
                        for row in rows]
                assert determinant_minors(ints) == determinant(ints)
                assert value.evaluate(point) == Z.constant(determinant(ints))
    # a system with the pairwise divisibility condition: x_i^3 + e1^3
    xs = [Polynomial.variable(Z, 3, i) for i in range(3)]
    e1 = xs[0] + xs[1] + xs[2]
    polys = [x ** 3 + e1 ** 3 for x in xs]
    rows = [[Polynomial.constant(Z, 3, 1), x, p] for x, p in zip(xs, polys)]
    assert determinant_minors(rows).exact_div(
        vandermonde_product(Z, 3, (0, 1, 2))) == \
        divided_difference_determinant(polys, (0, 1, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_minor_expansion_permutation_signs(n):
    """One nonzero per column, at every row position (odd ones too):
    the value is the sign of the permutation times the entries."""
    t = T.parameter("t")
    for perm in permutations(range(n)):
        rows = [[0] * n for _ in range(n)]
        for k, r in enumerate(perm):
            rows[r][k] = k + 2
        assert determinant_minors(rows) == det_permutation_expansion(rows)
        symbolic = [[t * x for x in row] for row in rows]
        assert determinant_minors(symbolic) == \
            det_permutation_expansion(symbolic)


def test_minor_expansion_drops_zero_minors(monkeypatch):
    """Equal first columns make every two-row minor zero: they are
    dropped, the level is empty and no later product is formed."""
    n = 6
    t = T.parameter("t")
    first = [t + i for i in range(n)]
    rows = [[first[i], first[i]] + [t * (i + j) + 1 for j in range(n - 2)]
            for i in range(n)]
    real = Coefficient.__mul__
    products = []

    def counting(self, other):
        if isinstance(other, Coefficient):
            products.append(1)
        return real(self, other)

    monkeypatch.setattr(Coefficient, "__mul__", counting)
    value = determinant_minors(rows)
    monkeypatch.undo()
    assert value == T.zero() and isinstance(value, Coefficient)
    assert len(products) == n * (n - 1)  # the second column only
    assert determinant_minors([[0, 1], [0, 2]]) == 0


def test_determinant_dispatch(monkeypatch):
    """Ints (bools too) and parameter-free Coefficients go to the int
    loop, other matrices of 1-3 rows to minor expansion, Coefficient
    matrices whose packing fits the cap to one packed int elimination,
    larger symbolic ones of up to 12 rows to minor expansion and the
    rest to Bareiss; ints mixed with Coefficients are never packed."""
    seen = []
    for name in ("determinant_minors", "determinant_bareiss", "_bareiss_int",
                 "_determinant_packed"):
        def spy(rows, name=name, real=getattr(ring_module, name)):
            seen.append((name, len(rows)))
            return real(rows)
        monkeypatch.setattr(ring_module, name, spy)

    def diagonal(n, entry):
        rows = [[entry(i) * 0 for _ in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = entry(i)
        return rows

    s, t = ST.parameter("s"), ST.parameter("t")
    for n in (12, 13):
        seen.clear()
        value = determinant(diagonal(n, lambda i: s * (i + 1) - t * i))
        assert seen == [("_determinant_packed", n), ("_bareiss_int", n)]
        assert value == prod((s * (i + 1) - t * i for i in range(n)),
                             start=ST.one())
    # degree 3000 per row puts the packing past PACKED_MAX_BITS
    t = T.parameter("t")
    for n, route in ((12, "determinant_minors"), (13, "determinant_bareiss")):
        seen.clear()
        value = determinant(diagonal(n, lambda i: t ** 3000 + i))
        assert seen == [("_determinant_packed", n), (route, n)]
        assert value == prod((t ** 3000 + i for i in range(n)),
                             start=T.one())
    seen.clear()
    assert determinant(diagonal(12, lambda i: i + 2)) == prod(range(2, 14))
    assert seen == [("_bareiss_int", 12)]
    s, t = ST.parameter("s"), ST.parameter("t")
    for n in (1, 2, 3):
        for entry, route in (
                (lambda i: s * (i + 1) - t, "determinant_minors"),
                (lambda i: T.constant(i + 2), "_bareiss_int"),
                (lambda i: i + 2, "_bareiss_int")):
            seen.clear()
            rows = diagonal(n, entry)
            if n > 1:  # upper triangular
                rows[0][-1] = entry(n)
            value = determinant(rows)
            assert seen == [(route, n)]
            assert value == prod(map(entry, range(n)), start=entry(0) ** 0)
    seen.clear()
    assert determinant(diagonal(4, lambda i: T.constant(i + 2))) == \
        T.constant(120)
    assert seen == [("_bareiss_int", 4)]
    seen.clear()
    assert determinant(diagonal(12, lambda i: T.constant(i + 2))) == \
        T.constant(prod(range(2, 14)))
    assert seen == [("_bareiss_int", 12)]
    # bools are ints; ints mixed with Coefficients take the symbolic routes
    t = T.parameter("t")
    for rows, want, routes in (
            ([[True, False], [True, True]], 1, ["_bareiss_int"]),
            ([[T.constant(2), 1], [3, T.constant(4)]], T.constant(5),
             ["determinant_minors"]),
            (diagonal(4, lambda i: t if i == 3 else i + 1), t * 6,
             ["_determinant_packed", "determinant_minors"]),
            (diagonal(13, lambda i: t if i else 1), t ** 12,
             ["_determinant_packed", "determinant_bareiss"])):
        seen.clear()
        assert determinant(rows) == want
        assert [name for name, _ in seen] == routes


# --- Kronecker packing --------------------------------------------------------

def packed(rows):
    """``_determinant_packed``, which must take the matrix."""
    value = ring_module._determinant_packed(rows)
    assert isinstance(value, Coefficient)
    return value


def assert_packed_matches_oracles(rows):
    value = packed(rows)
    assert value == determinant_minors(rows)
    assert value == determinant_bareiss(rows)
    if len(rows) <= 6:
        assert value == determinant_cofactor(rows)
    return value


@pytest.mark.parametrize("width", [1, 2, 3])
def test_packed_matches_oracles_on_seeded_matrices(width):
    """Random entries with negative coefficients, some empty, made
    singular by a multiple of another row or by a zero row."""
    ring = ParameterRing(("a", "b", "c")[:width])
    rng = random.Random(61 + width)
    for trial in range(24):
        n = rng.randint(1, 5)
        rows = [[random_coefficient(rng, ring, max_degree=2,
                                    n_terms=rng.randint(0, 3))
                 for _ in range(n)] for _ in range(n)]
        kind = trial % 3
        if n > 1 and kind:
            i, j = rng.sample(range(n), 2)
            scale = random_coefficient(rng, ring, max_degree=1, n_terms=2)
            rows[i] = ([x * scale for x in rows[j]] if kind == 1
                       else [ring.zero()] * n)
        value = assert_packed_matches_oracles(rows)
        if n > 1 and kind:
            assert value.is_zero()


def test_packed_zero_row_and_zero_matrix():
    t = T.parameter("t")
    rows = [[t, t + 1, T.constant(2)], [T.zero()] * 3, [t * t, -t, T.one()]]
    assert assert_packed_matches_oracles(rows) == T.zero()
    assert packed([[T.zero()]]) == T.zero()


def test_packed_where_row_and_column_bounds_differ():
    """One heavy row of high degree: the row sums bound degree and size
    tighter than the column sums (6 against 12 in a), and the transpose
    the other way round; the determinant reaches the tighter bound."""
    a, b = AB.parameter("a"), AB.parameter("b")
    heavy = [a ** 4 * 5 - b, a ** 4 * -7 + b ** 2, a ** 4 * 3]
    rows = [heavy, [AB.one(), a, b], [b, AB.constant(-2), a + 1]]
    transpose = [list(col) for col in zip(*rows)]
    for m in (rows, transpose):
        value = assert_packed_matches_oracles(m)
        assert max(e[0] for e in value.terms) == 6


@pytest.mark.parametrize("m", [0, 1, 7, 64])
def test_packed_reaches_the_coefficient_bound(m):
    """One-term entries of +-2^m: the determinant is a single term whose
    coefficient is exactly the Hadamard bound B (here equal to the l1
    bound), and its degree exactly the degree bound."""
    a, b = AB.parameter("a"), AB.parameter("b")
    for sign in (1, -1):
        assert packed([[a * (sign << m)]]) == a * (sign << m)
        assert packed([[AB.constant(sign << m)]]) == AB.constant(sign << m)
        entries = [a ** 2 * (sign << m), b * (-sign << m), a * b * (sign << m)]
        rows = [[AB.zero()] * 3 for _ in range(3)]
        for i, x in enumerate(entries):
            rows[i][i] = x
        assert assert_packed_matches_oracles(rows) == \
            a ** 3 * b ** 2 * (-sign << 3 * m)


def sylvester_hadamard(order):
    """The +-1 Hadamard matrix of a power-of-two order, by Sylvester's
    doubling [[H, H], [H, -H]]."""
    rows = [[1]]
    while len(rows) < order:
        rows = ([row + row for row in rows]
                + [row + [-x for x in row] for row in rows])
    return rows


@pytest.mark.parametrize("order", [2, 4, 8])
def test_packed_reaches_the_hadamard_bound(order, monkeypatch):
    """Entries +-t of a Hadamard matrix: the determinant +-n^(n/2) t^n
    sits exactly on the Hadamard bound B = n^(n/2), the top of its
    signed digit, and reads back.  At order 8 the digit width is
    K = 14 (the l1 bound 8^8 would give K = 26), so t packs to
    +-2^14."""
    t = T.parameter("t")
    signs = sylvester_hadamard(order)
    rows = [[t * x for x in row] for row in signs]
    value = determinant_minors(signs)
    assert abs(value) == order ** (order // 2)
    packed_rows = []
    real = ring_module._bareiss_int

    def spy(ints):
        packed_rows.extend(list(row) for row in ints)
        return real(ints)

    monkeypatch.setattr(ring_module, "_bareiss_int", spy)
    assert packed(rows) == t ** order * value
    if order == 8:
        assert packed_rows == [[x << 14 for x in row] for row in signs]


def test_packed_declines_past_the_cap_and_mixed_entries():
    t = T.parameter("t")
    assert ring_module._determinant_packed([[t ** 40000]]) is None
    big = T.constant(1 << ring_module.PACKED_MAX_BITS)
    assert ring_module._determinant_packed([[t, big], [big, t]]) is None
    assert ring_module._determinant_packed([[t, 1], [2, t]]) is None
    assert ring_module._determinant_packed([[1, 2], [3, 4]]) is None


def test_packed_value_outside_the_degree_box_raises(monkeypatch):
    t = T.parameter("t")
    monkeypatch.setattr(ring_module, "_bareiss_int",
                        lambda rows: 1 << ring_module.PACKED_MAX_BITS)
    with pytest.raises(ArithmeticError):
        ring_module._determinant_packed([[t + 1, t], [t, t - 1]])
