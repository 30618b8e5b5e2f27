"""Integer polynomials against the Coefficient-valued route.

A Polynomial over Z keeps plain-int coefficients.  Lifting an integer
polynomial into the one-parameter ring Z[t], as constants, sends it down
the Coefficient-valued route every Polynomial took before; each
operation must agree on both routes once the lifted result is projected
back to Z.
"""

import random

import pytest

from symres.divdiff import EquivariantSystem
from symres.equivariant import (
    decompose_resultant,
    random_integer_equivariant_system,
    rho_lambda,
)
from symres.resultant import macaulay_resultant
from symres.ring import (
    Coefficient,
    NotDivisibleError,
    ParameterRing,
    Polynomial,
)

from conftest import leading_term, random_int_polynomial

Z = ParameterRing()
ZT = ParameterRing(("t",))


def lift(p: Polynomial) -> Polynomial:
    return Polynomial(ZT, p.ambient, p.degree,
                      {e: ZT.constant(c.constant_value())
                       for e, c in p.terms.items()})


def project(q: Polynomial) -> Polynomial:
    """The integer polynomial of a Z[t] one whose coefficients are
    constants; fails on any coefficient that involves t."""
    return Polynomial(Z, q.ambient, q.degree,
                      {e: project_coefficient(c) for e, c in q.terms.items()})


def project_coefficient(c: Coefficient) -> int:
    assert c.ring == ZT
    return c.constant_value()


def assert_same(fast: Polynomial, slow: Polynomial) -> None:
    assert fast == project(slow)
    assert (fast.ring, fast.ambient) == (Z, slow.ambient)
    if fast:
        assert fast.degree == slow.degree
    assert all(isinstance(c, Coefficient) and c.ring == Z
               for c in fast.terms.values())


def samples(seed, count=25):
    """(rng, ambient, random integer polynomial) triples."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        yield rng, n, random_int_polynomial(rng, n, rng.randint(0, 3),
                                            n_terms=5)


def test_sums_products_and_powers_agree():
    for rng, n, x in samples(101):
        y = random_int_polynomial(rng, n, x.degree, n_terms=5)
        z = random_int_polynomial(rng, n, rng.randint(0, 2), n_terms=3)
        k = rng.choice((0, 1, -1, rng.randint(-99, 99)))
        e = rng.randint(0, 4)
        lx, ly, lz = lift(x), lift(y), lift(z)
        assert_same(x + y, lx + ly)
        assert_same(x - y, lx - ly)
        assert_same(-x, -lx)
        assert_same(x - x, lx - lx)
        assert_same(x * z, lx * lz)
        assert_same(x * k, lx * k)
        assert_same(k * x, k * lx)
        assert_same(x * Z.constant(k), lx * ZT.constant(k))
        assert_same(Z.constant(k) * x, ZT.constant(k) * lx)
        assert_same(x ** e, lx ** e)


def test_exact_division_agrees():
    checked = 0
    for rng, n, x in samples(103):
        z = random_int_polynomial(rng, n, rng.randint(0, 3), n_terms=5)
        if not z:
            continue
        lx, lz = lift(x), lift(z)
        assert_same((x * z).exact_div(z), (lx * lz).exact_div(lz))
        assert_same((x * z * 6).exact_div(z * 3),
                    (lx * lz * 6).exact_div(lz * 3))
        checked += 1
    assert checked > 15
    ring_x = [Polynomial.variable(Z, 2, i) for i in range(2)]
    num = ring_x[0] * ring_x[0] + ring_x[1] * ring_x[1]
    den = ring_x[0] - ring_x[1]
    for a, b in ((num, den), (lift(num), lift(den)),
                 (den * 3, den * 2), (lift(den * 3), lift(den * 2))):
        with pytest.raises(NotDivisibleError, match="does not divide"):
            a.exact_div(b)


def test_structural_operations_agree():
    for rng, n, x in samples(107):
        lx = lift(x)
        m = rng.randint(1, 3)
        g = rng.randint(0, 2)
        images = {i: random_int_polynomial(rng, m, g, n_terms=3)
                  for i in range(n)}
        lifted = {i: lift(v) for i, v in images.items()}
        assert_same(x.substitute(images), lx.substitute(lifted))
        sigma = rng.sample(range(n), n)
        assert_same(x.permute(sigma), lx.permute(sigma))
        i = rng.randrange(n)
        assert_same(x.derivative(i), lx.derivative(i))
        point = [rng.randint(-4, 4) for _ in range(n)]
        value = x.evaluate(point)
        assert value.ring == Z
        assert value.constant_value() == project_coefficient(
            lx.evaluate(point))
        for lam in ((n,), (1,) * n, tuple(sorted(
                (rng.randint(1, 2) for _ in range(n)), reverse=True))):
            if sum(lam) == n:
                assert_same(rho_lambda(x, lam), rho_lambda(lx, lam))


def test_substitution_keeps_one_ring():
    # an int coefficient would multiply into any ring; the images must
    # still share the polynomial's ring, as with Coefficient storage
    x = Polynomial.variable(Z, 2, 0) * 3
    for p, ring in ((x, ZT), (lift(x), Z)):
        image = Polynomial.variable(ring, 2, 1)
        with pytest.raises(ValueError):
            p.substitute({0: image, 1: image})


def test_accessors_return_coefficients():
    x = Polynomial(Z, 2, 2, {(2, 0): 3, (1, 1): -2})
    assert x.coefficient_of((1, 1)) == Z.constant(-2)
    assert x.coefficient_of((0, 2)) == Z.zero()
    assert leading_term(x) == ((2, 0), Z.constant(3))
    assert Polynomial.constant(Z, 2, 7).as_coefficient() == Z.constant(7)
    for c in (x.coefficient_of((1, 1)), leading_term(x)[1],
              Polynomial.constant(Z, 2, 7).as_coefficient()):
        assert isinstance(c, Coefficient) and c.ring == Z
    with pytest.raises(TypeError):
        x.terms[(0, 2)] = Z.one()
    assert x.terms == {(2, 0): Z.constant(3), (1, 1): Z.constant(-2)}


def test_integer_arithmetic_multiplies_no_coefficient(monkeypatch):
    calls = []
    original = Coefficient.__mul__

    def spy(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Coefficient, "__mul__", spy)
    rng = random.Random(109)
    x = random_int_polynomial(rng, 3, 2, n_terms=6)
    images = {i: random_int_polynomial(rng, 3, 1) for i in range(3)}
    x.substitute(images)
    (x * x).exact_div(x)
    x * Z.constant(5)
    assert calls == []
    lift(x) * lift(x)
    assert calls


@pytest.mark.parametrize("n, d, seed", [(2, 3, 1), (3, 2, 2), (3, 3, 3),
                                        (4, 2, 4)])
def test_resultant_and_decomposition_agree(n, d, seed):
    system = random_integer_equivariant_system(random.Random(seed), n, d)
    lifted = EquivariantSystem(lift(p) for p in system.polys)
    fast = macaulay_resultant(system.polys)
    assert fast.ring == Z
    assert fast.constant_value() == project_coefficient(
        macaulay_resultant(lifted.polys))
    got, want = decompose_resultant(system), decompose_resultant(lifted)
    assert got.partitions == want.partitions
    assert got.prefactor.constant_value() == project_coefficient(
        want.prefactor)
    assert [(v.constant_value(), m) for v, m in got.factors] == [
        (project_coefficient(v), m) for v, m in want.factors]
    assert got.expand() == fast


def test_public_construction_rejects_malformed_input():
    other = ParameterRing(("b",))
    for ring in (Z, ZT):
        for ambient, degree, terms in [
                (0, 0, {}),                      # no variables
                (2, 1, {(1,): 1}),               # short exponent
                (2, 1, {(1, 0, 0): 1}),          # long exponent
                (2, 1, {(2, -1): 1}),            # negative exponent
                (2, 2, {(2, 0): 1, (1, 0): 1}),  # inhomogeneous
                (1, -1, {(-1,): 1}),             # negative degree
                (1, 0, {(0,): other.one()}),     # another ring
                (1, 0, {(0,): other.zero()}),    # another ring, even zero
        ]:
            with pytest.raises(ValueError):
                Polynomial(ring, ambient, degree, terms)
        for bad in (1.0, "1", None):
            with pytest.raises(TypeError):
                Polynomial(ring, 1, 0, {(0,): bad})
        x = Polynomial.variable(ring, 2, 0)
        with pytest.raises(ValueError):
            x * other.one()
        with pytest.raises(ValueError):
            x + Polynomial.variable(other, 2, 0)
        # zeros of either kind are dropped, an equal ring is accepted
        same = ParameterRing(ring.params)
        for zero in (0, ring.zero(), same.zero()):
            p = Polynomial(ring, 2, 1, {(1, 0): same.constant(3),
                                        (0, 1): zero})
            assert p.terms == {(1, 0): ring.constant(3)}
            assert p == Polynomial(ring, 2, 1, {(1, 0): 3})
