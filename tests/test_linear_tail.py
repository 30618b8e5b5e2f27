"""The linear-tail dispatch ``resultant`` against ``macaulay_resultant``.

A system whose last entry is a linear form L = sum c_k y_k loses one
variable before its Macaulay quotient; the direct quotient of the
unreduced system is the oracle for every case.
"""

import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import symres.resultant as resultant_module
from conftest import random_int_polynomial
from symres.divdiff import DividedDifferenceTable
from symres.equivariant import (
    decompose_resultant,
    generic_equivariant_system,
    specialize_chain,
)
from symres.resultant import (
    macaulay_resultant,
    monomials_of_degree,
    resultant,
)
from symres.ring import ParameterRing, Polynomial

Z = ParameterRing()
ZT = ParameterRing(("t",))
SMALL = st.integers(-3, 3)
NONZERO = st.integers(-3, 3).filter(bool)


def _constant_or_linear(ring, a, b=0):
    """a + b*t over Z[t]; b is ignored over Z."""
    if ring is Z:
        return Z.constant(a)
    return ZT.constant(a) + ZT.parameter("t") * b


@st.composite
def _form(draw, ring, n, degree):
    terms = {}
    for exp in monomials_of_degree(n, degree):
        b = draw(SMALL) if ring is ZT else 0
        terms[exp] = _constant_or_linear(ring, draw(SMALL), b)
    return Polynomial(ring, n, degree, terms)


@st.composite
def _linear_tail_system(draw, ring, n, j):
    """Random forms F_1..F_{n-1} and a linear form whose pivot is y_j.

    Over Z every coefficient has one term, so the pivot is the last
    nonzero one: the entries after j are zero.  Over Z[t] the pivot is
    the only one-term coefficient; the others are zero or a + b*t.
    """
    top = 3 if n == 3 else 2
    degrees = [draw(st.integers(1, top)) for _ in range(n - 1)]
    if ring is ZT and n == 4:
        # keeps the symbolic oracle at 20 rows or fewer
        degrees[draw(st.integers(0, 2))] = 1
    forms = [draw(_form(ring, n, d)) for d in degrees]
    t = ZT.parameter("t")
    if ring is Z:
        pivot = Z.constant(draw(st.sampled_from((1, -1, 2, -3))))
    else:
        pivot = draw(st.sampled_from((ZT.one(), -ZT.one(), ZT.constant(2),
                                      ZT.constant(-3), t, t * -2)))
    coeffs = []
    for k in range(n):
        if k == j:
            coeffs.append(pivot)
        elif ring is Z:
            coeffs.append(Z.constant(draw(SMALL) if k < j else 0))
        elif draw(st.booleans()):
            coeffs.append(_constant_or_linear(ZT, draw(NONZERO),
                                              draw(NONZERO)))
        else:
            coeffs.append(ZT.zero())
    tail = sum((Polynomial.variable(ring, n, k) * c
                for k, c in enumerate(coeffs)), Polynomial.zero(ring, n, 1))
    return forms + [tail]


CASES = [(ring, n, j) for ring in (Z, ZT) for n in (3, 4) for j in range(n)]


@pytest.mark.parametrize(
    "ring,n,j", CASES,
    ids=[f"{'Zt' if r is ZT else 'Z'}-n{n}-pivot{j}" for r, n, j in CASES])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_reduction_matches_macaulay(ring, n, j, data):
    polys = data.draw(_linear_tail_system(ring, n, j))
    assert resultant(polys) == macaulay_resultant(polys)


def test_pivot_has_fewest_terms_and_is_last_on_a_tie():
    pivot = resultant_module._linear_pivot
    t = ZT.parameter("t")
    one, zero = ZT.one(), ZT.zero()
    assert pivot([t + 1, one * 2, t + 2]) == 1
    assert pivot([one, t, t - 1, zero]) == 1
    assert pivot([t + 1, t - 1, zero]) == 1
    assert pivot([one, one * -3, one]) == 2
    assert pivot([zero, t * 5, zero]) == 1


def _recording_macaulay(monkeypatch):
    seen = []

    def recording(polys):
        seen.append(polys)
        return macaulay_resultant(polys)

    monkeypatch.setattr(resultant_module, "macaulay_resultant", recording)
    return seen


def test_other_systems_fall_straight_through(monkeypatch):
    rng = random.Random(3)
    seen = _recording_macaulay(monkeypatch)
    quadratic_tail = [random_int_polynomial(rng, 3, d, n_terms=6)
                      for d in (2, 1, 2)]
    pair = [random_int_polynomial(rng, 2, d, n_terms=3) for d in (2, 1)]
    for polys in (quadratic_tail, pair):
        value = resultant(polys)
        assert seen.pop() is polys
        assert value == macaulay_resultant(polys)
    assert not seen


def test_linear_tail_reaches_macaulay_in_one_variable_less(monkeypatch):
    rng = random.Random(4)
    seen = _recording_macaulay(monkeypatch)
    polys = [random_int_polynomial(rng, 3, d, n_terms=6) for d in (2, 2, 1)]
    value = resultant(polys)
    [reduced] = seen
    assert len(reduced) == 2 and all(p.ambient == 2 for p in reduced)
    assert value == macaulay_resultant(polys)


def _at(c, point):
    return sum(v * prod(x ** e for x, e in zip(point, exp))
               for exp, v in c.terms.items())


def test_generic_ternary_cubic_decomposes():
    system = generic_equivariant_system(3, 3)
    factored = decompose_resultant(system)
    rng = random.Random(0)
    for _ in range(3):
        point = [rng.randint(-3, 3) for _ in system.ring.params]
        specialized = [Polynomial(Z, 3, 3, {exp: _at(c, point)
                                            for exp, c in p.terms.items()})
                       for p in system.polys]
        expanded = _at(factored.prefactor, point) * prod(
            _at(value, point) ** mult for value, mult in factored.factors)
        assert expanded == macaulay_resultant(specialized).constant_value()


def test_all_ones_chain_builds_only_small_matrices(monkeypatch):
    table = DividedDifferenceTable(generic_equivariant_system(3, 3))
    chain = specialize_chain(table, (1, 1, 1))
    real = resultant_module.macaulay_data
    sizes = []

    def recording(polys):
        data = real(polys)
        sizes.append(len(data[0]))
        return data

    monkeypatch.setattr(resultant_module, "macaulay_data", recording)
    resultant(chain.polys)
    assert sizes and max(sizes) <= 5
