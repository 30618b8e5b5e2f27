"""Macaulay and Sylvester resultants against independent oracles.

The main reference values come from systems built as products of
integer linear forms: multiplicativity reduces their resultant to a
product of coefficient-matrix determinants, which touches none of the
Macaulay machinery.
"""

import random
from itertools import product

import pytest

import symres.resultant as resultant_module
from conftest import (
    macaulay_data_uncached,
    random_coefficient,
    random_int_polynomial,
    random_polynomial,
    unimodular_images,
)
from symres.equivariant import (
    decompose_resultant,
    random_integer_equivariant_system,
    verify_decomposition,
)
from symres.parser import parse_poly
from symres.resultant import (
    index_function,
    is_dod,
    macaulay_data,
    macaulay_resultant,
    monomials_of_degree,
    sylvester_matrix,
    sylvester_resultant,
)
from symres.ring import Coefficient, ParameterRing, Polynomial, determinant

Z = ParameterRing()
AB = ParameterRing(("a", "b", "c", "d"))


def int_det(rows):
    return determinant([[Z.constant(v) for v in row] for row in rows])


def linear_form(coeffs, n):
    out = Polynomial.zero(Z, n, 1)
    for i, c in enumerate(coeffs):
        out = out + Polynomial.variable(Z, n, i) * c
    return out


def product_system(form_lists, n):
    """One polynomial per list, each the product of its linear forms."""
    polys = []
    for forms in form_lists:
        p = Polynomial.constant(Z, n, 1)
        for f in forms:
            p = p * linear_form(f, n)
        polys.append(p)
    return polys


def oracle_resultant(form_lists, n):
    """Multiplicativity reduces to determinants of coefficient rows."""
    total = Z.one()
    for choice in product(*form_lists):
        total = total * int_det(choice)
    return total


def random_form_lists(rng, n, degrees):
    while True:
        fl = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
              for d in degrees]
        if all(any(c for c in f) for forms in fl for f in forms):
            return fl


class TestMonomialIndexing:
    def test_descending_lex_enumeration(self):
        mons = monomials_of_degree(3, 2)
        assert mons == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                        (0, 2, 0), (0, 1, 1), (0, 0, 2)]

    def test_counts(self):
        from math import comb
        for n in (1, 2, 3, 4):
            for t in (0, 1, 3, 5):
                assert len(monomials_of_degree(n, t)) == comb(t + n - 1, n - 1)

    def test_index_function(self):
        assert index_function((3, 0, 1), (2, 2, 2)) == 0
        assert index_function((1, 2, 1), (2, 2, 2)) == 1
        assert index_function((0, 1, 3), (2, 2, 2)) == 2
        with pytest.raises(ValueError):
            index_function((1, 1, 1), (2, 2, 2))

    def test_dod_predicate(self):
        assert is_dod((2, 2, 0), (2, 2, 2))
        assert not is_dod((3, 1, 0), (2, 2, 2))


class TestNormalization:
    def test_pure_powers_have_resultant_one(self):
        for n in (1, 2, 3, 4):
            for degrees in product((1, 2, 3), repeat=n):
                polys = [Polynomial.variable(Z, n, i) ** d
                         for i, d in enumerate(degrees)]
                assert macaulay_resultant(polys) == Z.one(), degrees

    def test_pure_power_matrix_is_identity(self):
        polys = [Polynomial.variable(Z, 3, i) ** 2 for i in range(3)]
        rows, mons, _ = macaulay_data(polys)
        size = range(len(mons))
        assert rows == [[int(r == c) for c in size] for r in size]

    def test_entries_are_stored_coefficients(self):
        """Ints over Z, Coefficients over Z[a, b, c, d], zeros included."""
        for ring, text in ((Z, "2*x1 - x2"), (AB, "a*x1 - x2")):
            f = parse_poly(text, 2, ring)
            g = parse_poly("x1*x2 + 3*x2^2", 2, ring)
            rows, _, _ = macaulay_data([f, g])
            kind = Coefficient if ring.params else int
            assert all(type(x) is kind for row in rows for x in row)
            assert all(x.ring == ring for row in rows for x in row
                       if kind is Coefficient)


class TestSmallClosedForms:
    def test_generic_linear_pair(self):
        f = parse_poly("a*x1 + b*x2", 2, AB)
        g = parse_poly("c*x1 + d*x2", 2, AB)
        want = parse_poly("a*d - b*c", 1, AB, degree=0).as_coefficient()
        assert macaulay_resultant([f, g]) == want
        assert sylvester_resultant(f, g) == want

    def test_difference_and_sum(self):
        f = parse_poly("x1 - x2", 2, Z)
        g = parse_poly("x1 + x2", 2, Z)
        assert macaulay_resultant([f, g]) == Z.constant(2)

    def test_line_against_cubic(self):
        # root of f is (1 : 1), so the value is g(1, 1) = -6
        f = parse_poly("x1 - x2", 2, Z)
        g = product_system([[[1, -2], [1, -3], [1, -4]]], 2)[0]
        assert macaulay_resultant([f, g]) == Z.constant(-6)
        assert sylvester_resultant(f, g) == Z.constant(-6)
        assert g.evaluate((1, 1)) == Z.constant(-6)

    def test_single_polynomial(self):
        p = parse_poly("7*x1^3", 1, Z)
        assert macaulay_resultant([p]) == Z.constant(7)

    def test_zero_input_gives_zero(self):
        f = Polynomial.zero(Z, 2, 2)
        g = parse_poly("x1^2 + x2^2", 2, Z)
        assert macaulay_resultant([f, g]).is_zero()


class TestLinearFormOracle:
    def test_binary_forms_all_degree_pairs(self):
        rng = random.Random(20)
        for d1, d2 in product((1, 2, 3), repeat=2):
            for _ in range(4):
                fl = random_form_lists(rng, 2, (d1, d2))
                polys = product_system(fl, 2)
                want = oracle_resultant(fl, 2)
                assert macaulay_resultant(polys) == want, (d1, d2, fl)
                assert sylvester_resultant(*polys) == want, (d1, d2, fl)

    def test_ternary_systems(self):
        rng = random.Random(21)
        for degrees in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)):
            for _ in range(3):
                fl = random_form_lists(rng, 3, degrees)
                polys = product_system(fl, 3)
                assert macaulay_resultant(polys) == oracle_resultant(fl, 3)

    def test_quaternary_linear(self):
        rng = random.Random(22)
        fl = random_form_lists(rng, 4, (1, 1, 1, 1))
        polys = product_system(fl, 4)
        assert macaulay_resultant(polys) == oracle_resultant(fl, 4)


class TestSylvesterAgainstMacaulay:
    def test_random_integer_forms(self):
        rng = random.Random(23)
        for d1, d2 in product((1, 2, 3, 4), repeat=2):
            f = random_int_polynomial(rng, 2, d1, n_terms=d1 + 1, bound=4)
            g = random_int_polynomial(rng, 2, d2, n_terms=d2 + 1, bound=4)
            if f.is_zero() or g.is_zero():
                continue
            assert sylvester_resultant(f, g) == macaulay_resultant([f, g])

    def test_symbolic_quadratic_pair(self):
        f = parse_poly("a*x1^2 + b*x1*x2 + c*x2^2", 2, AB)
        g = parse_poly("d*x1^2 + b*x1*x2 + a*x2^2", 2, AB)
        assert sylvester_resultant(f, g) == macaulay_resultant([f, g])

    def test_matrix_layout(self):
        f = parse_poly("a*x1 + b*x2", 2, AB)
        g = parse_poly("c*x1 + d*x2", 2, AB)
        rows = sylvester_matrix(f, g)
        assert [[c for c in row] for row in rows] == [
            [AB.parameter("a"), AB.parameter("b")],
            [AB.parameter("c"), AB.parameter("d")]]


class TestDegenerateDenominator:
    # Frozen search hit: the dod minor is singular as given, but a
    # unimodular change of variables recovers the value, which the
    # linear-form oracle pins to -11520.
    FORMS = ([[2, -1, 1], [2, 1, 0]],
             [[1, 2, 1], [0, 0, -1]],
             [[-1, -1, -2], [2, 0, 2]])

    def test_denominator_is_singular_as_given(self):
        polys = product_system(self.FORMS, 3)
        rows, _, dod = macaulay_data(polys)
        assert dod
        den = determinant([[rows[r][c] for c in dod] for r in dod])
        assert den == 0 and type(den) is int

    def test_retry_recovers_oracle_value(self):
        polys = product_system(self.FORMS, 3)
        want = oracle_resultant(self.FORMS, 3)
        assert want == Z.constant(-11520)
        assert macaulay_resultant(polys) == want

    @staticmethod
    def exhausting_system():
        """An equivariant (3, 2) system, slot values (1, -3, 3, 2), whose
        dod minor vanishes as given and after every shear."""
        e1 = "(x1 + x2 + x3)"
        return [parse_poly(f"x{i}^2 - 3*x{i}*{e1} + 3*(x1*x2 + x1*x3 + "
                           f"x2*x3) + 2*{e1}*{e1}", 3, Z, degree=2)
                for i in (1, 2, 3)]

    def test_vanishing_denominator_skips_numerator(self, monkeypatch):
        # The value of the exhausting system comes from the perturbation,
        # which also tests its denominator before its numerator.
        polys = self.exhausting_system()
        dims = []

        def counting(m):
            dims.append(len(m))
            return determinant(m)

        monkeypatch.setattr(resultant_module, "determinant", counting)
        assert macaulay_resultant(polys) == Z.constant(-886464)
        rows, _, dod = macaulay_data(polys)
        failed = 1 + resultant_module.MAX_UNIMODULAR_RETRIES
        assert dims == [len(dod)] * (failed + 1) + [len(rows)]


class TestPerturbationFallback:
    # Three copies of the same quadric vanish on a whole curve, so the
    # numerator and denominator are zero in every coordinate system and
    # only the diagonal perturbation can decide the value.

    def test_identical_quadrics_give_zero(self):
        e2 = parse_poly("x1*x2 + x1*x3 + x2*x3", 3, Z)
        assert macaulay_resultant([e2, e2, e2]).is_zero()
        sq = parse_poly("(x1 + x2 + x3)^2", 3, Z)
        assert macaulay_resultant([sq, sq, sq]).is_zero()

    def test_agrees_with_quotient_when_both_work(self):
        from symres.resultant import _perturbed_resultant
        rng = random.Random(18)
        for degrees in ((2, 1), (2, 2), (1, 1, 2)):
            n = len(degrees)
            polys = [random_int_polynomial(rng, n, d, bound=3)
                     for d in degrees]
            if any(p.is_zero() for p in polys):
                continue
            assert _perturbed_resultant(polys) == macaulay_resultant(polys)

    def test_fresh_perturbation_name_avoids_ring_params(self):
        from symres.resultant import _perturbed_resultant
        ring = ParameterRing(("eps",))
        eps = ring.parameter("eps")
        f = Polynomial.monomial(ring, 2, (2, 0), eps) \
            + Polynomial.monomial(ring, 2, (0, 2), 1)
        g = Polynomial.monomial(ring, 2, (1, 0), 1) \
            + Polynomial.monomial(ring, 2, (0, 1), eps)
        assert _perturbed_resultant([f, g]) == macaulay_resultant([f, g])


class TestForcedFallbackChain:
    """``_try_quotient`` made to fail its first m attempts forces each
    step of the chain in turn: m = 0 keeps the given coordinates,
    m = k the k-th unimodular retry, and m = MAX_UNIMODULAR_RETRIES + 1
    the perturbation, whose own lifted quotient is one more attempt.
    Each case is nondegenerate in every coordinate system tried, so
    every step ends in exactly one successful attempt."""

    STEPS = range(resultant_module.MAX_UNIMODULAR_RETRIES + 2)

    @staticmethod
    def force(monkeypatch, m):
        attempts, perturbed = [], []
        real_try = resultant_module._try_quotient
        real_perturbed = resultant_module._perturbed_resultant

        def failing(polys):
            attempts.append(len(polys))
            return None if len(attempts) <= m else real_try(polys)

        def spy(polys):
            perturbed.append(len(polys))
            return real_perturbed(polys)

        monkeypatch.setattr(resultant_module, "_try_quotient", failing)
        monkeypatch.setattr(resultant_module, "_perturbed_resultant", spy)
        return attempts, perturbed

    def check_step(self, monkeypatch, m, polys, want):
        attempts, perturbed = self.force(monkeypatch, m)
        assert macaulay_resultant(polys) == want
        retries = resultant_module.MAX_UNIMODULAR_RETRIES
        assert len(attempts) == m + 1
        assert perturbed == ([len(polys)] if m > retries else [])

    @pytest.mark.parametrize("m", STEPS)
    def test_binary_forms_against_sylvester(self, monkeypatch, m):
        rng = random.Random(70)
        ring = ParameterRing(("a",))
        a = ring.parameter("a")
        cases = []
        for degrees in ((2, 3), (3, 1)):
            f, g = (random_int_polynomial(rng, 2, d, bound=4)
                    for d in degrees)
            cases.append([f, g])
        cases.append([Polynomial(ring, 2, 2, {(2, 0): a, (1, 1): 1,
                                              (0, 2): a - 2}),
                      Polynomial(ring, 2, 2, {(2, 0): 3, (0, 2): -a})])
        for f, g in cases:
            want = sylvester_resultant(f, g)
            self.check_step(monkeypatch, m, [f, g], want)
            monkeypatch.undo()

    @pytest.mark.parametrize("m", STEPS)
    def test_equivariant_system_against_decomposition(self, monkeypatch, m):
        for seed in (0, 6):
            system = random_integer_equivariant_system(
                random.Random(seed), 3, 2)
            want = decompose_resultant(system).expand()
            self.check_step(monkeypatch, m, system.polys, want)
            monkeypatch.undo()


class TestRetrySequence:
    """The attempts of ``macaulay_resultant`` on seeded integer
    equivariant draws whose dod minor vanishes as given, pinned: a drift
    in the shears the retries draw or apply changes a count."""

    @staticmethod
    def attempts(monkeypatch, polys):
        calls = []
        real = resultant_module._try_quotient

        def counting(system):
            calls.append(len(system))
            return real(system)

        monkeypatch.setattr(resultant_module, "_try_quotient", counting)
        value = macaulay_resultant(polys)
        monkeypatch.undo()
        return value, len(calls)

    @pytest.mark.parametrize("d, seed, want", [
        (2, 2, 2), (2, 3, 3), (2, 5, 4), (3, 2, 2), (3, 0, 3), (3, 101, 4)])
    def test_seeded_draws(self, monkeypatch, d, seed, want):
        system = random_integer_equivariant_system(random.Random(seed), 3, d)
        value, attempts = self.attempts(monkeypatch, system.polys)
        assert attempts == want
        assert value == decompose_resultant(system).expand()

    def test_every_retry_fails_then_the_perturbation(self, monkeypatch):
        """The given coordinates, five retries, then the one lifted
        quotient of the perturbation."""
        polys = TestDegenerateDenominator.exhausting_system()
        value, attempts = self.attempts(monkeypatch, polys)
        assert attempts == resultant_module.MAX_UNIMODULAR_RETRIES + 2
        assert value == Z.constant(-886464)


def symbolic_polynomial(rng, ring, n, degree, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        exp = [0] * n
        for _ in range(degree):
            exp[rng.randrange(n)] += 1
        terms[tuple(exp)] = random_coefficient(rng, ring, max_degree=2)
    return Polynomial(ring, n, degree, terms)


class TestShears:
    """The retries apply their shear as transvections; ``substitute``
    with the images of the shear matrix is the oracle."""

    @pytest.mark.parametrize("ring", [Z, ParameterRing(("a", "b"))])
    def test_transvections_match_substitute(self, ring):
        rng = random.Random(37 + len(ring.params))
        for _ in range(150):
            n = rng.randint(2, 4)
            polys = [symbolic_polynomial(rng, ring, n, rng.randint(1, 4))
                     for _ in range(n)]
            seed = rng.getrandbits(64)
            images = unimodular_images(random.Random(seed), polys)
            assert resultant_module._sheared(polys, random.Random(seed)) \
                == [p.substitute(images) for p in polys]

    def test_transvect_needs_two_distinct_variables(self):
        p = random_int_polynomial(random.Random(3), 3, 2)
        for i, j in ((1, 1), (0, 3), (-1, 0)):
            with pytest.raises(ValueError):
                p.transvect(i, j, 2)


class TestCachedLayout:
    """``macaulay_data`` fills a layout cached per degree tuple; the
    builder that starts from nothing on every call is its oracle."""

    def test_matches_the_uncached_build(self):
        rng = random.Random(44)
        ab = ParameterRing(("a", "b"))
        for n in range(1, 5):
            for degrees in product(range(1, 5), repeat=n):
                for ring in (Z, ab) if n < 4 else (Z,):
                    polys = [random_polynomial(rng, ring, n, d, n_terms=6)
                             for d in degrees]
                    assert macaulay_data(polys) == \
                        macaulay_data_uncached(polys)

    def test_returned_lists_do_not_leak_into_the_next_call(self):
        rng = random.Random(45)
        first, second = ([random_int_polynomial(rng, 3, d, n_terms=6)
                          for d in (2, 3, 2)] for _ in range(2))
        rows, mons, dod = macaulay_data(first)
        assert dod
        mons.reverse()
        mons.append((9, 9, 9))
        dod.clear()
        rows[0][0] = "changed"
        rows[1].append(7)
        for polys in (first, second):
            assert macaulay_data(polys) == macaulay_data_uncached(polys)


@pytest.mark.parametrize("seed", [16, 45])
def test_integer_42_draws_exhausting_the_retries(monkeypatch, seed):
    """Two integer (4,2) draws whose dod minor vanishes in the given
    coordinates and after every retry: the 56-row perturbation over
    Z[eps] decides the direct value."""
    _, perturbed = TestForcedFallbackChain.force(monkeypatch, 0)
    report = verify_decomposition(
        random_integer_equivariant_system(random.Random(seed), 4, 2))
    assert report.equal
    assert report.direct == Z.constant(-7)
    assert 4 in perturbed


class TestResultantProperties:
    def test_multiplicative_in_each_slot(self):
        rng = random.Random(24)
        for _ in range(3):
            f1 = random_int_polynomial(rng, 2, 2, bound=3)
            f2 = random_int_polynomial(rng, 2, 1, bound=3)
            g = random_int_polynomial(rng, 2, 2, bound=3)
            if f1.is_zero() or f2.is_zero() or g.is_zero():
                continue
            lhs = macaulay_resultant([f1 * f2, g])
            rhs = macaulay_resultant([f1, g]) * macaulay_resultant([f2, g])
            assert lhs == rhs

    def test_scaling_one_slot(self):
        rng = random.Random(25)
        polys = [random_int_polynomial(rng, 3, d, bound=3)
                 for d in (2, 1, 2)]
        base = macaulay_resultant(polys)
        scaled = [polys[0] * 5] + polys[1:]
        # degree in the first slot's coefficients is d2*d3
        assert macaulay_resultant(scaled) == base * 5 ** 2

    def test_elementary_transformation(self):
        rng = random.Random(26)
        for _ in range(3):
            polys = [random_int_polynomial(rng, 3, d, bound=3)
                     for d in (2, 1, 1)]
            h = random_int_polynomial(rng, 3, 1, bound=3)
            base = macaulay_resultant(polys)
            moved = [polys[0] + h * polys[1], polys[1], polys[2]]
            assert macaulay_resultant(moved) == base

    def test_permuting_polynomials(self):
        rng = random.Random(27)
        for n, d in ((2, 2), (3, 1), (3, 2)):
            polys = [random_int_polynomial(rng, n, d, bound=3)
                     for _ in range(n)]
            base = macaulay_resultant(polys)
            swapped = [polys[1], polys[0]] + polys[2:]
            sign = (-1) ** (d ** n)
            assert macaulay_resultant(swapped) == base * sign

    def test_linear_change_of_variables(self):
        rng = random.Random(28)
        for n, degrees in ((2, (2, 3)), (3, (2, 1, 1))):
            fl = random_form_lists(rng, n, degrees)
            polys = product_system(fl, n)
            phi = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            det_phi = int_det(phi).constant_value()
            if det_phi == 0:
                continue
            xs = [Polynomial.variable(Z, n, j) for j in range(n)]
            images = {i: sum((xs[j] * phi[i][j] for j in range(n)),
                             Polynomial.zero(Z, n, 1)) for i in range(n)}
            changed = [p.substitute(images) for p in polys]
            d_prod = 1
            for d in degrees:
                d_prod *= d
            lhs = macaulay_resultant(changed)
            assert lhs == macaulay_resultant(polys) * det_phi ** d_prod


class TestValidation:
    def test_shape_errors(self):
        with pytest.raises(ValueError):
            macaulay_resultant([])
        with pytest.raises(ValueError, match="ambient"):
            macaulay_resultant([parse_poly("x1", 3, Z),
                                parse_poly("x2", 3, Z)])
        with pytest.raises(ValueError, match="degree"):
            macaulay_resultant([Polynomial.constant(Z, 1, 3)])

    def test_sylvester_shape_errors(self):
        with pytest.raises(ValueError, match="binary"):
            sylvester_resultant(parse_poly("x1", 3, Z), parse_poly("x2", 3, Z))
        with pytest.raises(ValueError, match="degree"):
            sylvester_resultant(Polynomial.constant(Z, 2, 1),
                                parse_poly("x1", 2, Z))
