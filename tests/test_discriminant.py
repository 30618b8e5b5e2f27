"""Discriminant decomposition against closed forms and the direct oracle."""

import random
from dataclasses import replace

import pytest

from symres.combinatorics import Partition, m_zero_discriminant, partitions
from symres.discriminant import (
    DiscriminantResult,
    SymmetricPoly,
    a_exponent,
    basis_partitions,
    coefficient_name,
    discriminant_decomposition,
    discriminant_value,
    expand_elementary,
    partial_derivatives,
)
from symres.divdiff import DividedDifferenceTable, check_equivariance
from symres.equivariant import (
    FactoredResultant,
    decompose_resultant,
    elementary_symmetric,
)
from symres.parser import parse_poly
from symres.resultant import macaulay_resultant
from symres.ring import ParameterRing, Polynomial

Z = ParameterRing()


class TestExpandElementary:
    def test_square_of_e1(self):
        assert expand_elementary((1, 1), 2) == parse_poly(
            "x1^2 + 2*x1*x2 + x2^2", 2, Z)

    def test_matches_unexpanded_product(self):
        want = elementary_symmetric(Z, 3, 2) * elementary_symmetric(Z, 3, 1)
        got = expand_elementary((2, 1), 3)
        assert got == want
        # six squarefree-times-linear monomials plus 3*x1*x2*x3
        assert len(got.terms) == 7

    def test_zero_when_part_exceeds_ambient(self):
        assert expand_elementary((4,), 3).is_zero()
        assert expand_elementary((4, 1), 3).is_zero()

    def test_rejects_invalid_partition(self):
        with pytest.raises(ValueError):
            expand_elementary((1, 2), 3)


class TestSymmetricPoly:
    def test_generic_parameter_names(self):
        F = SymmetricPoly.generic(3, 3)
        assert F.ring.params == ("c3", "c21", "c111")
        # small ambient drops the partitions with oversized parts
        assert SymmetricPoly.generic(2, 3).ring.params == ("c21", "c111")
        assert coefficient_name(Partition((11, 2))) == "c_11_2"

    def test_expansion_is_symmetric(self):
        p = SymmetricPoly.generic(3, 3).expand()
        assert p.degree == 3
        for k in (0, 1):
            sigma = list(range(3))
            sigma[k], sigma[k + 1] = sigma[k + 1], sigma[k]
            assert p.permute(sigma) == p

    def test_integer_coefficients_get_a_bare_ring(self):
        F = SymmetricPoly(4, 3, {(3,): 1, (2, 1): -1})
        assert F.ring.params == ()
        assert F.coefficient((2, 1)) == Z.constant(-1)
        assert F.coefficient((1, 1, 1)).is_zero()

    def test_validation(self):
        with pytest.raises(ValueError, match="partition of"):
            SymmetricPoly(3, 3, {(2,): 1})
        with pytest.raises(ValueError, match="exceeds"):
            SymmetricPoly(3, 4, {(4,): 1})
        with pytest.raises(ValueError, match="n >= 2"):
            SymmetricPoly(1, 3, {(3,): 1})
        with pytest.raises(ValueError, match="no coefficients"):
            SymmetricPoly(3, 3, {})
        other = ParameterRing(("t",))
        with pytest.raises(ValueError, match="mixed"):
            SymmetricPoly(3, 2, {(2,): Z.one(),
                                 (1, 1): other.parameter("t")})


class TestPartialDerivatives:
    def test_derivative_of_e2(self):
        for n in (3, 4):
            e2 = elementary_symmetric(Z, n, 2)
            e1 = elementary_symmetric(Z, n, 1)
            x1 = Polynomial.variable(Z, n, 0)
            assert e2.derivative(0) == e1 - x1

    def test_elementary_derivative_expansion(self):
        # d(e_j)/d(x_i) = sum_r (-1)^r x_i^r e_{j-1-r}
        n = 4
        for j in range(1, n + 1):
            ej = elementary_symmetric(Z, n, j)
            for i in (0, 2):
                xi = Polynomial.variable(Z, n, i)
                want = Polynomial.zero(Z, n, j - 1)
                for r in range(j):
                    term = xi ** r * elementary_symmetric(Z, n, j - 1 - r)
                    want = want + (term if r % 2 == 0 else -term)
                assert ej.derivative(i) == want, (j, i)

    def test_quadratic_partials(self):
        F = SymmetricPoly.generic(3, 2)
        system = partial_derivatives(F)
        ring = F.ring
        e1 = "(x1 + x2 + x3)"
        for i in (1, 2, 3):
            want = parse_poly(f"c2*({e1} - x{i}) + 2*c11*{e1}", 3, ring)
            assert system.polys[i - 1] == want

    def test_cubic_partials(self):
        F = SymmetricPoly.generic(4, 3)
        system = partial_derivatives(F)
        ring = F.ring
        e1 = "(x1 + x2 + x3 + x4)"
        e2 = "(x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4)"
        for i in (1, 2):
            want = parse_poly(
                f"c3*({e2} - x{i}*{e1} + x{i}^2)"
                f" + c21*({e2} + {e1}*({e1} - x{i})) + 3*c111*{e1}^2",
                4, ring)
            assert system.polys[i - 1] == want
        assert check_equivariance(system.polys).ok

    def test_pair_difference_of_cubic(self):
        F = SymmetricPoly.generic(4, 3)
        table = DividedDifferenceTable(partial_derivatives(F))
        ring = F.ring
        e1 = "(x1 + x2 + x3 + x4)"
        for i, j in ((0, 1), (1, 3)):
            want = parse_poly(f"c3*(x{i + 1} + x{j + 1} - {e1}) - c21*{e1}",
                              4, ring)
            assert table.divided_difference((i, j)) == want


class TestAExponent:
    def test_parity_rule_for_quadrics(self):
        for n in range(2, 8):
            assert a_exponent(n, 2) == (1 if n % 2 else 0)

    def test_cubic_values(self):
        assert a_exponent(3, 3) == 3
        assert a_exponent(4, 3) == 5

    def test_defining_identity(self):
        for n in range(2, 8):
            for d in range(2, 8):
                assert a_exponent(n, d) * d == (d - 1) ** n - (-1) ** n

    def test_domain(self):
        with pytest.raises(ValueError):
            a_exponent(1, 3)
        with pytest.raises(ValueError):
            a_exponent(3, 1)


class TestQuadraticDiscriminant:
    def test_closed_forms(self):
        for n in (2, 3, 4, 5):
            F = SymmetricPoly.generic(n, 2)
            c2, c11 = F.ring.parameter("c2"), F.ring.parameter("c11")
            got = discriminant_decomposition(F)
            assert got.a == (1 if n % 2 else 0)
            assert got.sign == (n - 1) % 2
            assert got.factored.prefactor == c2 ** (n - 1)
            assert got.factored.factors == \
                ((c2 * (n - 1) + c11 * (2 * n), 1),)
            disc = c2 ** (n - 1) * (c2 * (n - 1) + c11 * (2 * n))
            if n % 2 == 0:
                assert got.normalized() == -disc
            else:
                # odd n: a = 1, so the product carries one extra factor 2
                half = c2 ** (n - 1) * (c2 * ((n - 1) // 2) + c11 * n)
                assert got.normalized() == half * 2

    def test_matches_direct_resultant(self):
        for n in (2, 3, 4, 5):
            F = SymmetricPoly.generic(n, 2)
            direct = macaulay_resultant(partial_derivatives(F).polys)
            assert discriminant_decomposition(F).normalized() == direct


class TestCubicDiscriminant:
    def test_three_variables(self):
        F = SymmetricPoly.generic(3, 3)
        c3, c21, c111 = (F.ring.parameter(s) for s in ("c3", "c21", "c111"))
        got = discriminant_decomposition(F)
        assert (got.a, got.sign) == (3, 0)
        assert got.factored.prefactor == c3 ** 2
        inner = c111 * c3 ** 2 - c21 ** 2 * c3 - c21 ** 3
        assert got.factored.factors == \
            ((c3 + c21 * 9 + c111 * 27, 1), (inner * 3, 3))
        disc = c3 ** 2 * (c3 + c21 * 9 + c111 * 27) * inner ** 3
        assert got.normalized() == disc * 27

    def test_four_variables(self):
        F = SymmetricPoly.generic(4, 3)
        c3, c21, c111 = (F.ring.parameter(s) for s in ("c3", "c21", "c111"))
        got = discriminant_decomposition(F)
        assert (got.a, got.sign) == (5, 0)
        assert got.factored.prefactor == c3 ** 10
        single = c3 + c21 * 6 + c111 * 16
        pair = c111 * 4 * c3 ** 2 - c21 ** 2 * c3 * 3 - c21 ** 3 * 2
        cube = -(c3 + c21 * 2) ** 3
        assert got.factored.factors == \
            ((single * 3, 1), (pair * 3, 4), (cube, 3))
        disc = -(c3 ** 10) * (c3 + c21 * 2) ** 9 * single * pair ** 4
        assert got.normalized() == disc * 3 ** 5

    def test_symbolic_direct_oracle(self):
        F = SymmetricPoly.generic(3, 3)
        direct = macaulay_resultant(partial_derivatives(F).polys)
        assert discriminant_decomposition(F).normalized() == direct


class TestHighDegreeBranch:
    def test_symbolic_binary_cases(self):
        for n, d in ((2, 3), (2, 4)):
            F = SymmetricPoly.generic(n, d)
            got = discriminant_decomposition(F)
            assert got.sign == 0
            assert got.factored.prefactor.is_one()
            assert len(got.factored.factors) == len(partitions(n))
            direct = macaulay_resultant(partial_derivatives(F).polys)
            assert got.normalized() == direct

    def test_integer_ternary_quartics(self):
        rng = random.Random(5)
        for _ in range(3):
            coeffs = {lam: rng.randint(-3, 3)
                      for lam in basis_partitions(3, 4)}
            coeffs[(3, 1)] = coeffs.get((3, 1), 0) or 1
            F = SymmetricPoly(3, 4, coeffs)
            got = discriminant_decomposition(F)
            direct = macaulay_resultant(partial_derivatives(F).polys)
            assert got.normalized() == direct
            assert direct.constant_value() == \
                discriminant_value(F) * 4 ** got.a


class TestDiscriminantValue:
    def test_clebsch_cubic_surface(self):
        F = SymmetricPoly(4, 3, {(3,): 1, (2, 1): -1, (1, 1, 1): 0})
        assert discriminant_value(F) == -5
        direct = macaulay_resultant(partial_derivatives(F).polys)
        assert direct.constant_value() == 3 ** 5 * -5

    def test_product_of_two_variables(self):
        assert discriminant_value(SymmetricPoly(2, 2, {(2,): 1})) == -1

    def test_rejects_symbolic_coefficients(self):
        with pytest.raises(ValueError, match="integer"):
            discriminant_value(SymmetricPoly.generic(3, 2))

    def test_random_integer_cubics_match_oracle(self):
        rng = random.Random(1)
        for n in (2, 3, 4):
            for _ in range(2):
                coeffs = {lam: rng.randint(-4, 4)
                          for lam in basis_partitions(n, 3)}
                if all(v == 0 for v in coeffs.values()):
                    coeffs[(2, 1)] = 1
                F = SymmetricPoly(n, 3, coeffs)
                got = discriminant_decomposition(F)
                direct = macaulay_resultant(partial_derivatives(F).polys)
                assert got.normalized() == direct, (n, coeffs)
                assert direct.constant_value() == \
                    discriminant_value(F) * 3 ** got.a


class TestFactoredValue:
    """``DiscriminantResult.value`` against the direct ``discriminant_value``."""

    def test_clebsch_cubic_surface(self):
        F = SymmetricPoly(4, 3, {(3,): 1, (2, 1): -1, (1, 1, 1): 0})
        assert discriminant_decomposition(F).value() == \
            discriminant_value(F) == -5

    @pytest.mark.parametrize("n,d", [(3, 3), (3, 4), (4, 2), (6, 2)])
    def test_seeded_integer_forms(self, n, d):
        rng = random.Random(10 * n + d)
        for _ in range(2):
            coeffs = {lam: rng.randint(-3, 3)
                      for lam in basis_partitions(n, d)}
            coeffs[next(iter(coeffs))] = rng.choice((-2, -1, 1, 2))
            F = SymmetricPoly(n, d, coeffs)
            assert discriminant_decomposition(F).value() == \
                discriminant_value(F), coeffs

    def test_remainder_raises(self):
        F = SymmetricPoly(4, 3, {(3,): 1, (2, 1): -1})
        result = discriminant_decomposition(F)
        off = replace(result, factored=FactoredResultant(
            F.ring.constant(3 ** result.a + 1), (), ()))
        with pytest.raises(ArithmeticError):
            off.value()

    def test_symbolic_form_has_no_value(self):
        with pytest.raises(ValueError):
            discriminant_decomposition(SymmetricPoly.generic(3, 2)).value()


class TestStructuralInvariants:
    def test_top_constant_of_partials(self):
        for n, d in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4)):
            F = SymmetricPoly.generic(n, d)
            table = DividedDifferenceTable(partial_derivatives(F))
            want = F.ring.parameter(coefficient_name(Partition((d,))))
            if d % 2 == 0:
                want = -want
            assert table.top_constant() == want, (n, d)

    def test_total_coefficient_degree(self):
        for n, d in ((3, 2), (3, 3), (4, 3), (2, 3)):
            F = SymmetricPoly.generic(n, d)
            value = discriminant_decomposition(F).normalized()
            degrees = {sum(e) for e in value.terms}
            assert degrees == {n * (d - 1) ** (n - 1)}, (n, d)

    def test_prefactor_parity_drives_sign(self):
        for n in range(2, 9):
            assert m_zero_discriminant(n, 2) % 2 == (n - 1) % 2
            for d in range(3, 6):
                if d <= n:
                    assert m_zero_discriminant(n, d) % 2 == 0

    def test_agrees_with_plain_equivariant_decomposition(self):
        # the generic prefactor top_constant^{m_0} of the partials is
        # exactly (-1)^sign c_(d)^{m_0}, so both routes must expand alike
        for n, d in ((3, 3), (4, 3), (5, 2)):
            F = SymmetricPoly.generic(n, d)
            via_disc = discriminant_decomposition(F).normalized()
            via_res = decompose_resultant(partial_derivatives(F)).expand()
            assert via_disc == via_res, (n, d)


class TestOnePipeline:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3),
                                     (3, 3), (4, 3), (2, 4), (3, 4), (4, 4)])
    def test_factors_are_those_of_the_partials(self, n, d):
        F = SymmetricPoly.generic(n, d)
        got = discriminant_decomposition(F)
        res = decompose_resultant(partial_derivatives(F))
        assert got.factored.factors == res.factors
        assert got.factored.partitions == res.partitions
        want = -res.prefactor if got.sign else res.prefactor
        assert got.factored.prefactor == want
        if d <= n:
            c_d = F.ring.parameter(coefficient_name(Partition((d,))))
            assert got.factored.prefactor == c_d ** m_zero_discriminant(n, d)
        else:
            assert got.factored.prefactor.is_one()

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3),
                                     (2, 3), (3, 4)])
    def test_does_not_freeze(self, monkeypatch, n, d):
        def refuse(table):
            raise AssertionError("the pipeline froze the table")
        monkeypatch.setattr(DividedDifferenceTable, "freeze", refuse)
        rng = random.Random(f"lazy-disc:{n}{d}")
        F = SymmetricPoly(n, d, {lam: rng.randint(-3, 3) or 1
                                 for lam in basis_partitions(n, d)})
        direct = macaulay_resultant(partial_derivatives(F).polys)
        assert discriminant_decomposition(F).normalized() == direct, (n, d)
