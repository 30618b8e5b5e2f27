"""Acceptance checks, one test per criterion; run with -v for the
one-line pass/fail report.

Criterion 5 fails on purpose.  It asks for the equal-block factor in
the form (a+bk)^2 (a-dk)^2, but that expression has coefficient-degree
4 while the resultant of a chain of degrees (2, 1) in two variables is
homogeneous of coefficient-degree 3.  The computed factor is
(a+bk)^2 (a-dk); the test right after checks that corrected value,
which at k = 2 also matches the cube -(c3+2*c21)^3 appearing in the
four-variable cubic discriminant.
"""

import random
from itertools import combinations, permutations, product
from math import comb

from test_equivariant import displayed_length_two_factor

from conftest import (
    degree_identity_check,
    divided_difference_recursive,
    random_int_polynomial,
)
from symres.combinatorics import falling_quotient, partitions
from symres.discriminant import (
    SymmetricPoly,
    discriminant_decomposition,
    discriminant_value,
    partial_derivatives,
)
from symres.divdiff import DividedDifferenceTable
from symres.equivariant import (
    averaged_chain_resultant,
    decompose_resultant,
    generic_equivariant_system,
    random_integer_equivariant_system,
    specialize_chain,
    verify_decomposition,
)
from symres.parser import print_coefficient
from symres.resultant import macaulay_resultant
from symres.ring import ParameterRing, Polynomial

Z = ParameterRing()


def test_criterion_01_pure_power_normalization():
    # Res(x1^d1, ..., xn^dn) = 1 for n <= 4 and all degrees up to 3
    for n in (1, 2, 3, 4):
        for degrees in product((1, 2, 3), repeat=n):
            polys = [Polynomial.variable(Z, n, i) ** d
                     for i, d in enumerate(degrees)]
            assert macaulay_resultant(polys) == Z.one(), degrees


def test_criterion_02_linear_system_decomposition():
    # a x_i + b e_1 has resultant a^(n-1) (a + n b), exactly factored
    for n in (2, 3, 4, 5):
        system = generic_equivariant_system(n, 1)
        a, b = (system.ring.parameter(s) for s in "ab")
        got = decompose_resultant(system)
        assert got.prefactor == a ** (n - 1), n
        assert got.factors == ((a + b * n, 1),), n
        assert got.expand() == macaulay_resultant(system.polys), n


def test_criterion_03_binary_quadratic_closed_form():
    system = generic_equivariant_system(2, 2)
    a, b, c, d = (system.ring.parameter(s) for s in "abcd")
    want = (a + b * 2 + c * 4 + d) * (a + b) ** 2 * (a - d)
    assert decompose_resultant(system).expand() == want


def test_criterion_04_two_block_factor_display():
    # the displayed half-integer coefficients clear exactly at these
    # (m, n); displayed_length_two_factor builds the doubled display
    # and halves it without remainder
    for n, d, lam in ((3, 2, (2, 1)), (4, 2, (3, 1)), (4, 2, (2, 2))):
        system = generic_equivariant_system(n, d)
        table = DividedDifferenceTable(system)
        value = macaulay_resultant(specialize_chain(table, lam))
        assert value == displayed_length_two_factor(system.ring, lam[0], n)


def test_criterion_05_equal_block_factor_as_displayed():
    # KNOWN FAIL: the displayed (a+bk)^2 (a-dk)^2 has coefficient-degree
    # 4, but the resultant of a chain of degrees (2, 1) in two variables
    # is homogeneous of coefficient-degree 1 + 2 = 3, so the trailing
    # square cannot be right; the next test checks the degree-3 value
    for k in (1, 2, 3):
        system = generic_equivariant_system(2 * k, 2)
        a, b, d = (system.ring.parameter(s) for s in "abd")
        table = DividedDifferenceTable(system)
        value = macaulay_resultant(specialize_chain(table, (k, k)))
        displayed = (a + b * k) ** 2 * (a - d * k) ** 2
        assert value == displayed, (
            f"equal-block factor at k={k} is "
            f"{print_coefficient(value)} (coefficient-degree 3), not the "
            f"displayed square {print_coefficient(displayed)} "
            "(coefficient-degree 4)")


def test_criterion_05_corrected_equal_block_factor():
    # supplementary: the value is (a+bk)^2 (a-dk), consistent with the
    # -(c3+2c21)^3 factor of the four-variable cubic discriminant under
    # a=c3, b=-(c3+c21), d=c3+c21
    for k in (1, 2, 3):
        system = generic_equivariant_system(2 * k, 2)
        a, b, d = (system.ring.parameter(s) for s in "abd")
        table = DividedDifferenceTable(system)
        value = macaulay_resultant(specialize_chain(table, (k, k)))
        assert value == (a + b * k) ** 2 * (a - d * k), k


def test_criterion_06_integer_oracle_equivalence():
    # 30 random integer systems: expanded decomposition == direct
    # Macaulay resultant, exact equality
    rng = random.Random(0)
    for n, d in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        for trial in range(6):
            system = random_integer_equivariant_system(rng, n, d)
            report = verify_decomposition(system)
            assert report.equal, (n, d, trial, system.polys)


def test_criterion_07_averaged_chain_constants():
    # summed chains of order-k divided differences pick up the exact
    # constant prod_k C(l,k)^((d-1)...(d-l+1) dropping (d-k))
    system = generic_equivariant_system(2, 2)
    report = averaged_chain_resultant(system, (1, 1))
    assert report.constant == 2
    assert report.summed == report.chain * 2

    rng = random.Random(3)
    for n, d in ((3, 3), (4, 3)):
        for lam in partitions(n, max_length=3):
            system = random_integer_equivariant_system(rng, n, d)
            report = averaged_chain_resultant(system, lam)
            length = lam.length
            want = 1
            for k in range(1, length):
                want *= comb(length, k) ** falling_quotient(d, length, k)
            assert report.constant == want, (n, lam)
            assert report.summed == report.chain * want, (n, lam)


def test_criterion_08_quadric_discriminant_parities():
    for n in (2, 3, 4, 5):
        F = SymmetricPoly.generic(n, 2)
        c2, c11 = F.ring.parameter("c2"), F.ring.parameter("c11")
        got = discriminant_decomposition(F)
        if n % 2 == 0:
            # Disc itself, no power of 2 to strip
            assert got.a == 0
            want = -(c2 ** (n - 1)) * (c2 * (n - 1) + c11 * (2 * n))
        else:
            # 2 Disc; the halved closed form times two
            assert got.a == 1
            want = (c2 ** (n - 1)
                    * (c2 * ((n - 1) // 2) + c11 * n)) * 2
        assert got.normalized() == want, n


def test_criterion_09_cubic_discriminant_closed_forms():
    F = SymmetricPoly.generic(3, 3)
    c3, c21, c111 = (F.ring.parameter(s) for s in ("c3", "c21", "c111"))
    inner = c111 * c3 ** 2 - c21 ** 2 * c3 - c21 ** 3
    disc3 = c3 ** 2 * (c3 + c21 * 9 + c111 * 27) * inner ** 3
    assert discriminant_decomposition(F).normalized() == disc3 * 27

    F = SymmetricPoly.generic(4, 3)
    c3, c21, c111 = (F.ring.parameter(s) for s in ("c3", "c21", "c111"))
    disc4 = -(c3 ** 10) * (c3 + c21 * 2) ** 9 \
        * (c3 + c21 * 6 + c111 * 16) \
        * (c111 * 4 * c3 ** 2 - c21 ** 2 * c3 * 3 - c21 ** 3 * 2) ** 4
    assert discriminant_decomposition(F).normalized() == disc4 * 3 ** 5


def test_criterion_10_clebsch_surface():
    F = SymmetricPoly(4, 3, {(3,): 1, (2, 1): -1, (1, 1, 1): 0})
    assert discriminant_value(F) == -5
    direct = macaulay_resultant(partial_derivatives(F).polys)
    assert direct.constant_value() == 3 ** 5 * -5


def test_criterion_11_degree_identity():
    for n in range(2, 8):
        for d in range(n, 8):
            assert degree_identity_check(n, d), (n, d)


def test_criterion_12_property_suites():
    # recurrence freedom: any admissible (p, q) pair gives the cached
    # divided difference, exhaustively for a quaternary quadratic
    system = generic_equivariant_system(4, 2)
    table = DividedDifferenceTable(system)
    for size in range(2, 5):
        for indices in combinations(range(4), size):
            want = table.divided_difference(indices)
            for p, q in permutations(indices, 2):
                got = divided_difference_recursive(table, indices, p, q)
                assert got == want, (indices, p, q)

    # permutation covariance, exhaustive over S_3
    system = generic_equivariant_system(3, 2)
    table = DividedDifferenceTable(system)
    for sigma in permutations(range(3)):
        for size in (1, 2, 3):
            for indices in combinations(range(3), size):
                image = tuple(sorted(sigma[i] for i in indices))
                assert table.divided_difference(indices).permute(
                    list(sigma)) == table.divided_difference(image)

    # the order-(d+1) differences are one shared constant when n > d
    system = generic_equivariant_system(4, 2)
    table = DividedDifferenceTable(system)
    tops = [table.divided_difference(indices)
            for indices in combinations(range(4), 3)]
    assert len(set(tops)) == 1 and tops[0].degree == 0

    # resultant properties on random integer instances
    rng = random.Random(12)

    def draw(n, d):
        while True:
            p = random_int_polynomial(rng, n, d, bound=3)
            if not p.is_zero():
                return p

    for _ in range(2):
        f1, f2, g = draw(2, 2), draw(2, 1), draw(2, 2)
        lhs = macaulay_resultant([f1 * f2, g])
        assert lhs == macaulay_resultant([f1, g]) * macaulay_resultant([f2, g])

    for n, d in ((2, 2), (3, 2)):
        polys = [draw(n, d) for _ in range(n)]
        swapped = list(polys)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        sign = (-1) ** (d ** n)
        assert macaulay_resultant(swapped) == \
            macaulay_resultant(polys) * sign, (n, d)

    polys = [draw(3, 2) for _ in range(3)]
    sheared = [polys[0] + polys[1], polys[1], polys[2]]
    assert macaulay_resultant(sheared) == macaulay_resultant(polys)

    # linear change of variables scales by det^(d1 d2)
    f, g = draw(2, 2), draw(2, 2)
    x1, x2 = (Polynomial.variable(Z, 2, i) for i in range(2))
    images = {0: x1 + x2 * 2, 1: -x1 + x2}
    det = 1 * 1 - 2 * -1
    assert macaulay_resultant([f.substitute(images), g.substitute(images)]) \
        == macaulay_resultant([f, g]) * det ** 4
