"""Divided-difference tables, covariance, and the determinant route."""

import random
import sys
from itertools import combinations, permutations

import pytest

import symres.ring as ring_module
from symres.divdiff import (
    DividedDifferenceTable,
    EquivarianceError,
    EquivarianceReport,
    EquivariantSystem,
    check_equivariance,
    divided_difference_determinant,
    vandermonde_product,
)
from symres.equivariant import (
    generic_equivariant_system,
    random_integer_equivariant_system,
)
from symres.parser import parse_poly
from symres.ring import NotDivisibleError, ParameterRing, Polynomial

from conftest import divided_difference_recursive

ABCD = ParameterRing(("a", "b", "c", "d"))


def elem(n, k):
    names = [f"x{i + 1}" for i in range(n)]
    return "(" + " + ".join("*".join(c) for c in combinations(names, k)) + ")"


def parse_system(strings, n, d, ring=ABCD):
    return [parse_poly(s, n, ring, degree=d) for s in strings]


def linear_system(n):
    e1 = elem(n, 1)
    return parse_system([f"a*x{i} + b*{e1}" for i in range(1, n + 1)], n, 1)


def quadratic_system(n):
    e1, e2 = elem(n, 1), elem(n, 2)
    return parse_system(
        [f"a*x{i}^2 + b*x{i}*{e1} + c*{e1}^2 + d*{e2}"
         for i in range(1, n + 1)], n, 2)


def cubic_system(n):
    e1, e2, e3 = elem(n, 1), elem(n, 2), elem(n, 3)
    return parse_system(
        [f"a*x{i}^3 + b*x{i}^2*{e1} + c*x{i}*{e2} + d*{e3}"
         for i in range(1, n + 1)], n, 3)


def power_system(n, d):
    return parse_system([f"x{i}^{d}" for i in range(1, n + 1)], n, d)


def linform_system():
    # Linear forms satisfying the pairwise divisibility condition
    # without being equivariant.
    return parse_system(
        ["(a + d)*x1 + b*x2 + c*x3",
         "a*x1 + (b + d)*x2 + c*x3",
         "a*x1 + b*x2 + (c + d)*x3"], 3, 1)


def all_tables():
    systems = [linear_system(3), linear_system(4), quadratic_system(3),
               quadratic_system(4), cubic_system(3), power_system(3, 2),
               power_system(4, 3)]
    return [DividedDifferenceTable(EquivariantSystem(p)) for p in systems]


def wide_tables():
    """Integer and generic symbolic systems, n = 2..7 and d = 1..4."""
    return [DividedDifferenceTable(EquivariantSystem(polys))
            for n in range(2, 8) for d in range(1, 5)
            for polys in (random_integer_equivariant_system(
                random.Random(f"step:{n}:{d}"), n, d).polys,
                generic_equivariant_system(n, d).polys)]


def all_swaps_equivariant(polys):
    """Every polynomial under every adjacent transposition: n(n-1) checks."""
    n = len(polys)
    for k in range(n - 1):
        sigma = list(range(n))
        sigma[k], sigma[k + 1] = sigma[k + 1], sigma[k]
        for i in range(n):
            if polys[i].permute(sigma) != polys[sigma[i]]:
                return False
    return True


def swap(n, i, j):
    sigma = list(range(n))
    sigma[i], sigma[j] = j, i
    return sigma


def corruptions(rng, polys):
    """One changed coefficient, two polynomials exchanged, and the chain
    F^{k+1} = s_k(F^k) from an F^{1} that the swaps fixing 1 move."""
    n = len(polys)
    i = rng.randrange(n)
    terms = dict(polys[i].terms)
    exp = rng.choice(sorted(terms))
    terms[exp] = terms[exp] + rng.choice((-1, 1))
    changed = list(polys)
    changed[i] = Polynomial(polys[i].ring, n, polys[i].degree, terms)
    i, j = rng.sample(range(n), 2)
    exchanged = list(polys)
    exchanged[i], exchanged[j] = polys[j], polys[i]
    d = polys[0].degree
    chain = [polys[0] + Polynomial.variable(polys[0].ring, n, n - 1) ** d]
    for k in range(n - 1):
        chain.append(chain[-1].permute(swap(n, k, k + 1)))
    return [changed, exchanged, chain]


def adjacent_swap_scan(polys):
    """The 2n - 3 swap scan check_equivariance reports by: s_k(F^k) =
    F^{k+1} for k = 0..n-2, then s_k(F^0) = F^0 for k = 1..n-2, each by
    a built permuted copy; the first failure as (pair, index), or None."""
    n = len(polys)
    for k in range(n - 1):
        if polys[k].permute(swap(n, k, k + 1)) != polys[k + 1]:
            return (k, k + 1), k
    for k in range(1, n - 1):
        if polys[0].permute(swap(n, k, k + 1)) != polys[0]:
            return (k, k + 1), 0
    return None


def stabilizer_breaks(polys):
    """For each u = 1..n-2, the chain F^{k+1} = s_k(F^k) from F^0 plus
    (x_2 + ... + x_{u+1})^d, which every adjacent swap fixing x_1 fixes
    except that of x_{u+1} and x_{u+2}, with that swap's 0-based pair
    (u, u + 1)."""
    n, d = len(polys), polys[0].degree
    ring = polys[0].ring
    for u in range(1, n - 1):
        block = sum((Polynomial.variable(ring, n, i) for i in range(1, u + 1)),
                    Polynomial.zero(ring, n, 1))
        chain = [polys[0] + block ** d]
        for k in range(n - 1):
            chain.append(chain[-1].permute(swap(n, k, k + 1)))
        yield chain, (u, u + 1)


class TestCheckEquivariance:
    def test_accepts_symmetric_families(self):
        for polys in (linear_system(4), quadratic_system(3),
                      cubic_system(3), power_system(4, 3)):
            assert check_equivariance(polys).ok

    def test_rejects_and_reports_witness(self):
        x1 = Polynomial.variable(ABCD, 3, 0)
        x2 = Polynomial.variable(ABCD, 3, 1)
        polys = [x1 * x1, x2 * x2, x1 * x2]
        report = check_equivariance(polys)
        assert not report.ok
        assert report.transposition == (1, 2)
        assert report.index == 1
        assert report.describe() == ("swapping x2 and x3 does not map "
                                     "polynomial 2 to polynomial 3")

    def test_same_verdict_as_all_swaps(self):
        verdicts = set()
        for n in range(2, 7):
            for d in (1, 2, 3):
                for seed in range(4):
                    rng = random.Random(f"swaps:{n}:{d}:{seed}")
                    polys = random_integer_equivariant_system(rng, n, d).polys
                    assert check_equivariance(polys).ok
                    for bad in corruptions(rng, polys):
                        want = all_swaps_equivariant(bad)
                        assert check_equivariance(bad).ok == want, (n, d)
                        verdicts.add((n > 2, want))
        # some corruptions stay equivariant at n = 2, where the stabilizer
        # of 1 is trivial; at n > 2 each one breaks equivariance
        assert verdicts == {(False, True), (False, False), (True, False)}

    def test_rejects_orbit_of_non_invariant_first(self):
        x1x2 = parse_poly("x1*x2", 3, ABCD)
        orbit = [x1x2.permute(swap(3, 0, i)) for i in range(3)]
        assert not all_swaps_equivariant(orbit)
        assert not check_equivariance(orbit).ok

    @pytest.mark.parametrize("n", range(2, 8))
    def test_reports_what_the_swap_scan_reports(self, n):
        """Same pair, index and message as the scan, on corruptions and on
        chains whose F^0 breaks a single swap of its stabilizer."""
        seen = set()
        for d in (1, 2, 3):
            rng = random.Random(f"report:{n}:{d}")
            polys = random_integer_equivariant_system(rng, n, d).polys
            bad = corruptions(rng, polys)
            for chain, pair in stabilizer_breaks(polys):
                assert adjacent_swap_scan(chain) == (pair, 0)
                bad.append(chain)
            for system in bad:
                report = check_equivariance(system)
                want = adjacent_swap_scan(system)
                if want is None:
                    assert report == EquivarianceReport(True)
                    continue
                assert report == EquivarianceReport(False, *want)
                seen.add(want)
        # every stabilizer swap of F^0 is reported somewhere
        assert {(k, k + 1) for k in range(1, n - 1)} <= \
            {pair for pair, index in seen if index == 0}

    def test_stabilizer_swap_message(self):
        # F^0 of an n = 6 system made asymmetric in x4 and x5 alone
        polys = random_integer_equivariant_system(
            random.Random("x4x5"), 6, 2).polys
        chain = dict((pair, c) for c, pair in stabilizer_breaks(polys))[(3, 4)]
        report = check_equivariance(chain)
        assert (report.transposition, report.index) == ((3, 4), 0)
        assert report.describe() == ("swapping x4 and x5 does not map "
                                     "polynomial 1 to polynomial 1")
        with pytest.raises(EquivarianceError, match=report.describe()):
            EquivariantSystem(chain)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_makes_2n_minus_3_permutations(self, monkeypatch, n):
        """n - 1 + min(2, n - 2) term-by-term comparisons (2n - 3 up to
        n = 4, fewer past it), and no function that builds a Polynomial
        runs."""
        polys = power_system(n, 2)
        calls = []
        permutes_to = Polynomial.permutes_to

        def counting(p, sigma, other):
            calls.append(sigma)
            return permutes_to(p, sigma, other)
        monkeypatch.setattr(Polynomial, "permutes_to", counting)
        builders = {"__init__", "_trusted", "relabel", "permute"}
        built = []

        def watch(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name in builders \
                    and code.co_filename == ring_module.__file__:
                built.append(code.co_name)
        sys.setprofile(watch)
        try:
            report = check_equivariance(polys)
        finally:
            sys.setprofile(None)
        assert report.ok
        assert len(calls) == n - 1 + min(2, n - 2)
        assert built == []

    def test_linear_form_example_is_not_equivariant(self):
        assert not check_equivariance(linform_system()).ok


class TestEquivariantSystem:
    def test_records_shape(self):
        sys = EquivariantSystem(quadratic_system(4))
        assert (sys.n, sys.d) == (4, 2)
        assert sys.ring == ABCD

    def test_rejects_non_equivariant(self):
        with pytest.raises(EquivarianceError):
            EquivariantSystem(linform_system())

    def test_rejects_mixed_degrees(self):
        polys = [parse_poly("x1", 2, ABCD), parse_poly("x2^2", 2, ABCD)]
        with pytest.raises(ValueError, match="mixed degrees"):
            EquivariantSystem(polys)

    def test_rejects_wrong_ambient(self):
        polys = [parse_poly("x1", 3, ABCD), parse_poly("x2", 3, ABCD)]
        with pytest.raises(ValueError, match="ambient"):
            EquivariantSystem(polys)

    def test_rejects_tiny_or_constant_input(self):
        with pytest.raises(ValueError):
            EquivariantSystem([parse_poly("x1", 1, ABCD)])
        consts = [Polynomial.constant(ABCD, 2, 5)] * 2
        with pytest.raises(ValueError, match="degree"):
            EquivariantSystem(consts)


class TestLinearFormExample:
    """The non-equivariant showcase runs through the determinant route."""

    def test_pairwise_values_all_equal_d(self):
        polys = linform_system()
        want = parse_poly("d", 3, ABCD, degree=0)
        for pair in combinations(range(3), 2):
            assert divided_difference_determinant(polys, pair) == want

    def test_order_three_vanishes(self):
        polys = linform_system()
        assert divided_difference_determinant(polys, (0, 1, 2)).is_zero()

    def test_pairwise_condition_failure_raises(self):
        x1 = Polynomial.variable(ABCD, 3, 0)
        x2 = Polynomial.variable(ABCD, 3, 1)
        x3 = Polynomial.variable(ABCD, 3, 2)
        polys = [x1 * x1, x2 * x2, x3 * x3 + x1 * x2]
        with pytest.raises(NotDivisibleError):
            divided_difference_determinant(polys, (0, 2))


class TestQuadraticFamily:
    def test_first_order_is_the_input(self):
        polys = quadratic_system(3)
        table = DividedDifferenceTable(EquivariantSystem(polys))
        for i in range(3):
            assert table.divided_difference((i,)) == polys[i]

    def test_order_two_value(self):
        table = DividedDifferenceTable(EquivariantSystem(quadratic_system(3)))
        want = parse_poly("a*(x1 + x2) + b*(x1 + x2 + x3)", 3, ABCD)
        assert table.divided_difference((0, 1)) == want

    def test_order_three_is_leading_parameter(self):
        table = DividedDifferenceTable(EquivariantSystem(quadratic_system(3)))
        top = table.divided_difference((0, 1, 2))
        assert top == parse_poly("a", 3, ABCD, degree=0)
        assert table.top_constant() == ABCD.parameter("a")

    def test_degree_bookkeeping(self):
        table = DividedDifferenceTable(EquivariantSystem(quadratic_system(4)))
        for size in range(1, 5):
            for I in combinations(range(4), size):
                value = table.divided_difference(I)
                assert value.degree == 2 - size + 1
                assert value.is_zero() == (size > 3)


class TestPowerSums:
    def test_order_two_is_complete_homogeneous(self):
        for d in (2, 3, 4):
            table = DividedDifferenceTable(EquivariantSystem(power_system(3, d)))
            text = " + ".join(f"x1^{r}*x2^{d - 1 - r}" for r in range(d))
            want = parse_poly(text, 3, ABCD)
            assert table.divided_difference((0, 1)) == want

    def test_top_constant_is_one(self):
        table = DividedDifferenceTable(EquivariantSystem(power_system(4, 3)))
        assert table.top_constant() == ABCD.one()

    def test_cubic_family_top_value(self):
        table = DividedDifferenceTable(EquivariantSystem(cubic_system(3)))
        want = parse_poly("(a + b)*(x1 + x2 + x3)", 3, ABCD)
        assert table.divided_difference((0, 1, 2)) == want


class TestRecurrenceChoice:
    def test_any_pair_gives_the_cached_value(self):
        """Every entry is the subtract-and-divide recurrence for every
        admissible pair, and each cached one, a division-free step, is
        the bordered Vandermonde determinant too."""
        for table in all_tables() + wide_tables():
            n, d = table.system.n, table.system.d
            for size in range(2, min(d + 1, n) + 1):
                head = tuple(range(size))
                assert table.divided_difference(head) == \
                    divided_difference_determinant(table.system.polys, head)
                for I in combinations(range(n), size):
                    want = table.divided_difference(I)
                    for p, q in permutations(I, 2):
                        got = divided_difference_recursive(table, I, p, q)
                        assert got == want, (I, p, q)

    def test_rejects_bad_pairs(self):
        table = DividedDifferenceTable(EquivariantSystem(quadratic_system(3)))
        with pytest.raises(ValueError):
            divided_difference_recursive(table, (0, 1), 0, 0)
        with pytest.raises(ValueError):
            divided_difference_recursive(table, (0, 1), 0, 2)
        with pytest.raises(ValueError):
            divided_difference_recursive(table, (1,), 1, 1)


class TestCovariance:
    def test_permuting_values_permutes_indices(self):
        for table in all_tables():
            n, d = table.system.n, table.system.d
            for sigma in permutations(range(n)):
                for size in range(1, min(d + 1, n) + 1):
                    for I in combinations(range(n), size):
                        image = tuple(sorted(sigma[i] for i in I))
                        lhs = table.divided_difference(I).permute(sigma)
                        assert lhs == table.divided_difference(image)


class TestTopConstant:
    def test_equal_across_all_subsets(self):
        table = DividedDifferenceTable(EquivariantSystem(quadratic_system(4)))
        values = {table.divided_difference(I).as_coefficient()
                  for I in combinations(range(4), 3)}
        assert values == {ABCD.parameter("a")}
        assert table.top_constant() == ABCD.parameter("a")

    def test_linear_family(self):
        table = DividedDifferenceTable(EquivariantSystem(linear_system(4)))
        assert table.top_constant() == ABCD.parameter("a")

    @pytest.mark.parametrize("n,d,subset", [(4, 2, (1, 2, 3)),
                                            (5, 3, (0, 2, 3, 4))])
    def test_matches_determinant_on_non_canonical_subset(self, n, d, subset):
        symbolic = quadratic_system(n) if d == 2 else cubic_system(n)
        integer = random_integer_equivariant_system(
            random.Random(f"top:{n}:{d}"), n, d).polys
        for polys in (symbolic, integer):
            table = DividedDifferenceTable(EquivariantSystem(polys))
            want = divided_difference_determinant(polys, subset)
            assert table.top_constant() == want.as_coefficient()

    def test_needs_enough_variables(self):
        table = DividedDifferenceTable(EquivariantSystem(cubic_system(3)))
        with pytest.raises(ValueError, match="n >= d"):
            table.top_constant()


class TestDeterminantRoute:
    def test_matches_recursion_everywhere(self):
        for table in all_tables():
            n = table.system.n
            polys = table.system.polys
            for size in range(1, n + 1):
                for I in combinations(range(n), size):
                    det_value = divided_difference_determinant(polys, I)
                    assert det_value == table.divided_difference(I)

    def test_vandermonde_product_shape(self):
        v = vandermonde_product(ABCD, 3, (0, 1, 2))
        want = parse_poly("(x2 - x1)*(x3 - x1)*(x3 - x2)", 3, ABCD)
        assert v == want


class TestTableCache:
    def test_entries_are_per_order(self):
        # any subset of an order is read off the one canonical entry
        table = DividedDifferenceTable(EquivariantSystem(quadratic_system(4)))
        table.divided_difference((1, 2))
        assert table.cached_subsets() == [(0, 1)]
        table.divided_difference((0, 3))
        assert table.cached_subsets() == [(0, 1)]
        table.divided_difference((1, 2, 3))
        assert table.cached_subsets() == [(0, 1), (0, 1, 2)]

    def test_freeze_fills_and_preserves_values(self):
        table = DividedDifferenceTable(EquivariantSystem(quadratic_system(4)))
        reference = {I: table.divided_difference(I)
                     for size in (2, 3) for I in combinations(range(4), size)}
        frozen = table.freeze()
        assert frozen is table
        assert table.cached_subsets() == [(0, 1), (0, 1, 2)]
        for I, want in reference.items():
            assert table.divided_difference(I) == want
        beyond = table.divided_difference((0, 1, 2, 3))
        assert beyond.is_zero() and beyond.degree == -1

    def test_index_validation(self):
        table = DividedDifferenceTable(EquivariantSystem(quadratic_system(3)))
        with pytest.raises(ValueError):
            table.divided_difference(())
        with pytest.raises(ValueError):
            table.divided_difference((0, 0, 1))
        with pytest.raises(ValueError):
            table.divided_difference((0, 3))
