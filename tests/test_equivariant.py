"""Partitionwise decomposition against closed forms and direct oracles."""

import random
from itertools import combinations
from math import prod

import pytest

from symres.combinatorics import Partition, chain_coefficient_degree, partitions
from symres.divdiff import DividedDifferenceTable, EquivariantSystem, \
    divided_difference_determinant
from symres.equivariant import (
    AveragingReport,
    _generic_layout,
    FactoredResultant,
    averaged_chain_resultant,
    block_leads,
    decompose_resultant,
    elementary_symmetric,
    generic_equivariant_system,
    random_integer_equivariant_system,
    rho_lambda,
    specialize_chain,
    verify_decomposition,
)
from symres.parser import parse_poly
from symres.resultant import macaulay_resultant, resultant
from symres.ring import ParameterRing, Polynomial

Z = ParameterRing()


def displayed_length_two_factor(ring, m, n):
    """The printed two-block factor of the generic quadratic system.

    Stated with half-integer coefficients; doubling each term keeps the
    arithmetic integral and the final exact halving recovers the value.
    """
    a, b, c, d = (ring.parameter(x) for x in "abcd")
    doubled = (
        a * b ** 2 * (2 * n * m)
        + d * a * b * (4 * m ** 2)
        + d * b ** 2 * (-(m * n ** 2))
        + d * b ** 2 * (m ** 2 * n)
        + d * a ** 2 * (-4 * m * n)
        + c * a ** 2 * (-8 * m * n)
        + d * a * b * (-4 * m * n)
        + d * a ** 2 * (n ** 2)
        + d * a ** 2 * (4 * m ** 2)
        + a ** 2 * b * (2 * n)
        + d * a ** 2 * (-n)
        + c * a ** 2 * (2 * n ** 2)
        + c * a ** 2 * (8 * m ** 2)
        + a * b ** 2 * (-2 * m ** 2)
        + a ** 3 * 2)
    return doubled.exact_div(ring.constant(2))


def substituted_collapse(p, lam):
    """The blockwise collapse as a substitution x_i -> y_{block of i}."""
    owner = [b for b, part in enumerate(lam) for _ in range(part)]
    images = {i: Polynomial.variable(p.ring, len(lam), owner[i])
              for i in range(p.ambient)}
    return p.substitute(images)


def random_form(rng, ring, n, d, count=8):
    """A seeded homogeneous form with up to ``count`` terms; over Z[t]
    the coefficients are c + c't."""
    terms = {}
    for _ in range(count):
        exp = [0] * n
        for _ in range(d):
            exp[rng.randrange(n)] += 1
        c = ring.constant(rng.randint(-3, 3))
        if ring.params:
            c = c + ring.parameter("t") * rng.randint(-2, 2)
        terms[tuple(exp)] = c
    return Polynomial(ring, n, d, terms)


class TestElementarySymmetric:
    def test_small_expansions(self):
        assert elementary_symmetric(Z, 3, 0) == Polynomial.constant(Z, 3, 1)
        assert elementary_symmetric(Z, 3, 2) == parse_poly(
            "x1*x2 + x1*x3 + x2*x3", 3, Z)
        assert elementary_symmetric(Z, 3, 3) == parse_poly("x1*x2*x3", 3, Z)

    def test_vanishes_beyond_ambient(self):
        assert elementary_symmetric(Z, 3, 4).is_zero()


class TestRhoLambda:
    def test_identity_partition_renames(self):
        p = parse_poly("x1^2 + 2*x2*x3", 3, Z)
        assert rho_lambda(p, (1, 1, 1)) == p

    def test_collapses_e1_blockwise(self):
        e1 = elementary_symmetric(Z, 3, 1)
        assert rho_lambda(e1, (2, 1)) == parse_poly("2*x1 + x2", 2, Z)

    def test_collapses_e2_blockwise(self):
        e2 = elementary_symmetric(Z, 4, 2)
        assert rho_lambda(e2, (2, 2)) == parse_poly(
            "x1^2 + 4*x1*x2 + x2^2", 2, Z)
        assert rho_lambda(e2, (3, 1)) == parse_poly(
            "3*x1^2 + 3*x1*x2", 2, Z)

    def test_shape_checks(self):
        p = parse_poly("x1 + x2", 2, Z)
        with pytest.raises(ValueError, match="ambient"):
            rho_lambda(p, (2, 1))

    @pytest.mark.parametrize("params", [(), ("t",)])
    def test_matches_substituted_collapse(self, params):
        ring = ParameterRing(params)
        rng = random.Random(f"rho:{params}")
        for n in range(1, 6):
            for lam in partitions(n):
                for d in range(4):
                    p = random_form(rng, ring, n, d)
                    got = rho_lambda(p, lam)
                    assert got == substituted_collapse(p, lam), (p, lam)
                    assert (got.ambient, got.degree) == (lam.length, d)

    def test_cancelling_terms_vanish(self):
        Zt = ParameterRing(("t",))
        p = parse_poly("x1 - x2", 2, Z)
        assert rho_lambda(p, (2,)).is_zero()
        q = parse_poly("t*x1*x3 - t*x2*x3 + x3^2", 3, Zt)
        assert rho_lambda(q, (2, 1)) == parse_poly("x2^2", 2, Zt)
        assert rho_lambda(q, (2, 1)) == substituted_collapse(q, (2, 1))

    def test_zero_polynomial(self):
        zero = Polynomial.zero(Z, 4, 3)
        got = rho_lambda(zero, (2, 2))
        assert got.is_zero()
        assert (got.ambient, got.degree) == (2, 3)
        assert got == substituted_collapse(zero, (2, 2))

    def test_block_leads(self):
        assert block_leads(Partition((2, 2))) == (0, 2)
        assert block_leads(Partition((3, 1))) == (0, 3)
        assert block_leads(Partition((1, 1, 1))) == (0, 1, 2)


class TestSpecializeChain:
    def test_single_block_evaluates_diagonally(self):
        table = DividedDifferenceTable(generic_equivariant_system(3, 1))
        chain = specialize_chain(table, (3,))
        ring = table.system.ring
        want = parse_poly("(a + 3*b)*x1", 1, ring)
        assert chain == (want,)

    def test_two_block_quadratic_pair(self):
        sys42 = generic_equivariant_system(4, 2)
        table = DividedDifferenceTable(sys42)
        chain = specialize_chain(table, (3, 1))
        ring = sys42.ring
        # second entry is a(y1+y2) + b(m y1 + (n-m) y2) at m=3, n=4
        want = parse_poly("a*(x1 + x2) + b*(3*x1 + x2)", 2, ring)
        assert chain[1] == want
        assert [p.degree for p in chain] == [2, 1]
        assert all(p.ambient == 2 for p in chain)

    def test_identity_partition_is_plain_renaming(self):
        sys22 = generic_equivariant_system(2, 2)
        table = DividedDifferenceTable(sys22)
        chain = specialize_chain(table, (1, 1))
        assert chain[0] == sys22.polys[0]
        assert chain[1] == table.divided_difference((0, 1))

    def test_lead_first_collapse_matches_rho_of_lead_subsets(self):
        """One relabel of the canonical F^{(0..k-1)} gives
        rho_lambda(F^{leads[:k]}) for every chain of every partition."""
        systems = [random_integer_equivariant_system(
                       random.Random(f"chain:{n}:{d}"), n, d)
                   for n in range(2, 7) for d in range(1, 5)]
        systems += [generic_equivariant_system(n, d)
                    for n, d in ((3, 2), (4, 2), (3, 3))]
        for system in systems:
            n, d = system.n, system.d
            table = DividedDifferenceTable(system)
            for lam in partitions(n, max_length=d):
                leads = block_leads(lam)
                want = tuple(
                    rho_lambda(table.divided_difference(leads[:k]), lam)
                    for k in range(1, lam.length + 1))
                assert specialize_chain(table, lam) == want, (n, d, lam)

    def test_chain_permutes_nothing(self, monkeypatch):
        """With the canonical entries cached, no chain entry is a
        permuted copy of one."""
        for n, d in ((4, 3), (5, 2), (6, 4)):
            table = DividedDifferenceTable(random_integer_equivariant_system(
                random.Random(n * d), n, d)).freeze()
            calls = []
            real = Polynomial.permute

            def spy(self, sigma):
                calls.append(sigma)
                return real(self, sigma)

            monkeypatch.setattr(Polynomial, "permute", spy)
            for lam in partitions(n, max_length=d):
                specialize_chain(table, lam)
            monkeypatch.undo()
            assert calls == [], (n, d)

    def test_rejects_chains_longer_than_degree(self):
        table = DividedDifferenceTable(generic_equivariant_system(3, 2))
        with pytest.raises(ValueError, match="exceeds degree"):
            specialize_chain(table, (1, 1, 1))

    def test_specialize_then_difference_matches(self):
        # rho of the divided difference equals the divided difference of
        # the specialized system whenever the subset maps injectively
        for n, d, lam in ((4, 2, (2, 2)), (4, 3, (2, 1, 1)), (3, 3, (2, 1))):
            system = generic_equivariant_system(n, d)
            table = DividedDifferenceTable(system)
            lam = Partition(lam)
            leads = block_leads(lam)
            specialized = [rho_lambda(system.polys[i0], lam) for i0 in leads]
            for size in range(1, lam.length + 1):
                for J in combinations(range(lam.length), size):
                    via_x = rho_lambda(
                        table.divided_difference(tuple(leads[j] for j in J)),
                        lam)
                    via_y = divided_difference_determinant(specialized, J)
                    assert via_x == via_y, (n, d, lam, J)


class TestFactoredResultant:
    def test_expand(self):
        ring = ParameterRing(("a", "b"))
        a, b = ring.parameter("a"), ring.parameter("b")
        f = FactoredResultant(a, (((a + b), 2), (b, 1)),
                              (Partition((2,)), Partition((1, 1))))
        assert f.expand() == a * (a + b) ** 2 * b

    def test_rejects_bad_multiplicity(self):
        ring = ParameterRing(("a",))
        with pytest.raises(ValueError):
            FactoredResultant(ring.one(), ((ring.parameter("a"), 0),),
                              (Partition((1,)),))

    def test_rejects_label_count_mismatch(self):
        ring = ParameterRing(("a",))
        with pytest.raises(ValueError):
            FactoredResultant(ring.one(), ((ring.parameter("a"), 1),),
                              (Partition((2,)), Partition((1, 1))))

    def test_decomposition_labels_its_factors(self):
        for n, d in ((3, 1), (4, 2), (3, 3)):
            rng = random.Random(n + d)
            system = random_integer_equivariant_system(rng, n, d)
            got = decompose_resultant(system).partitions
            assert got == tuple(partitions(n, max_length=min(n, d)))


class TestDecomposeLinear:
    def test_prefactor_and_single_factor(self):
        for n in (2, 3, 4, 5):
            system = generic_equivariant_system(n, 1)
            ring = system.ring
            a, b = ring.parameter("a"), ring.parameter("b")
            got = decompose_resultant(system)
            assert got.prefactor == a ** (n - 1)
            assert got.factors == ((a + b * n, 1),)
            assert got.expand() == macaulay_resultant(system.polys)


class TestDecomposeQuadratic:
    def test_n2_closed_form(self):
        system = generic_equivariant_system(2, 2)
        ring = system.ring
        a, b, c, d = (ring.parameter(x) for x in "abcd")
        got = decompose_resultant(system)
        assert got.prefactor == ring.one()
        assert got.factors[0] == (a + b * 2 + c * 4 + d, 1)
        assert got.expand() == (a + b * 2 + c * 4 + d) * (a + b) ** 2 * (a - d)

    def test_displayed_two_block_factor(self):
        # (m, n) = (2, 3), (3, 4) and (2, 4)
        cases = ((3, 2, (2, 1)), (4, 2, (3, 1)), (4, 2, (2, 2)))
        for n, d, lam in cases:
            system = generic_equivariant_system(n, d)
            table = DividedDifferenceTable(system)
            value = macaulay_resultant(specialize_chain(table, lam))
            want = displayed_length_two_factor(system.ring, lam[0], n)
            assert value == want, (n, lam)

    def test_equal_block_factor(self):
        # the printed square on the last factor overcounts: the value
        # is homogeneous of degree 3 in the coefficients, so the factor
        # is (a+bk)^2 (a-dk) exactly
        for k in (1, 2, 3):
            system = generic_equivariant_system(2 * k, 2)
            ring = system.ring
            a, b, d = (ring.parameter(x) for x in "abd")
            table = DividedDifferenceTable(system)
            value = macaulay_resultant(specialize_chain(table, (k, k)))
            assert value == (a + b * k) ** 2 * (a - d * k)


class TestDecomposeStructure:
    def test_power_sum_systems_decompose_to_one(self):
        for n, d in ((3, 2), (4, 2), (3, 3), (2, 3)):
            polys = [Polynomial.variable(Z, n, i) ** d for i in range(n)]
            got = decompose_resultant(EquivariantSystem(polys))
            assert got.prefactor == Z.one()
            assert all(value == Z.one() for value, _ in got.factors)

    def test_branch_selection(self):
        low = decompose_resultant(generic_equivariant_system(3, 2))
        assert len(low.factors) == 2  # (3) and (2,1)
        assert not low.prefactor.is_one()
        high = decompose_resultant(generic_equivariant_system(2, 3))
        assert high.prefactor.is_one()
        assert len(high.factors) == 2  # (2) and (1,1)

    def test_factor_degrees_sum_to_total(self):
        for n, d in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 1)):
            system = generic_equivariant_system(n, d)
            got = decompose_resultant(system)
            lams = list(partitions(n)) if d >= n else \
                list(partitions(n, max_length=d))
            total = 0
            if not got.prefactor.is_one():
                exps = {sum(e) for e in got.prefactor.terms}
                assert len(exps) == 1
                total += exps.pop()
            for (value, mult), lam in zip(got.factors, lams):
                degrees = {sum(e) for e in value.terms}
                assert degrees == {chain_coefficient_degree(d, lam.length)}
                total += mult * degrees.pop()
            assert total == n * d ** (n - 1), (n, d)


class TestLazyTable:
    @pytest.fixture
    def no_freeze(self, monkeypatch):
        def refuse(table):
            raise AssertionError("the pipeline froze the table")
        monkeypatch.setattr(DividedDifferenceTable, "freeze", refuse)

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (4, 3), (2, 3), (3, 3)])
    def test_decompose_does_not_freeze(self, no_freeze, n, d):
        system = random_integer_equivariant_system(
            random.Random(f"lazy:{n}{d}"), n, d)
        got = decompose_resultant(system)
        assert got.expand() == macaulay_resultant(system.polys), (n, d)

    def test_reads_only_chain_subsets(self, monkeypatch):
        # (6,2) computes one divided difference per order it reads, not
        # all 35 subsets of sizes 2 and 3
        tables = []
        init = DividedDifferenceTable.__init__

        def spy(table, system):
            init(table, system)
            tables.append(table)
        monkeypatch.setattr(DividedDifferenceTable, "__init__", spy)
        system = random_integer_equivariant_system(random.Random(6), 6, 2)
        decompose_resultant(system)
        (table,) = tables
        assert table.cached_subsets() == [(0, 1), (0, 1, 2)]


    def test_integer_12_3_computes_one_entry_per_order(self, monkeypatch):
        # min(d + 1, n) - 1 = 3 recurrence steps, one per order
        tables, steps = [], []
        init = DividedDifferenceTable.__init__
        step = DividedDifferenceTable._recurrence_step

        def spy(table, system):
            init(table, system)
            tables.append(table)

        def counting(table, I, p, q):
            steps.append(I)
            return step(table, I, p, q)
        monkeypatch.setattr(DividedDifferenceTable, "__init__", spy)
        monkeypatch.setattr(DividedDifferenceTable, "_recurrence_step",
                            counting)
        system = random_integer_equivariant_system(random.Random(5), 12, 3)
        decompose_resultant(system)
        (table,) = tables
        want = [(0, 1), (0, 1, 2), (0, 1, 2, 3)]
        assert table.cached_subsets() == want
        assert sorted(steps) == want


class TestVerifyDecomposition:
    def test_symbolic_small_cases(self):
        for n, d in ((2, 1), (2, 2), (3, 1), (2, 3)):
            report = verify_decomposition(generic_equivariant_system(n, d))
            assert report.equal
            assert report.expanded == report.direct

    def test_symbolic_ternary_quadratic(self):
        # the largest symbolic direct Macaulay run in the suite (15x15
        # over four parameters); everything bigger is covered by the
        # integer draws above
        report = verify_decomposition(generic_equivariant_system(3, 2))
        assert report.equal

    def test_random_integer_systems(self):
        rng = random.Random(11)
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
            for _ in range(2):
                system = random_integer_equivariant_system(rng, n, d)
                assert verify_decomposition(system).equal, (n, d)

    def test_zero_resultant_system(self):
        # coefficients chosen so that (1, 1, 1) is a common root
        e1 = "(x1 + x2 + x3)"
        e2 = "(x1*x2 + x1*x3 + x2*x3)"
        polys = [parse_poly(f"3*x{i}^2 + x{i}*{e1} - {e1}^2 + {e2}", 3, Z)
                 for i in (1, 2, 3)]
        report = verify_decomposition(EquivariantSystem(polys))
        assert report.equal
        assert report.direct.is_zero()


class TestAveragedChain:
    def test_factor_two_example(self):
        system = generic_equivariant_system(2, 2)
        report = averaged_chain_resultant(system, (1, 1))
        assert report.constant == 2
        assert report.summed == report.chain * 2
        assert report.averaged is None  # odd coefficients: no exact halving

    def test_single_block_is_trivial(self):
        system = generic_equivariant_system(3, 2)
        report = averaged_chain_resultant(system, (3,))
        assert report.constant == 1
        assert report.summed == report.chain

    def test_averaged_variant_on_scaled_system(self):
        base = generic_equivariant_system(2, 2)
        scaled = EquivariantSystem([p * 2 for p in base.polys])
        report = averaged_chain_resultant(scaled, (1, 1))
        assert report.averaged is not None
        assert report.averaged == report.chain

    def test_integer_sweep_with_predicted_constants(self):
        rng = random.Random(32)
        want = {1: 1, 2: 4, 3: 243}  # constants at d = 3 by chain length
        for n, d in ((3, 3), (4, 3)):
            for lam in partitions(n, max_length=3):
                system = random_integer_equivariant_system(rng, n, d)
                report = averaged_chain_resultant(system, lam)
                assert report.constant == want[lam.length], (n, lam)

    def test_rejects_long_partitions(self):
        system = generic_equivariant_system(3, 2)
        with pytest.raises(ValueError, match="min"):
            averaged_chain_resultant(system, (1, 1, 1))


class TestGenericSystems:
    def test_quadratic_shape_matches_naming(self):
        system = generic_equivariant_system(3, 2)
        ring = system.ring
        assert ring.params == ("a", "b", "c", "d")
        e1 = "(x1 + x2 + x3)"
        e2 = "(x1*x2 + x1*x3 + x2*x3)"
        for i in (1, 2, 3):
            want = parse_poly(
                f"a*x{i}^2 + b*x{i}*{e1} + c*{e1}^2 + d*{e2}", 3, ring)
            assert system.polys[i - 1] == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_generic_written_out_per_index(self, n):
        e = {k: "(" + " + ".join("*".join(f"x{i + 1}" for i in c)
                                  for c in combinations(range(n), k)) + ")"
             for k in (1, 2, 3)}
        quadratic = generic_equivariant_system(n, 2)
        cubic = generic_equivariant_system(n, 3)
        for i in range(1, n + 1):
            x = f"x{i}"
            want = parse_poly(f"a*{x}^2 + b*{x}*{e[1]} + c*{e[1]}^2"
                              f" + d*{e[2]}", n, quadratic.ring)
            assert quadratic.polys[i - 1] == want, (n, i)
            text = (f"a*{x}^3 + b*{x}^2*{e[1]} + c*{x}*{e[1]}^2"
                    f" + d*{x}*{e[2]} + f*{e[1]}^3 + g*{e[2]}*{e[1]}")
            if n >= 3:
                text += f" + h*{e[3]}"
            want = parse_poly(text, n, cubic.ring)
            assert cubic.polys[i - 1] == want, (n, i)

    def test_random_equals_per_index_construction(self):
        # each F^{i} built on its own from the same draws, slot by slot
        for n in range(2, 7):
            for d in range(1, 5):
                for seed in range(3):
                    got = random_integer_equivariant_system(
                        random.Random(seed), n, d)
                    rng = random.Random(seed)
                    layout = _generic_layout(n, d)
                    values = [rng.randint(-3, 3) for _ in layout]
                    while values[0] == 0:
                        values[0] = rng.randint(-3, 3)
                    for i in range(n):
                        want = Polynomial.zero(Z, n, d)
                        for (k, mu), v in zip(layout, values):
                            part = Polynomial.monomial(
                                Z, n, tuple(k if w == i else 0
                                            for w in range(n)), v)
                            for p in (mu or ()):
                                part = part * elementary_symmetric(Z, n, p)
                            want = want + part
                        assert got.polys[i] == want, (n, d, seed, i)

    def test_cubic_binary_parameter_order(self):
        system = generic_equivariant_system(2, 3)
        assert system.ring.params == ("a", "b", "c", "d", "f", "g")

    def test_random_systems_are_reproducible(self):
        one = random_integer_equivariant_system(random.Random(9), 3, 2)
        two = random_integer_equivariant_system(random.Random(9), 3, 2)
        assert one.polys == two.polys
        lead = one.polys[0].coefficient_of((2, 0, 0))
        assert not lead.is_zero()

    def test_generic_quartic_two_one_chain_resolves(self):
        """The (2,1) chain of the generic (3,4) system, 11 parameters: a
        7-row matrix with no denominator, beyond generic Bareiss in 90 s.
        At integer points it equals the chain of the specialized system."""
        system = generic_equivariant_system(3, 4)
        value = resultant(specialize_chain(DividedDifferenceTable(system),
                                           (2, 1)))

        def at(c, point):
            return sum(v * prod(x ** e for x, e in zip(point, exp))
                       for exp, v in c.terms.items())

        rng = random.Random(11)
        for _ in range(2):
            point = [rng.randint(-3, 3) for _ in system.ring.params]
            specialized = EquivariantSystem([
                Polynomial(Z, 3, 4, {exp: at(c, point)
                                     for exp, c in p.terms.items()})
                for p in system.polys])
            chain = specialize_chain(DividedDifferenceTable(specialized),
                                     (2, 1))
            want = resultant(chain).constant_value()
            assert want and at(value, point) == want
