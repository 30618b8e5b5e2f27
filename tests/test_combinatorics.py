from __future__ import annotations

import math
from fractions import Fraction

import pytest

from symres.combinatorics import (
    Partition,
    chain_coefficient_degree,
    falling_quotient,
    m_lambda,
    m_zero_discriminant,
    m_zero_resultant,
    multinomial,
    partitions,
)

from conftest import degree_identity_check


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    lam = Partition((3, 1, 1))
    assert lam.n == 5 and lam.length == 3
    assert list(lam) == [3, 1, 1]
    assert str(lam) == "(3,1,1)"


def test_partitions_of_four_in_reverse_lex_order():
    got = [p.parts for p in partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_max_length_filter():
    got = [p.parts for p in partitions(4, max_length=2)]
    assert got == [(4,), (3, 1), (2, 2)]
    assert [p.parts for p in partitions(1)] == [(1,)]


def test_max_length_generates_the_filtered_list():
    """Generating only the short partitions keeps the full list's order."""
    for n in range(1, 16):
        full = [p.parts for p in partitions(n)]
        assert full == sorted(set(full), reverse=True)
        for length in range(1, n + 2):
            got = [p.parts for p in partitions(n, max_length=length)]
            assert got == [parts for parts in full if len(parts) <= length]


def test_partition_counts():
    # number of partitions of n = 1..10
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(partitions(n)) for n in range(1, 11)] == expected


def test_partitions_strictly_decreasing_in_lex():
    for n in range(1, 9):
        seq = [p.parts for p in partitions(n)]
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert all(sum(p) == n for p in seq)


def test_multinomial_and_m_lambda():
    assert multinomial(Partition((2, 1))) == 3
    assert m_lambda(Partition((2, 1))) == 3
    assert m_lambda(Partition((3,))) == 1
    assert m_lambda(Partition((1, 1))) == 1
    assert m_lambda(Partition((2, 2))) == 3
    assert m_lambda(Partition((3, 1))) == 4
    assert m_lambda(Partition((1, 1, 1, 1))) == 1
    # half the central binomial when the two parts coincide
    assert m_lambda(Partition((2, 2))) == math.comb(4, 2) // 2


def test_two_block_multiplicity_identity():
    # the count of surjections onto two blocks: 2 * sum of m_(n-k,k) = 2^n - 2
    for n in range(2, 9):
        total = sum(m_lambda(Partition((n - k, k)))
                    for k in range(1, n // 2 + 1))
        assert 2 * total == 2 ** n - 2


def test_falling_quotient_matches_fraction_oracle():
    for d in range(1, 8):
        for length in range(1, d + 1):
            full = math.prod(d - i for i in range(length))
            for j in range(1, length + 1):
                assert falling_quotient(d, length, j) == \
                    Fraction(full, d - j + 1)
    with pytest.raises(ValueError):
        falling_quotient(2, 3, 1)
    with pytest.raises(ValueError):
        falling_quotient(3, 2, 3)


def test_chain_coefficient_degree():
    # one polynomial: the resultant is its only coefficient
    assert chain_coefficient_degree(5, 1) == 1
    # two polynomials of degrees d and d-1: Sylvester size d + (d-1)
    for d in range(2, 7):
        assert chain_coefficient_degree(d, 2) == 2 * d - 1
    assert chain_coefficient_degree(3, 3) == 2 * 1 + 3 * 1 + 3 * 2


def test_m_zero_resultant_values():
    assert m_zero_resultant(3, 2) == 2
    assert m_zero_resultant(4, 2) == 10
    # degree-1 systems: only the all-in-one partition contributes
    for n in range(2, 7):
        assert m_zero_resultant(n, 1) == n - 1
    with pytest.raises(ValueError):
        m_zero_resultant(3, 3)
    with pytest.raises(ValueError):
        m_zero_resultant(2, 0)


def test_m_zero_resultant_d2_closed_form():
    # closed form for d=2: n*2^(n-1) - 1 - 3 * sum of binomials over
    # two-block splits, written out with explicit m multiplicities
    for n in range(3, 9):
        expected = n * 2 ** (n - 1) - 1
        for k in range(1, n // 2 + 1):
            expected -= 3 * m_lambda(Partition((n - k, k)))
        assert m_zero_resultant(n, 2) == expected


def test_m_zero_discriminant_values():
    for n in range(2, 8):
        assert m_zero_discriminant(n, 2) == n - 1
    assert m_zero_discriminant(3, 3) == 2
    assert m_zero_discriminant(4, 3) == 10
    # (n-3)*2^(n-1) + 2 for cubics
    for n in range(3, 9):
        assert m_zero_discriminant(n, 3) == (n - 3) * 2 ** (n - 1) + 2
    with pytest.raises(ValueError):
        m_zero_discriminant(3, 4)
    with pytest.raises(ValueError):
        m_zero_discriminant(3, 1)


def test_m_zero_discriminant_parity():
    # even whenever d >= 3; this is what fixes the sign of the
    # discriminant decomposition
    for n in range(3, 8):
        for d in range(3, n + 1):
            assert m_zero_discriminant(n, d) % 2 == 0
    # and for d = 2 the exponent n-1 tracks the sign (-1)^(n-1)
    assert m_zero_discriminant(5, 2) % 2 == 0
    assert m_zero_discriminant(4, 2) % 2 == 1


def test_degree_identity_check():
    for n in range(2, 8):
        for d in range(n, 8):
            assert degree_identity_check(n, d)
    with pytest.raises(ValueError):
        degree_identity_check(3, 2)


def test_partition_ordering_dataclass():
    assert Partition((3, 1)) > Partition((2, 2))
    assert sorted([Partition((2, 2)), Partition((4,)), Partition((3, 1))],
                  reverse=True) == [p for p in partitions(4, max_length=2)]
