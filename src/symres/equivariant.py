"""Resultant decomposition of equivariant systems.

For an equivariant system F^{1}, ..., F^{n} of degree d the resultant
factors over the partitions of n.  Each partition contributes the
resultant of a small specialized chain: collapse the variables into
l(lambda) blocks via rho_lambda and take divided differences along the
block-leading indices, giving l polynomials of degrees d, d-1, ...,
d-l+1 in l variables.  The factor appears with multiplicity m_lambda;
when d < n the partitions longer than d drop out and their share is
carried by a power of the constant top divided difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional, Tuple

from symres.combinatorics import (
    Partition,
    _as_partition,
    basis_partitions,
    falling_quotient,
    m_lambda,
    m_zero_resultant,
    partitions,
)
from symres.divdiff import DividedDifferenceTable, EquivariantSystem, _swap
from symres.resultant import macaulay_resultant, resultant
from symres.ring import Coefficient, NotDivisibleError, ParameterRing, Polynomial


def elementary_symmetric(ring: ParameterRing, ambient: int,
                         p: int) -> Polynomial:
    """The elementary symmetric polynomial e_p; zero when p > ambient."""
    if p < 0:
        raise ValueError("negative order")
    if p == 0:
        return Polynomial.constant(ring, ambient, 1)
    terms = {}
    for chosen in combinations(range(ambient), p):
        exp = tuple(1 if i in chosen else 0 for i in range(ambient))
        terms[exp] = ring.one()
    return Polynomial(ring, ambient, p, terms)


def expand_elementary(lam, n: int,
                      ring: Optional[ParameterRing] = None) -> Polynomial:
    """The expanded product e_{lam_1} e_{lam_2} ... in n variables.

    Zero (of the right nominal degree) whenever some part exceeds n.
    """
    lam = _as_partition(lam)
    if ring is None:
        ring = ParameterRing(())
    out = Polynomial.constant(ring, n, 1)
    for part in lam:
        out = out * elementary_symmetric(ring, n, part)
    return out


def block_leads(lam: Partition) -> Tuple[int, ...]:
    """0-based index of the first variable of each block."""
    leads = []
    pos = 0
    for part in lam:
        leads.append(pos)
        pos += part
    return tuple(leads)


def rho_lambda(p: Polynomial, lam) -> Polynomial:
    """Collapse the variables blockwise: x-block j maps to y_j.

    One pass over the terms: the exponent of y_j is the sum of the
    exponents of block j, and terms landing on one monomial are added.
    """
    lam = _as_partition(lam)
    if p.ambient != lam.n:
        raise ValueError(
            f"ambient {p.ambient} does not match partition of {lam.n}")
    return p.relabel([j for j, part in enumerate(lam) for _ in range(part)],
                     lam.length)


def specialize_chain(table: DividedDifferenceTable,
                     lam) -> Tuple[Polynomial, ...]:
    """The chain of one partition: rho_lambda of the divided
    differences along the block leads.

    The k-th entry is rho_lambda(F^{I_k}) with I_k the leading indices
    of the first k blocks; the blockwise collapse is injective on I_k,
    so this equals the k-th divided difference of the specialized
    system itself.

    Each entry is read off the cached canonical F^{(0..k-1)} by its
    table relabeler, whose term supports are found once per table, with
    the lead-first blocking: variable j < l heads block j, and the other
    n - l variables fill the blocks in order, lam_j - 1 of them to block
    j.  F^{I_k} is the canonical value under a permutation sending
    0..k-1 to I_k, so both collapses send variable i < k to block i.
    F^{(0..k-1)} is covariant under every permutation fixing 0..k-1,
    hence symmetric in the other variables, so only how many of those
    land in each block matters: lam_j - 1 to block j < k and lam_j to
    block j >= k under either collapse.
    """
    lam = _as_partition(lam)
    sys = table.system
    if lam.n != sys.n:
        raise ValueError(f"partition of {lam.n} against a system of {sys.n}")
    l = lam.length
    if l > sys.d:
        raise ValueError(f"chain length {l} exceeds degree {sys.d}")
    target = list(range(l)) + [j for j, part in enumerate(lam)
                               for _ in range(part - 1)]
    return tuple(table.relabeler(k)(target, l) for k in range(1, l + 1))


@dataclass(frozen=True)
class FactoredResultant:
    """A resultant as prefactor times a product of factor powers.

    ``partitions`` labels the factors, one partition per factor in the
    same order.
    """

    prefactor: Coefficient
    factors: Tuple[Tuple[Coefficient, int], ...]
    partitions: Tuple[Partition, ...]

    def __post_init__(self):
        if any(mult < 1 for _, mult in self.factors):
            raise ValueError("multiplicities must be positive")
        if len(self.partitions) != len(self.factors):
            raise ValueError("one partition per factor expected")

    def expand(self) -> Coefficient:
        out = self.prefactor
        for value, mult in self.factors:
            out = out * value ** mult
        return out


def decompose_resultant(system: EquivariantSystem) -> FactoredResultant:
    """Factor the resultant of an equivariant system partitionwise.

    Every partition of n with at most d parts contributes its chain
    resultant with multiplicity m_lambda, in the enumeration order of
    the partitions.  For d < n the top divided-difference constant
    enters with exponent m_zero_resultant(n, d); for d >= n the
    prefactor is 1.  The table is filled lazily, so only the divided
    differences the chains and the top constant read are computed.
    """
    n, d = system.n, system.d
    table = DividedDifferenceTable(system)
    if d < n:
        prefactor = table.top_constant() ** m_zero_resultant(n, d)
    else:
        prefactor = system.ring.one()
    lams = tuple(partitions(n, max_length=d))
    factors = tuple((resultant(specialize_chain(table, lam)),
                     m_lambda(lam)) for lam in lams)
    return FactoredResultant(prefactor, factors, lams)


@dataclass(frozen=True)
class VerificationReport:
    equal: bool
    factored: FactoredResultant
    expanded: Coefficient
    direct: Coefficient


def verify_decomposition(system: EquivariantSystem) -> VerificationReport:
    """Expand the decomposition and compare with the direct resultant."""
    factored = decompose_resultant(system)
    expanded = factored.expand()
    direct = macaulay_resultant(system.polys)
    return VerificationReport(expanded == direct, factored, expanded, direct)


@dataclass(frozen=True)
class AveragingReport:
    """Outcome of the summed-chain identity for one partition.

    ``summed`` is the resultant of the order-k sums of specialized
    divided differences (the last slot keeps the single top entry);
    it equals ``constant * chain``.  ``averaged`` is the resultant of
    the sums divided by their binomial counts, present only when those
    divisions are exact over the integers.
    """

    lam: Partition
    summed: Coefficient
    constant: int
    chain: Coefficient
    averaged: Optional[Coefficient]


def averaged_chain_resultant(system: EquivariantSystem,
                             lam) -> AveragingReport:
    """Resultant of the symmetrized specialized system for one partition.

    Summing the specialized divided differences of each order k < l
    multiplies the chain resultant by prod binom(l,k)^e_k with
    e_k = d(d-1)...(d-l+1)/(d-k+1); the equality is recomputed here and
    a mismatch raises ArithmeticError.  Each F_lambda^J is obtained as
    rho_lambda(F^{I_J}) for I_J the block leads selected by J, which
    sidesteps divided differences of the (generally non-equivariant)
    specialized system.
    """
    lam = _as_partition(lam)
    n, d = system.n, system.d
    if lam.n != n:
        raise ValueError(f"partition of {lam.n} against a system of {n}")
    l = lam.length
    if l > min(d, n):
        raise ValueError(f"need l(lam) <= min(d, n) = {min(d, n)}")
    table = DividedDifferenceTable(system)
    leads = block_leads(lam)
    summed_polys = []
    for k in range(1, l + 1):
        total = Polynomial.zero(system.ring, l, d - k + 1)
        for J in combinations(range(l), k):
            subset = tuple(leads[j] for j in J)
            total = total + rho_lambda(table.divided_difference(subset), lam)
        summed_polys.append(total)
    summed = macaulay_resultant(summed_polys)
    chain = macaulay_resultant(specialize_chain(table, lam))
    constant = 1
    for k in range(1, l):
        constant *= comb(l, k) ** falling_quotient(d, l, k)
    if summed != chain * constant:
        raise ArithmeticError(
            f"summed-chain identity failed for {lam}: "
            f"constant {constant} does not relate the two resultants")
    averaged = None
    try:
        scaled = [p.exact_div(Polynomial.constant(p.ring, p.ambient,
                                                  comb(l, k)))
                  for k, p in enumerate(summed_polys, start=1)]
    except NotDivisibleError:
        pass
    else:
        averaged = macaulay_resultant(scaled)
    return AveragingReport(lam, summed, constant, chain, averaged)


_PARAM_LETTERS = "abcdfghijklmpqrstuvw"


def _generic_layout(n: int, d: int):
    """(power of x_i, partition or None) pairs, one per parameter slot.

    The symmetric cofactor of x_i^k runs over the e-basis partitions of
    d - k with parts at most n, innermost-first so that d = 2 reads
    a x^2 + b x e1 + c e1^2 + d e2.
    """
    layout = []
    for k in range(d, -1, -1):
        j = d - k
        if j == 0:
            layout.append((k, None))
            continue
        layout.extend((k, mu) for mu in reversed(basis_partitions(n, j)))
    return layout


def _system_from_first(ring: ParameterRing, n: int, d: int,
                       values) -> EquivariantSystem:
    """The equivariant system whose F^{1} is sum v * x_1^k * e_mu.

    ``values`` holds one coefficient v per slot (k, mu) of
    ``_generic_layout``; zero slots are skipped.  F^{i} is the image of
    F^{1} under the swap of x_1 and x_i.
    """
    first = Polynomial.zero(ring, n, d)
    for (k, mu), v in zip(_generic_layout(n, d), values):
        if v == 0:
            continue
        part = Polynomial.monomial(ring, n, (k,) + (0,) * (n - 1), v)
        if mu:
            part = part * expand_elementary(mu, n, ring)
        first = first + part
    return EquivariantSystem(first.permute(_swap(n, 0, i))
                             for i in range(n))


def generic_equivariant_system(n: int, d: int) -> EquivariantSystem:
    """The universal equivariant system with one symbol per basis term.

    F^{i} = sum over k of x_i^k * S_{d-k} with each symmetric cofactor
    S_j written in the e-basis with fresh parameters.
    """
    count = len(_generic_layout(n, d))
    if count > len(_PARAM_LETTERS):
        names = tuple(f"c{pos}" for pos in range(count))
    else:
        names = tuple(_PARAM_LETTERS[:count])
    ring = ParameterRing(names)
    return _system_from_first(ring, n, d,
                              [ring.parameter(name) for name in names])


def random_integer_equivariant_system(rng, n: int, d: int,
                                      bound: int = 3) -> EquivariantSystem:
    """Random integer specialization of the generic equivariant shape.

    The leading coefficient (on x_i^d) is kept nonzero so the systems
    stay generically nondegenerate.
    """
    values = [rng.randint(-bound, bound) for _ in _generic_layout(n, d)]
    while values[0] == 0:
        values[0] = rng.randint(-bound, bound)
    return _system_from_first(ParameterRing(), n, d, values)
