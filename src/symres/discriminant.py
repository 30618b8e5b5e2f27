"""Discriminants of symmetric forms through their partial derivatives.

A homogeneous symmetric polynomial of degree d in n variables is a
Z-linear combination of products e_lambda of elementary symmetric
polynomials, one for each partition lambda of d with parts at most n.
Its partial derivatives form an equivariant system of degree d - 1,
so the partitionwise resultant decomposition applies to them; the
discriminant is the resultant of the partials stripped of the exact
normalizing power d^{a(n,d)} with a(n,d) = ((d-1)^n - (-1)^n)/d.

For d <= n the constant top divided difference of the partials is
(-1)^{d-1} c_(d), which turns the decomposition prefactor into a pure
power of c_(d) carrying a global sign: minus exactly when d = 2 and n
is even.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from symres.combinatorics import Partition, _as_partition, basis_partitions
from symres.divdiff import EquivariantSystem
from symres.equivariant import (
    FactoredResultant,
    decompose_resultant,
    expand_elementary,
)
from symres.resultant import macaulay_resultant
from symres.ring import Coefficient, ParameterRing, Polynomial


def coefficient_name(lam: Partition) -> str:
    """c3, c21, c111, ...; parts of ten or more are underscore-separated."""
    if lam[0] >= 10:
        return "c_" + "_".join(str(p) for p in lam)
    return "c" + "".join(str(p) for p in lam)


@dataclass(frozen=True)
class SymmetricPoly:
    """A symmetric form sum of c_lambda e_lambda of degree d in n variables.

    Coefficients may be plain integers (an empty parameter ring is
    created for them) or Coefficient values over a shared ring.
    """

    n: int
    d: int
    coeffs: Dict[Partition, Coefficient]

    def __post_init__(self):
        if self.n < 2 or self.d < 2:
            raise ValueError("need n >= 2 and d >= 2")
        if not self.coeffs:
            raise ValueError("no coefficients given")
        values = list(self.coeffs.values())
        if all(isinstance(v, int) for v in values):
            ring = ParameterRing(())
        else:
            ring = next(v.ring for v in values if isinstance(v, Coefficient))
        coeffs = {}
        for key, value in self.coeffs.items():
            lam = _as_partition(key)
            if lam.n != self.d:
                raise ValueError(f"{lam} is not a partition of {self.d}")
            if lam[0] > self.n:
                raise ValueError(
                    f"part {lam[0]} exceeds the {self.n} variables")
            if isinstance(value, int):
                value = ring.constant(value)
            elif value.ring != ring:
                raise ValueError("coefficients from mixed parameter rings")
            coeffs[lam] = value
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def generic(cls, n: int, d: int) -> "SymmetricPoly":
        """The universal form over Z[c_lambda], one parameter per basis
        partition in enumeration order (c3, c21, c111 for d = 3)."""
        lams = basis_partitions(n, d)
        ring = ParameterRing(tuple(coefficient_name(lam) for lam in lams))
        return cls(n, d, {lam: ring.parameter(coefficient_name(lam))
                          for lam in lams})

    @property
    def ring(self) -> ParameterRing:
        return next(iter(self.coeffs.values())).ring

    def coefficient(self, lam) -> Coefficient:
        lam = _as_partition(lam)
        return self.coeffs.get(lam, self.ring.zero())

    def expand(self) -> Polynomial:
        total = Polynomial.zero(self.ring, self.n, self.d)
        for lam, c in self.coeffs.items():
            total = total + expand_elementary(lam, self.n, self.ring) * c
        return total


def partial_derivatives(F: SymmetricPoly) -> EquivariantSystem:
    """The n partials of the expanded form, packaged as an equivariant
    system of degree d - 1 (the constructor checks equivariance)."""
    expanded = F.expand()
    return EquivariantSystem([expanded.derivative(i) for i in range(F.n)])


def a_exponent(n: int, d: int) -> int:
    """((d-1)^n - (-1)^n) / d; the division is exact for all n, d >= 2."""
    if n < 2 or d < 2:
        raise ValueError("need n >= 2 and d >= 2")
    q, r = divmod((d - 1) ** n - (-1) ** n, d)
    assert r == 0
    return q


@dataclass(frozen=True)
class DiscriminantResult:
    """Factored form of d^{a(n,d)} Disc(F).

    ``normalized`` is (-1)^sign times the expanded product; for d <= n
    the prefactor of ``factored`` is the pure power c_(d)^{m_0} and the
    sign is n - 1 mod 2 when d = 2, zero otherwise.  ``d`` is the degree
    of the form.
    """

    a: int
    sign: int
    factored: FactoredResultant
    d: int

    def normalized(self) -> Coefficient:
        value = self.factored.expand()
        return -value if self.sign else value

    def value(self) -> int:
        """Disc(F) for integer coefficients: ``normalized`` divided by
        d^a, a remainder raising ArithmeticError."""
        return _strip_scale("factored resultant", self.normalized(),
                            self.d, self.a)


def _strip_scale(what: str, value: Coefficient, d: int, a: int) -> int:
    """The integer ``value`` divided by d^a.  The division is exact by
    the definition of the discriminant, so a remainder can only mean a
    bug upstream; it raises ArithmeticError."""
    q, r = divmod(value.constant_value(), d ** a)
    if r:
        raise ArithmeticError(f"{what} is not divisible by {d}^{a}")
    return q


def discriminant_decomposition(F: SymmetricPoly) -> DiscriminantResult:
    """Factor d^{a(n,d)} Disc(F) over partitions of n.

    This is ``decompose_resultant`` of the partials, which have degree
    d - 1: for d > n every partition of n contributes a specialized
    chain resultant, while for d <= n only partitions shorter than d
    contribute and the prefactor is the top constant (-1)^{d-1} c_(d)
    of the partials to the power m_0 = m_zero_discriminant(n, d).  Its
    sign (-1)^{(d-1) m_0} is minus exactly when ``sign`` is set (d = 2,
    n even); the prefactor is then negated, so it reads c_(d)^{m_0}
    and ``normalized`` carries the global sign.
    """
    n, d = F.n, F.d
    factored = decompose_resultant(partial_derivatives(F))
    sign = (n - 1) % 2 if d == 2 else 0
    if sign:
        factored = replace(factored, prefactor=-factored.prefactor)
    return DiscriminantResult(a_exponent(n, d), sign, factored, d)


def discriminant_value(F: SymmetricPoly) -> int:
    """Disc(F) for integer coefficients, by the direct resultant route.

    Computes the Macaulay resultant of the partials without any
    decomposition and strips the factor d^{a(n,d)}; it is the oracle
    for ``DiscriminantResult.value``, the factored route, and shares its
    checked division.
    """
    if any(not c.is_constant() for c in F.coeffs.values()):
        raise ValueError("integer coefficients required")
    res = macaulay_resultant(partial_derivatives(F).polys)
    return _strip_scale("resultant of the partials", res, F.d,
                        a_exponent(F.n, F.d))
