"""Divided differences of S_n-equivariant homogeneous systems.

A system F^{1}, ..., F^{n} (all homogeneous of degree d in n variables)
is equivariant when sigma(F^{i}) = F^{sigma(i)} for every permutation
sigma.  Such systems admit higher divided differences F^I, one for each
nonempty subset I of variable indices, with deg F^I = d - |I| + 1 and
F^I = 0 once |I| exceeds d + 1.  They are covariant,
F^{sigma(I)} = sigma(F^I), so one divided difference per order, on the
canonical subset (1..k), determines all the others.  It comes from the
recurrence that peels off the two largest indices,

    F^I = (F^{I minus p} - F^{I minus q}) / (x_q - x_p)

with p = k and q = k - 1; both inputs have order k - 1, the first is
canonical and the second its image under a permutation.  The bordered
Vandermonde determinant route is kept as an independent cross-check; it
only needs the pairwise condition F^{i} - F^{j} in (x_i - x_j), not full
equivariance, which is why it works on plain polynomial lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from symres.ring import (
    Coefficient,
    ParameterRing,
    Polynomial,
    determinant,
)


class EquivarianceError(ValueError):
    """The input system is not S_n-equivariant."""


@dataclass(frozen=True)
class EquivarianceReport:
    """Outcome of the adjacent-transposition check.

    When ``ok`` is false, swapping variables ``transposition`` (0-based)
    in polynomial ``index`` fails to land on its image.
    """

    ok: bool
    transposition: Optional[Tuple[int, int]] = None
    index: Optional[int] = None

    def describe(self) -> str:
        if self.ok:
            return "equivariant"
        i, j = self.transposition
        target = j if self.index == i else (i if self.index == j else self.index)
        return (f"swapping x{i + 1} and x{j + 1} does not map polynomial "
                f"{self.index + 1} to polynomial {target + 1}")


def _swap(n: int, i: int, j: int) -> List[int]:
    """The permutation of 0..n-1 that exchanges i and j."""
    sigma = list(range(n))
    sigma[i], sigma[j] = j, i
    return sigma


def check_equivariance(polys: Sequence[Polynomial]) -> EquivarianceReport:
    """Verify sigma(F^i) = F^{sigma(i)} for every permutation sigma.

    With s_k the swap of k and k + 1, it checks s_k(F^k) = F^{k+1} for
    k = 0..n-2, then s_k(F^0) = F^0 for k = 1..n-2: 2n - 3 permutations
    in all.  That suffices.  F^i is the image of F^0 under
    pi_i = s_{i-1}...s_0, which takes 0 to i, and the swaps s_1..s_{n-2}
    generate the stabilizer of 0, which fixes F^0.  For any sigma,
    pi_{sigma(i)}^{-1} sigma pi_i fixes 0, so
    sigma(F^i) = sigma pi_i(F^0) = pi_{sigma(i)}(F^0) = F^{sigma(i)}.
    Each swap is compared in place, by ``Polynomial.permutes_to``: every
    swapped exponent tuple is looked up in the other polynomial's terms,
    and no permuted copy is built.
    """
    n = len(polys)
    for k in range(n - 1):
        if not polys[k].permutes_to(_swap(n, k, k + 1), polys[k + 1]):
            return EquivarianceReport(False, (k, k + 1), k)
    for k in range(1, n - 1):
        if not polys[0].permutes_to(_swap(n, k, k + 1), polys[0]):
            return EquivarianceReport(False, (k, k + 1), 0)
    return EquivarianceReport(True)


class EquivariantSystem:
    """An equivariant tuple of n homogeneous degree-d polynomials."""

    __slots__ = ("n", "d", "polys", "ring")

    def __init__(self, polys: Sequence[Polynomial]):
        polys = tuple(polys)
        if len(polys) < 2:
            raise ValueError("need at least two polynomials")
        n = len(polys)
        ring = polys[0].ring
        degrees = {p.degree for p in polys if not p.is_zero()}
        if len(degrees) > 1:
            raise ValueError(f"mixed degrees {sorted(degrees)}")
        d = degrees.pop() if degrees else polys[0].degree
        if d < 1:
            raise ValueError("degree must be at least 1")
        for p in polys:
            if p.ambient != n:
                raise ValueError(
                    f"ambient {p.ambient} does not match system size {n}")
            if p.ring != ring:
                raise ValueError("mixed parameter rings")
        report = check_equivariance(polys)
        if not report.ok:
            raise EquivarianceError(report.describe())
        self.n = n
        self.d = d
        self.polys = polys
        self.ring = ring


def _clean_indices(indices: Iterable[int], n: int) -> Tuple[int, ...]:
    out = tuple(sorted(indices))
    if not out:
        raise ValueError("empty index subset")
    if len(set(out)) != len(out):
        raise ValueError(f"repeated indices in {out!r}")
    if out[0] < 0 or out[-1] >= n:
        raise ValueError(f"indices {out!r} outside 0..{n - 1}")
    return out


def vandermonde_product(ring: ParameterRing, ambient: int,
                        indices: Sequence[int]) -> Polynomial:
    """Product of (x_r - x_s) over index pairs s < r, in subset order."""
    out = Polynomial.constant(ring, ambient, 1)
    for pos, r in enumerate(indices):
        for s in indices[:pos]:
            out = out * (Polynomial.variable(ring, ambient, r)
                         - Polynomial.variable(ring, ambient, s))
    return out


def divided_difference_determinant(polys: Sequence[Polynomial],
                                   indices: Iterable[int]) -> Polynomial:
    """Divided difference via the bordered Vandermonde determinant.

    Rows run over the chosen indices i: [1, x_i, ..., x_i^(k-2), F^{i}];
    the determinant is divisible by the Vandermonde product of the
    selected variables and the quotient is the divided difference.
    Works for any polynomial list satisfying the pairwise divisibility
    condition; raises NotDivisibleError otherwise.
    """
    n = len(polys)
    I = _clean_indices(indices, n)
    if len(I) == 1:
        return polys[I[0]]
    ring = polys[0].ring
    ambient = polys[0].ambient
    k = len(I)
    one = Polynomial.constant(ring, ambient, 1)
    rows = []
    for i in I:
        xi = Polynomial.variable(ring, ambient, i)
        rows.append([one] + [xi ** j for j in range(1, k - 1)] + [polys[i]])
    bordered = determinant(rows)
    return bordered.exact_div(vandermonde_product(ring, ambient, I))


class DividedDifferenceTable:
    """Divided differences of one equivariant system, one per order.

    The cache holds only the canonical subsets (0..k-1), each computed by
    one recurrence step; every other subset I of size k is read off by
    covariance as the canonical value under the permutation I + rest,
    rest the complement of I in increasing order.  The table is filled
    lazily, so the decomposition pipeline computes only the orders it
    reads.
    """

    def __init__(self, system: EquivariantSystem):
        self.system = system
        self._cache: Dict[Tuple[int, ...], Polynomial] = {}

    def cached_subsets(self) -> List[Tuple[int, ...]]:
        return sorted(self._cache)

    def divided_difference(self, indices: Iterable[int]) -> Polynomial:
        """The divided difference F^I for a subset I of 0-based indices."""
        sys = self.system
        I = _clean_indices(indices, sys.n)
        k = len(I)
        if k == 1:
            return sys.polys[I[0]]
        if k > sys.d + 1:
            return Polynomial.zero(sys.ring, sys.n, sys.d - k + 1)
        head = tuple(range(k))
        value = self._cache.get(head)
        if value is None:
            value = self._recurrence_step(head, k - 1, k - 2)
            self._cache[head] = value
        if I == head:
            return value
        chosen = set(I)
        rest = tuple(i for i in range(sys.n) if i not in chosen)
        return value.permute(I + rest)

    def _recurrence_step(self, I: Tuple[int, ...], p: int,
                         q: int) -> Polynomial:
        sys = self.system
        left = self.divided_difference(tuple(i for i in I if i != p))
        right = self.divided_difference(tuple(i for i in I if i != q))
        xq = Polynomial.variable(sys.ring, sys.n, q)
        xp = Polynomial.variable(sys.ring, sys.n, p)
        return (left - right).exact_div(xq - xp)

    def freeze(self) -> "DividedDifferenceTable":
        """Compute the canonical entry of each order 2..min(d + 1, n)."""
        sys = self.system
        for size in range(2, min(sys.d + 1, sys.n) + 1):
            self.divided_difference(range(size))
        return self

    def top_constant(self) -> Coefficient:
        """The common value of all order-(d+1) divided differences.

        Only defined when n >= d + 1.  Covariance makes every subset of
        size d + 1 carry the same constant, so the canonical one is read.
        """
        sys = self.system
        if sys.n < sys.d + 1:
            raise ValueError(
                f"need n >= d + 1 for a constant (n={sys.n}, d={sys.d})")
        return self.divided_difference(range(sys.d + 1)).as_coefficient()


def divided_difference_recursive(table: DividedDifferenceTable,
                                 indices: Iterable[int], p: int,
                                 q: int) -> Polynomial:
    """One recurrence step with an arbitrary admissible pair p != q in I.

    Exposed separately from the canonical cached path so the choice
    independence of the recurrence can be exercised directly.
    """
    sys = table.system
    I = _clean_indices(indices, sys.n)
    if len(I) < 2:
        raise ValueError("recurrence needs at least two indices")
    if p == q or p not in I or q not in I:
        raise ValueError(f"p={p}, q={q} must be distinct members of {I!r}")
    if len(I) > sys.d + 1:
        return Polynomial.zero(sys.ring, sys.n, sys.d - len(I) + 1)
    return table._recurrence_step(I, p, q)
