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
canonical and the second its image under the swap s of x_p and x_q, so
F^I = (P - s(P)) / (x_q - x_p) for the canonical P, which
``Polynomial.divided_difference`` forms term by term with no division.
The bordered Vandermonde determinant route is kept as an independent
cross-check; it only needs the pairwise condition F^{i} - F^{j} in
(x_i - x_j), not full equivariance, which is why it works on plain
polynomial lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    k = 0..n-2, then that F^0 is fixed by the swap (1 2) and the cycle
    (1 2 ... n-1), one check when they coincide (n = 3) and none for
    n = 2: n - 1 + min(2, n - 2) permutations in all.  That suffices.
    F^i is the image of F^0 under pi_i = s_{i-1}...s_0, which takes 0
    to i, and the two generate the stabilizer of 0, the symmetric group
    on 1..n-1, which therefore fixes F^0.  For any sigma,
    pi_{sigma(i)}^{-1} sigma pi_i fixes 0, so
    sigma(F^i) = sigma pi_i(F^0) = pi_{sigma(i)}(F^0) = F^{sigma(i)}.
    When a generator moves F^0, so does some swap s_k with k >= 1, as
    those generate the same group, and the first such k is reported.
    Each permutation is compared in place, by
    ``Polynomial.permutes_to``: every permuted exponent tuple is looked
    up in the other polynomial's terms, and no permuted copy is built.
    """
    n, first = len(polys), polys[0]
    for k in range(n - 1):
        if not polys[k].permutes_to(_swap(n, k, k + 1), polys[k + 1]):
            return EquivarianceReport(False, (k, k + 1), k)
    generators = {(0, 2, 1, *range(3, n)), (0, *range(2, n), 1)} \
        if n > 2 else ()
    if all(first.permutes_to(sigma, first) for sigma in generators):
        return EquivarianceReport(True)
    k = next(k for k in range(1, n - 1)
             if not first.permutes_to(_swap(n, k, k + 1), first))
    return EquivarianceReport(False, (k, k + 1), 0)


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

    The cache holds only the canonical subsets (0..k-1), each one
    ``Polynomial.divided_difference(k - 1, k - 2)`` of the entry of
    order k - 1, which covariance makes the recurrence step: the system
    was checked equivariant when it was built.  Every other subset I of
    size k is read off by covariance as the canonical value under the
    permutation I + rest, rest the complement of I in increasing order.
    The table is filled lazily, so the decomposition pipeline computes
    only the orders it reads, and ``relabeler`` finds the supports of
    each canonical entry once for all the chains that collapse it.
    """

    def __init__(self, system: EquivariantSystem):
        self.system = system
        self._cache: Dict[Tuple[int, ...], Polynomial] = {}
        self._relabelers: Dict[int, Callable[..., Polynomial]] = {}

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
            value = self._cache[head] = self.divided_difference(
                head[:-1]).divided_difference(k - 1, k - 2)
        if I == head:
            return value
        chosen = set(I)
        rest = tuple(i for i in range(sys.n) if i not in chosen)
        return value.permute(I + rest)

    def relabeler(self, k: int) -> Callable[..., Polynomial]:
        """``Polynomial.relabeler`` of the canonical F^{(0..k-1)}, made
        once per table."""
        fn = self._relabelers.get(k)
        if fn is None:
            fn = self._relabelers[k] = self.divided_difference(
                range(k)).relabeler()
        return fn

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
