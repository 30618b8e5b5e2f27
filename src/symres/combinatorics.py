"""Partitions and the multiplicity bookkeeping for the decompositions.

``m_lambda`` counts the ordered set partitions of type lambda; the
``m_zero_*`` exponents are what is left of the total coefficient degree
(n*d^(n-1) for resultants, n*(d-1)^(n-1) for discriminants) after every
partition factor has been accounted for.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True, order=True)
class Partition:
    """A partition written in weakly decreasing order, e.g. (3, 1, 1)."""

    parts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("empty partition")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts!r}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {self.parts!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _as_partition(lam) -> Partition:
    return lam if isinstance(lam, Partition) else Partition(tuple(lam))


def partitions(n: int, max_length: Optional[int] = None) -> List[Partition]:
    """All partitions of n in reverse lexicographic order, (n) first.

    With ``max_length`` only partitions of at most that many parts are
    generated: a prefix whose shortest completion is too long is skipped.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if max_length is not None and max_length < 1:
        raise ValueError("max_length must be at least 1")
    out: List[Partition] = []
    limit = max_length or n
    parts = [n]
    while True:
        out.append(Partition(tuple(parts)))
        # find the rightmost part that can still shrink and leave a short
        # enough completion; rem is the sum of the parts after k
        k = len(parts) - 1
        rem = 0
        while True:
            while k >= 0 and parts[k] == 1:
                k -= 1
                rem += 1
            if k < 0:
                return out
            cap = parts[k] - 1
            rem += 1
            # the greedy refill is the shortest completion of parts[:k] + [cap]
            if k + 1 + -(-rem // cap) <= limit:
                break
            rem += cap
            k -= 1
        parts[k] = cap
        del parts[k + 1:]
        # refill greedily with parts no larger than parts[k]
        while rem:
            take = min(cap, rem)
            parts.append(take)
            rem -= take


def basis_partitions(n: int, d: int) -> List[Partition]:
    """Partitions of d with parts at most n, indexing the e_lambda basis."""
    return [lam for lam in partitions(d) if lam[0] <= n]


def multinomial(lam: Partition) -> int:
    """n! over the product of the factorials of the parts."""
    num = math.factorial(lam.n)
    for p in lam.parts:
        num //= math.factorial(p)
    return num


def m_lambda(lam: Partition) -> int:
    """Number of unordered set partitions of {1..n} with block sizes lambda."""
    count = multinomial(lam)
    for mult in Counter(lam.parts).values():
        count //= math.factorial(mult)
    return count


def falling_quotient(d: int, length: int, j: int) -> int:
    """d(d-1)...(d-length+1)/(d-j+1), formed by dropping the j-th factor
    from the product so the value stays an exact integer."""
    if not 1 <= j <= length <= d:
        raise ValueError(f"need 1 <= j <= length <= {d}")
    prod = 1
    for i in range(length):
        if i != j - 1:
            prod *= d - i
    return prod


def chain_coefficient_degree(d: int, length: int) -> int:
    """Total coefficient degree of a chain resultant of degrees d, d-1, ...,
    d-length+1: the sum of falling_quotient(d, length, j) over all j."""
    if not 1 <= length <= d:
        raise ValueError(f"need 1 <= length <= {d}, got {length}")
    return sum(falling_quotient(d, length, j) for j in range(1, length + 1))


def m_zero_resultant(n: int, d: int) -> int:
    """Exponent of the top divided-difference constant when d < n."""
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    total = n * d ** (n - 1)
    for lam in partitions(n, max_length=d):
        total -= m_lambda(lam) * chain_coefficient_degree(d, lam.length)
    return total


def m_zero_discriminant(n: int, d: int) -> int:
    """Exponent of c_(d) in the discriminant decomposition when d <= n."""
    if not 2 <= d <= n:
        raise ValueError(f"need 2 <= d <= n, got d={d}, n={n}")
    return m_zero_resultant(n, d - 1)
