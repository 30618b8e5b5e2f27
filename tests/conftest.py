from __future__ import annotations

import random
from operator import add

from symres.combinatorics import (
    chain_coefficient_degree,
    m_lambda,
    partitions,
)
from symres.resultant import index_function, is_dod, monomials_of_degree
from symres.ring import Coefficient, ParameterRing, Polynomial


def random_coefficient(rng: random.Random, ring: ParameterRing,
                       max_degree: int = 2, n_terms: int = 3,
                       bound: int = 6) -> Coefficient:
    width = len(ring.params)
    terms = {}
    for _ in range(n_terms):
        exp = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            if width:
                exp[rng.randrange(width)] += 1
        c = rng.randint(-bound, bound)
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + c
    return Coefficient(ring, terms)


def random_polynomial(rng: random.Random, ring: ParameterRing, ambient: int,
                      degree: int, n_terms: int = 4,
                      bound: int = 6) -> Polynomial:
    terms = {}
    for _ in range(n_terms):
        exp = [0] * ambient
        for _ in range(degree):
            exp[rng.randrange(ambient)] += 1
        key = tuple(exp)
        c = rng.randint(-bound, bound)
        if key in terms:
            terms[key] = terms[key] + c
        else:
            terms[key] = ring.constant(c)
    return Polynomial(ring, ambient, degree, terms)


def random_int_polynomial(rng: random.Random, ambient: int, degree: int,
                          n_terms: int = 4, bound: int = 6) -> Polynomial:
    return random_polynomial(rng, ParameterRing(), ambient, degree,
                             n_terms=n_terms, bound=bound)


# -- slow paths kept as test oracles ---------------------------------------

def determinant_cofactor(m):
    """Exact determinant by first-row cofactor expansion (small dims)."""
    rows = [list(row) for row in m]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("entries must form a nonempty square array")

    def rec(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        acc = None
        for j, entry in enumerate(mat[0]):
            if not entry:
                continue
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            piece = entry * rec(minor)
            if j % 2:
                piece = -piece
            acc = piece if acc is None else acc + piece
        if acc is None:
            return mat[0][0] * 0
        return acc

    return rec(rows)


def degree_identity_check(n: int, d: int) -> bool:
    """Whether the partition factors exhaust the full coefficient degree
    n*d^(n-1) when d >= n (so that no extra constant factor is needed)."""
    if not 2 <= n <= d:
        raise ValueError(f"need 2 <= n <= d, got n={n}, d={d}")
    total = sum(m_lambda(lam) * chain_coefficient_degree(d, lam.length)
                for lam in partitions(n))
    return total == n * d ** (n - 1)


def divided_difference_recursive(table, indices, p: int, q: int):
    """One subtract-and-divide recurrence step,
    F^I = (F^{I minus p} - F^{I minus q}).exact_div(x_q - x_p), for any
    pair p != q in I, both inputs read from ``table``: the slow path
    the table's division-free step is checked against."""
    system = table.system
    I = tuple(sorted(indices))
    if len(I) < 2 or p == q or p not in I or q not in I:
        raise ValueError(f"p={p}, q={q} must be distinct members of {I!r}")
    if len(I) > system.d + 1:
        return Polynomial.zero(system.ring, system.n, system.d - len(I) + 1)
    left = table.divided_difference(tuple(i for i in I if i != p))
    right = table.divided_difference(tuple(i for i in I if i != q))
    xq = Polynomial.variable(system.ring, system.n, q)
    xp = Polynomial.variable(system.ring, system.n, p)
    return (left - right).exact_div(xq - xp)


def leading_term(p: Polynomial):
    """The lex-largest exponent of a nonzero ``p`` and its Coefficient."""
    exp = max(p.terms)
    return exp, p.terms[exp]


def macaulay_data_uncached(polys):
    """The Macaulay matrix, its monomials and dod positions, built from
    nothing on every call: the slow path of the cached layout."""
    degrees = [p.degree for p in polys]
    n = len(polys)
    mons = monomials_of_degree(n, sum(degrees) - n + 1)
    pos = {m: r for r, m in enumerate(mons)}
    ring = polys[0].ring
    zero = ring.zero() if ring.params else 0
    size = len(mons)
    rows = [[zero] * size for _ in range(size)]
    for c, beta in enumerate(mons):
        i = index_function(beta, degrees)
        shift = tuple(e - (degrees[i] if j == i else 0)
                      for j, e in enumerate(beta))
        for exp, coeff in polys[i].stored_terms.items():
            rows[pos[tuple(map(add, shift, exp))]][c] = coeff
    dod = [r for r, m in enumerate(mons) if is_dod(m, degrees)]
    return rows, mons, dod


def unimodular_images(rng: random.Random, polys):
    """Variable images under a random determinant-one integer shear,
    drawn as the retries draw it: the slow path of their transvections,
    to be applied by ``Polynomial.substitute``."""
    n = len(polys)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n + 2):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    ring = polys[0].ring
    xs = [Polynomial.variable(ring, n, j) for j in range(n)]
    return {i: sum((xs[j] * rows[i][j] for j in range(n)),
                   Polynomial.zero(ring, n, 1)) for i in range(n)}
