"""Dense Macaulay resultants over integer parameter rings.

The resultant of n homogeneous polynomials in n variables is computed
by the classical quotient of determinants: both the numerator matrix
and the denominator submatrix are indexed by the monomials of critical
degree t = sum(d_i - 1) + 1, each column holding one shifted input
polynomial.  The quotient is normalized so that the pure power system
x_1^{d_1}, ..., x_n^{d_n} has resultant exactly 1.

The denominator, the small minor on the monomials divisible by two or
more x_i^{d_i}, is computed first; the numerator is only computed once
the denominator is known to be nonzero.  Over the empty parameter ring
every entry is a plain int, as the polynomials store it, and
``determinant`` eliminates on plain ints.

When the denominator determinant vanishes (the formula is degenerate
for the given coefficients even though the resultant itself is fine)
the system is rerun through a deterministic sequence of unimodular
changes of variables, each applied as transvections
x_i -> x_i + c x_j, which leave the resultant unchanged.  Systems
degenerate in every coordinate system fall back to a one-parameter
diagonal perturbation whose value at zero is the resultant.

``resultant`` is the dispatch the decomposition chains go through.
When a system of n >= 3 polynomials ends in a linear form
L = sum c_k y_k, it removes one variable before the Macaulay quotient.
With pivot j (c_j != 0, fewest parameter terms, last on a tie) let
H_i = F_i(y_k -> c_j y_k for k != j, y_j -> -sum_{k != j} c_k y_k), a
system in the n - 1 other variables kept in order.  The coordinate
change has determinant c_j^(n-1) and turns L into c_j y_j, so with
D = prod_{i<n} deg F_i

    Res(F) = (-1)^((n-1-j) D) * Res(H) / c_j^((n-2) D),

the division being exact (Cox, Little and O'Shea, *Using Algebraic
Geometry*, ch. 3).  Any other system goes to ``macaulay_resultant``
unchanged, and that direct quotient stays the oracle.
"""

from __future__ import annotations

import hashlib
import random
from functools import cache
from math import prod
from operator import add
from typing import List, Sequence

from symres.ring import (
    Coefficient,
    Monomial,
    ParameterRing,
    Polynomial,
    determinant,
)

MAX_UNIMODULAR_RETRIES = 5


def monomials_of_degree(ambient: int, degree: int) -> List[Monomial]:
    """All exponent tuples of the given total degree, descending lex."""
    if ambient < 1:
        raise ValueError("need at least one variable")
    if ambient == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(ambient - 1, degree - e):
            out.append((e,) + rest)
    return out


def index_function(exponents: Monomial, degrees: Sequence[int]) -> int:
    """Smallest i with x_i^{d_i} dividing the monomial."""
    for i, (e, d) in enumerate(zip(exponents, degrees)):
        if e >= d:
            return i
    raise ValueError(f"{exponents!r} is reduced for degrees {degrees!r}")


def is_dod(exponents: Monomial, degrees: Sequence[int]) -> bool:
    """Divisible by x_i^{d_i} for at least two distinct i."""
    return sum(e >= d for e, d in zip(exponents, degrees)) >= 2


@cache
def _layout(degrees: tuple):
    """What the Macaulay matrix owes to the degree tuple alone: the
    monomials of critical degree, for each polynomial i a map from each
    monomial of degree d_i to the cells (row * size + column) its
    coefficient fills, and the dod positions."""
    n = len(degrees)
    mons = monomials_of_degree(n, sum(degrees) - n + 1)
    size = len(mons)
    pos = {m: r for r, m in enumerate(mons)}
    cells = [{exp: [] for exp in monomials_of_degree(n, d)}
             for d in degrees]
    for c, beta in enumerate(mons):
        i = index_function(beta, degrees)
        shift = tuple(e - (degrees[i] if j == i else 0)
                      for j, e in enumerate(beta))
        for exp, spots in cells[i].items():
            spots.append(pos[tuple(map(add, shift, exp))] * size + c)
    dod = [r for r, m in enumerate(mons) if is_dod(m, degrees)]
    return mons, cells, dod


def macaulay_data(polys: Sequence[Polynomial]):
    """The Macaulay matrix, its monomial index, and the dod positions.

    Row and column r both correspond to the r-th monomial of degree t
    in descending lex order; column beta holds the coefficients of
    (x^beta / x_i^{d_i}) * f_i for i the index function of beta.  The
    entries are the coefficients as the polynomials store them: ints
    over Z, Coefficients over Z[params].  The layout is computed once
    per degree tuple, so a call only fills the entries; the lists it
    returns are its own.
    """
    mons, cells, dod = _layout(tuple(p.degree for p in polys))
    size = len(mons)
    ring = polys[0].ring
    flat = [ring.zero() if ring.params else 0] * (size * size)
    for p, spots in zip(polys, cells):
        for exp, coeff in p.stored_terms.items():
            for cell in spots[exp]:
                flat[cell] = coeff
    rows = [flat[r:r + size] for r in range(0, size * size, size)]
    return rows, list(mons), list(dod)


def _validate_system(polys: Sequence[Polynomial]) -> None:
    n = len(polys)
    if n == 0:
        raise ValueError("empty system")
    ring = polys[0].ring
    for p in polys:
        if p.ambient != n:
            raise ValueError(
                f"{n} polynomials need ambient {n}, got {p.ambient}")
        if p.ring != ring:
            raise ValueError("mixed parameter rings")
        if p.degree < 1:
            raise ValueError("degrees must be at least 1")


def _fingerprint(polys: Sequence[Polynomial]) -> bytes:
    parts = []
    for p in polys:
        parts.append(f"deg {p.degree}")
        terms = p.terms
        for exp in sorted(terms):
            c = terms[exp]
            body = ";".join(f"{pe}:{v}" for pe, v in sorted(c.terms.items()))
            parts.append(f"{exp}|{body}")
    return "\n".join(parts).encode()


def _sheared(polys: Sequence[Polynomial], rng: random.Random):
    """The system F(Ax) under a random determinant-one integer shear A.

    A = E_m ... E_1 is built from the identity by row operations
    E: row i += c * row j, E_1 drawn first, so F(Ax) applies the
    transvection x_i -> x_i + c x_j of E_m first.
    """
    n = len(polys)
    ops = []
    for _ in range(n + 2):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i != j:
            ops.append((i, j, rng.choice((-2, -1, 1, 2))))
    for i, j, c in reversed(ops):
        polys = [p.transvect(i, j, c) for p in polys]
    return polys


def _try_quotient(polys: Sequence[Polynomial]):
    """The Macaulay quotient, or None when its denominator vanishes.

    The small dod minor is tested first, so a degenerate attempt never
    pays for the full numerator determinant.
    """
    rows, _, dod = macaulay_data(polys)
    if dod:
        den = determinant([[rows[r][c] for c in dod] for r in dod])
        if not den:
            return None
    value = determinant(rows)
    if isinstance(value, int):
        value = polys[0].ring.constant(value)
    return value.exact_div(den) if dod else value


def _perturbed_resultant(polys: Sequence[Polynomial]) -> Coefficient:
    """Res(F) as the constant term of Res(F + eps * x_i^{d_i}).

    The pure power x_i^{d_i} lands exactly on the diagonal of the
    Macaulay matrix, so both determinants are monic in eps and the
    quotient is an honest polynomial in eps; its value at eps = 0 is
    the resultant.  Handles systems where numerator and denominator
    both vanish identically (e.g. a common root of high multiplicity),
    which no change of variables can repair.
    """
    ring = polys[0].ring
    name = "eps"
    while name in ring.params:
        name += "_"
    ext = ParameterRing(ring.params + (name,))
    n = len(polys)
    lifted = []
    for i, p in enumerate(polys):
        terms = {exp: ext.coefficient(
                    {m + (0,): v for m, v in c.terms.items()})
                 for exp, c in p.terms.items()}
        eps = ext.parameter(name)
        power = tuple(p.degree if j == i else 0 for j in range(n))
        lifted.append(Polynomial(ext, n, p.degree, terms)
                      + Polynomial.monomial(ext, n, power, eps))
    num = _try_quotient(lifted)
    assert num is not None, "a denominator monic in eps cannot vanish"
    at_zero = {m[:-1]: v for m, v in num.terms.items() if m[-1] == 0}
    return ring.coefficient(at_zero)


def macaulay_resultant(polys: Sequence[Polynomial]) -> Coefficient:
    """The resultant of n homogeneous polynomials in n variables.

    Exact over Z[params].  Returns zero when an input polynomial is
    identically zero.  When the quotient formula degenerates the system
    is retried under unimodular changes of variables, and if those all
    fail (both determinants identically zero) the answer comes from a
    diagonal perturbation instead.
    """
    _validate_system(polys)
    ring = polys[0].ring
    if any(p.is_zero() for p in polys):
        return ring.zero()
    value = _try_quotient(polys)
    if value is not None:
        return value
    base = _fingerprint(polys)
    for attempt in range(MAX_UNIMODULAR_RETRIES):
        seed = int.from_bytes(
            hashlib.sha256(base + b"#%d" % attempt).digest()[:8], "big")
        value = _try_quotient(_sheared(polys, random.Random(seed)))
        if value is not None:
            return value
    return _perturbed_resultant(polys)


def _linear_pivot(coeffs: Sequence[Coefficient]) -> int:
    """Index of the nonzero coefficient with the fewest parameter terms,
    the last such index on a tie."""
    return min((k for k, c in enumerate(coeffs) if not c.is_zero()),
               key=lambda k: (len(coeffs[k].terms), -k))


def resultant(polys: Sequence[Polynomial]) -> Coefficient:
    """The resultant, with a trailing linear form eliminated first.

    Systems of at least three polynomials whose last entry has degree
    one are reduced to n - 1 variables as the module docstring
    describes; everything else is ``macaulay_resultant`` itself.
    """
    if len(polys) < 3 or polys[-1].degree != 1 \
            or any(p.is_zero() for p in polys):
        return macaulay_resultant(polys)
    _validate_system(polys)
    n = len(polys)
    ring = polys[0].ring
    coeffs = [polys[-1].coefficient_of(tuple(int(i == k) for i in range(n)))
              for k in range(n)]
    j = _linear_pivot(coeffs)
    pivot = coeffs[j]
    kept = [k for k in range(n) if k != j]
    zs = [Polynomial.variable(ring, n - 1, i) for i in range(n - 1)]
    images = {k: z * pivot for k, z in zip(kept, zs)}
    images[j] = sum((z * -coeffs[k] for k, z in zip(kept, zs)),
                    Polynomial.zero(ring, n - 1, 1))
    reduced = [p.substitute(images) for p in polys[:-1]]
    D = prod(p.degree for p in polys[:-1])
    value = macaulay_resultant(reduced).exact_div(pivot ** ((n - 2) * D))
    return -value if (n - 1 - j) * D % 2 else value


def sylvester_matrix(f: Polynomial, g: Polynomial):
    """The (d1+d2)-square Sylvester matrix of two binary forms.

    Row k < d2 holds the coefficients of x1^(d2-1-k) x2^k * f read off
    against the degree-(d1+d2-1) monomials in descending powers of x1;
    the remaining d1 rows hold the shifts of g.
    """
    if f.ambient != 2 or g.ambient != 2:
        raise ValueError("binary forms only")
    if f.ring != g.ring:
        raise ValueError("mixed parameter rings")
    d1, d2 = f.degree, g.degree
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees must be at least 1")
    ring = f.ring
    zero = ring.zero()

    def coeffs(p):
        return [p.coefficient_of((p.degree - k, k))
                for k in range(p.degree + 1)]

    size = d1 + d2
    rows = []
    for k in range(d2):
        row = [zero] * k + coeffs(f)
        rows.append(row + [zero] * (size - len(row)))
    for k in range(d1):
        row = [zero] * k + coeffs(g)
        rows.append(row + [zero] * (size - len(row)))
    return rows


def sylvester_resultant(f: Polynomial, g: Polynomial) -> Coefficient:
    """Resultant of two binary forms by the Sylvester determinant.

    Independent of the Macaulay route (different matrix, same value);
    kept as the n=2 cross-check oracle.
    """
    return determinant(sylvester_matrix(f, g))
