"""Exact sparse arithmetic for the resultant machinery.

Everything here is integer-exact.  Two layers:

  * ``Coefficient``: an element of Z[p1, ..., pk] where the p's are the
    parameter symbols of a ``ParameterRing``.  Integer systems use the
    empty ring Z, where a Coefficient is one constant term.
  * ``Polynomial``: a homogeneous polynomial in ``ambient`` main variables
    (printed x1..xn) over Z[params].

Both layers store their terms as ``{exponent tuple: coefficient}`` dicts
and share one term kernel, ``_accumulate``, ``_add``, ``_mul`` and
``_divide``; both are true exactly when nonzero, and their arithmetic
results skip the checks of public construction through the private
``_trusted`` constructors.  So do ``substitute``, which computes each
power of an image once per call, ``relabel``, which serves ``permute``
and the blockwise collapse of the decomposition, and ``split_joint``,
which builds the parser's checked lines.

Storage rule: a Polynomial keeps its coefficients privately, in
``_terms``, as elements of its ring: a plain ``int`` over Z and a
``Coefficient`` over Z[params] with parameters.  The kernel runs on
either, so integer systems pay an int operation, not a Coefficient
method call, per coefficient product.  ``Polynomial.stored_terms`` is a
read-only view of them as stored, so the Macaulay matrix of an integer
system is a matrix of ints; ``Polynomial.terms`` is a read-only
Coefficient view (built on access over Z), the accessors return
Coefficients, and public construction takes ints and Coefficients alike.
The term order is plain lexicographic on the exponent tuples; every
Polynomial is homogeneous, so on its terms lex equals graded lex.  Exact
division follows the leading-term division algorithm, which succeeds if
and only if the divisor divides the dividend.

``determinant`` picks one of three routes from the matrix alone: a
matrix of ints is eliminated over plain ints (``_bareiss_int``); a
Coefficient matrix whose Kronecker packing fits in ``PACKED_MAX_BITS``
bits is packed into plain ints, eliminated once by ``_bareiss_int`` and
read back (``_determinant_packed``), and so is a parameter-free one,
whose one-point degree box packs nothing, at any width; any other
symbolic matrix of at most ``MINOR_EXPANSION_MAX_DIM`` = 12 rows goes
to the division-free ``determinant_minors``, and a larger one to the
fraction-free ``determinant_bareiss``.  Both Bareiss loops pivot in
each column on the smallest nonzero entry (fewest bits, or fewest
terms), and packing sizes its digits by Hadamard's bound.  Both caps
are measured.  Packing makes every entry an integer as long as the
determinant's degree box times its coefficient width, so it wins for
few parameters and low degrees and loses badly past the cap.  On
random Macaulay numerators over three parameters minor expansion beat
Bareiss at 12 rows and lost or tied at 14.  ``determinant_cofactor``,
``determinant_minors`` and ``determinant_bareiss`` stay public as test
oracles.

``format_int`` and ``parse_int`` convert ints of any length to and from
decimal text, so messages and reprs never hit Python's int/str digit
limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product
from operator import add, sub
from types import MappingProxyType
from typing import Dict, Mapping, Sequence, Tuple, Union

Monomial = Tuple[int, ...]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VARLIKE_RE = re.compile(r"[xy][0-9]+\Z")
# Below the smallest digit limit Python lets int()/str() be set to (640),
# so every piece converts whatever the interpreter-wide limit is.
_DIGITS_PER_PIECE = 600
_SIGNED_DIGITS_RE = re.compile(r"[+-]?\d+\Z")


def format_int(k: int) -> str:
    """Decimal text of an int of any length.

    ``str`` refuses ints longer than ``sys.get_int_max_str_digits()``;
    longer ones are split at a power of ten into pieces it accepts.
    """
    if k < 0:
        return "-" + format_int(-k)
    digits = int(k.bit_length() * 0.30103) + 1  # within one of the count
    if digits <= _DIGITS_PER_PIECE:
        return str(k)
    low_digits = digits // 2
    high, low = divmod(k, 10 ** low_digits)
    return format_int(high) + format_int(low).zfill(low_digits)


def parse_int(text: str) -> int:
    """``int(text)`` for decimal text of any length."""
    if len(text) <= _DIGITS_PER_PIECE:
        return int(text)
    text = text.strip()
    if not _SIGNED_DIGITS_RE.match(text):
        raise ValueError(f"invalid literal for int(): {text[:20]!r}...")
    if text[0] in "+-":
        value = parse_int(text[1:])
        return -value if text[0] == "-" else value
    low_digits = len(text) // 2
    return (parse_int(text[:-low_digits]) * 10 ** low_digits
            + parse_int(text[-low_digits:]))


class NotDivisibleError(ArithmeticError):
    """Raised when an exact division has a nonzero remainder."""


def _exact(a, b):
    """The checked quotient a/b: ``divmod`` for ints, else ``exact_div``."""
    if isinstance(a, int):
        q, r = divmod(a, b)
        if r:
            raise NotDivisibleError(
                f"{format_int(b)} does not divide {format_int(a)}")
        return q
    return a.exact_div(b)


# -- the term kernel: {exponent tuple: nonzero coefficient} dicts, with int
# coefficients for a Coefficient and for a Polynomial over Z, Coefficients
# for a Polynomial over Z[params].  A product of nonzero coefficients is
# nonzero, so only sums are tested.

def _accumulate(out: dict, items) -> dict:
    """Add each (exponent, coefficient) pair of ``items`` into ``out``."""
    for exp, c in items:
        v = out.get(exp)
        if v is None:
            out[exp] = c
        else:
            v = v + c
            if v:
                out[exp] = v
            else:
                del out[exp]
    return out


def _add(a: dict, b: dict) -> dict:
    return _accumulate(dict(a), b.items())


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            v = out.get(key)
            if v is None:
                out[key] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    out[key] = v
                else:
                    del out[key]
    return out


def _divide(a: dict, b: dict) -> dict:
    """The terms of a/b for term dicts a and b != {}, by leading-term
    division under lex order; raises NotDivisibleError when b does not
    divide a."""
    bexp = max(b)
    bcoef = b[bexp]
    rem = dict(a)
    quo = {}
    while rem:
        rexp = max(rem)
        qexp = tuple(map(sub, rexp, bexp))
        if any(x < 0 for x in qexp):
            raise NotDivisibleError
        qcoef = quo[qexp] = _exact(rem[rexp], bcoef)
        for exp, c in b.items():
            key = tuple(map(add, qexp, exp))
            v = rem.get(key)
            if v is None:
                rem[key] = -(qcoef * c)
            else:
                v = v - qcoef * c
                if v:
                    rem[key] = v
                else:
                    del rem[key]
    return quo


def _power(one, base, n: int):
    """base ** n by square-and-multiply; ``one`` when n is 0."""
    if n < 0:
        raise ValueError("negative power")
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


@dataclass(frozen=True)
class ParameterRing:
    """Ordered list of parameter symbol names; Z when empty."""

    params: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for name in self.params:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid parameter name {name!r}")
            if _VARLIKE_RE.match(name):
                raise ValueError(
                    f"parameter name {name!r} collides with the variable namespace")
            if name in seen:
                raise ValueError(f"duplicate parameter name {name!r}")
            seen.add(name)

    def index(self, name: str) -> int:
        return self.params.index(name)

    def zero(self) -> "Coefficient":
        return Coefficient(self, {})

    def one(self) -> "Coefficient":
        return self.constant(1)

    def constant(self, value: int) -> "Coefficient":
        if value == 0:
            return Coefficient(self, {})
        return Coefficient(self, {(0,) * len(self.params): value})

    def parameter(self, name: str) -> "Coefficient":
        i = self.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(self.params)))
        return Coefficient(self, {exp: 1})

    def coefficient(self, terms: Mapping[Monomial, int]) -> "Coefficient":
        return Coefficient(self, dict(terms))


class Coefficient:
    """Sparse element of Z[params]: parameter exponent tuple -> integer."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ParameterRing, terms: Mapping[Monomial, int]):
        width = len(ring.params)
        clean: Dict[Monomial, int] = {}
        for exp, c in terms.items():
            if c == 0:
                continue
            if len(exp) != width or any(e < 0 for e in exp):
                raise ValueError(f"bad parameter exponent vector {exp!r}")
            clean[exp] = c
        self.ring = ring
        self.terms = clean

    @classmethod
    def _trusted(cls, ring: ParameterRing, terms: Dict[Monomial, int]):
        """Wrap ``terms`` unchecked; arithmetic results are already clean."""
        out = object.__new__(cls)
        out.ring, out.terms = ring, terms
        return out

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * len(self.ring.params): 1}

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> int:
        """The integer value of a constant Coefficient."""
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"not a constant: {self!r}")
        return next(iter(self.terms.values()))

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Coefficient":
        if isinstance(other, Coefficient):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed parameter rings")
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._trusted(self.ring, _add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.ring.zero()
            return self._trusted(self.ring,
                                 {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._trusted(self.ring, _mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self.ring.one(), self, n)

    def exact_div(self, other) -> "Coefficient":
        """Exact quotient self/other in Z[params].

        Leading-term division under the lex order; raises
        NotDivisibleError when the remainder is nonzero.
        """
        other = self._coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot divide by that")
        if not other:
            raise ZeroDivisionError("division by zero Coefficient")
        try:
            return self._trusted(self.ring, _divide(self.terms, other.terms))
        except NotDivisibleError:
            raise NotDivisibleError(
                f"{other!r} does not divide {self!r}") from None

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == self.ring.constant(other).terms
        if not isinstance(other, Coefficient):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        items = ", ".join(f"{e}: {format_int(c)}"
                          for e, c in sorted(self.terms.items(), reverse=True))
        return f"Coefficient<{items or '0'}>"


CoefficientLike = Union[Coefficient, int]


def _element(ring: ParameterRing, value: CoefficientLike):
    """``value`` as a stored Polynomial coefficient of ``ring``: an int
    over Z, a Coefficient over Z[params]."""
    if isinstance(value, Coefficient):
        if value.ring is not ring and value.ring != ring:
            raise ValueError("coefficient from a different parameter ring")
        return value if ring.params else value.terms.get((), 0)
    if not isinstance(value, int):
        raise TypeError(f"coefficient must be an int or a Coefficient, "
                        f"not {type(value).__name__}")
    return ring.constant(value) if ring.params else value


class Polynomial:
    """Homogeneous polynomial in ``ambient`` main variables over Z[params].

    ``terms`` is a read-only view mapping main-variable exponent tuples
    to Coefficients; every exponent tuple sums to ``degree``.  The
    coefficients are stored in ``_terms`` as elements of the ring:
    plain ints over Z, so integer arithmetic builds no Coefficient, and
    Coefficients over Z[params]; ``stored_terms`` reads them as they
    are.  Over Z the ``terms`` view is built on each access, so a reader
    that looks at many terms binds it once.  The zero polynomial has no
    terms and carries a nominal degree that comparisons ignore.
    """

    __slots__ = ("ring", "ambient", "degree", "_terms")

    def __init__(self, ring: ParameterRing, ambient: int, degree: int,
                 terms: Mapping[Monomial, CoefficientLike]):
        if ambient < 1:
            raise ValueError("ambient must be at least 1")
        clean = {}
        for exp, c in terms.items():
            c = _element(ring, c)
            if not c:
                continue
            if len(exp) != ambient or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r}")
            if sum(exp) != degree:
                raise ValueError(
                    f"term {exp!r} breaks homogeneity of degree {degree}")
            clean[exp] = c
        if clean and degree < 0:
            raise ValueError("nonzero polynomial with negative degree")
        self.ring = ring
        self.ambient = ambient
        self.degree = degree
        self._terms = clean

    @classmethod
    def _trusted(cls, ring: ParameterRing, ambient: int, degree: int,
                 terms: dict):
        """Wrap ``terms`` unchecked; arithmetic results are already clean."""
        out = object.__new__(cls)
        out.ring, out.ambient, out.degree, out._terms = \
            ring, ambient, degree, terms
        return out

    @property
    def stored_terms(self) -> Mapping[Monomial, CoefficientLike]:
        """Read-only view: exponent tuple -> nonzero coefficient as
        stored, an int over Z and a Coefficient over Z[params]."""
        return MappingProxyType(self._terms)

    @property
    def terms(self) -> Mapping[Monomial, Coefficient]:
        """Read-only view: exponent tuple -> nonzero Coefficient."""
        if self.ring.params:
            return self.stored_terms
        return MappingProxyType({e: self._coefficient(c)
                                 for e, c in self._terms.items()})

    def _coefficient(self, c) -> Coefficient:
        """A stored coefficient, or 0 for a missing one, as a Coefficient."""
        if isinstance(c, Coefficient):
            return c
        return Coefficient._trusted(self.ring, {(): c} if c else {})

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ring: ParameterRing, ambient: int, degree: int = 0):
        return cls(ring, ambient, degree, {})

    @classmethod
    def constant(cls, ring: ParameterRing, ambient: int,
                 value: CoefficientLike):
        return cls(ring, ambient, 0, {(0,) * ambient: value})

    @classmethod
    def variable(cls, ring: ParameterRing, ambient: int, i: int):
        """The variable x_{i+1} (indices are 0-based throughout the code)."""
        if not 0 <= i < ambient:
            raise ValueError(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(ambient))
        return cls(ring, ambient, 1, {exp: 1})

    @classmethod
    def monomial(cls, ring: ParameterRing, ambient: int, exponents: Monomial,
                 coeff: CoefficientLike = 1):
        return cls(ring, ambient, sum(exponents), {tuple(exponents): coeff})

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient_of(self, exponents: Monomial) -> Coefficient:
        return self._coefficient(self._terms.get(tuple(exponents), 0))

    def as_coefficient(self) -> Coefficient:
        """Extract the Coefficient of a degree-0 polynomial."""
        if self.is_zero():
            return self.ring.zero()
        if self.degree != 0:
            raise ValueError(f"degree {self.degree} polynomial is not a scalar")
        return self._coefficient(self._terms[(0,) * self.ambient])

    def leading_term(self) -> Tuple[Monomial, Coefficient]:
        exp = max(self._terms)
        return exp, self._coefficient(self._terms[exp])

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed parameter rings")
        if self.ambient != other.ambient:
            raise ValueError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}")

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        if self and other and self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}")
        degree = self.degree if self else other.degree
        return Polynomial._trusted(self.ring, self.ambient, degree,
                                   _add(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.ring, self.ambient, self.degree,
                                   {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Coefficient):
            other = _element(self.ring, other)
        if isinstance(other, (int, Coefficient)):
            scaled = {e: c * other for e, c in self._terms.items()}
            return Polynomial._trusted(self.ring, self.ambient, self.degree,
                                       scaled if other else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        return Polynomial._trusted(self.ring, self.ambient,
                                   self.degree + other.degree,
                                   _mul(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(Polynomial.constant(self.ring, self.ambient, 1), self, n)

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Exact quotient self/other; raises NotDivisibleError otherwise.

        Repeatedly cancels the leading term of the remainder against the
        leading term of the divisor.  Coefficient quotients are themselves
        exact divisions in Z[params], so the result is exact end to end.
        """
        if not isinstance(other, Polynomial):
            raise TypeError("divisor must be a Polynomial")
        self._check_compatible(other)
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        try:
            terms = _divide(self._terms, other._terms)
        except NotDivisibleError:
            raise NotDivisibleError(
                f"{other!r} does not divide {self!r}") from None
        return Polynomial._trusted(self.ring, self.ambient,
                                   self.degree - other.degree, terms)

    # -- structural operations --------------------------------------------

    def substitute(self, assignment: Mapping[int, "Polynomial"]):
        """Compose with the given variable images.

        ``assignment`` maps 0-based variable indices to Polynomials over
        self's ring of one common ambient and degree g; the result is
        the homogeneous Polynomial of degree g * self.degree in their
        ambient.  Each power of an image is computed once per call, and
        the terms are summed into one dict.  Raises ValueError for an
        empty assignment and for a variable of self with no image.
        """
        ring = self.ring
        images = list(assignment.values())
        first = images[0] if images else None
        if not images or any(
                not isinstance(v, Polynomial) or v.ambient != first.ambient
                or v.degree != first.degree
                or v.ring is not ring and v.ring != ring
                for v in images):
            raise ValueError("need one or more Polynomial images of one "
                             "ambient and degree over the same ring")
        powers: Dict[Tuple[int, int], Polynomial] = {}
        terms: dict = {}
        for exp, coeff in self._terms.items():
            part = None
            for i, e in enumerate(exp):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        if i not in assignment:
                            raise ValueError(
                                f"no image for variable index {i}")
                        power = powers[i, e] = assignment[i] ** e
                    part = power if part is None else part * power
            if part is None:  # the one term of a constant self
                part = Polynomial.constant(ring, first.ambient, 1)
            _accumulate(terms, ((e, c * coeff)
                                for e, c in part._terms.items()))
        return Polynomial._trusted(ring, first.ambient,
                                   first.degree * self.degree, terms)

    def relabel(self, target: Sequence[int], ambient: int):
        """x_i replaced by y_{target[i]}, in ``ambient`` variables y.

        Terms that land on one monomial are added, so a map that sends
        several variables to one y collapses them.
        """
        if len(target) != self.ambient or any(
                not 0 <= t < ambient for t in target):
            raise ValueError(
                f"not a map of {self.ambient} variables into {ambient}: "
                f"{target!r}")
        images = []
        for exp, c in self._terms.items():
            img = [0] * ambient
            for t, e in zip(target, exp):
                if e:
                    img[t] += e
            images.append((tuple(img), c))
        terms = _accumulate({}, images)
        return Polynomial._trusted(self.ring, ambient, self.degree, terms)

    def permute(self, sigma: Sequence[int]):
        """Apply a variable permutation: x_i is replaced by x_{sigma(i)}."""
        if sorted(sigma) != list(range(self.ambient)):
            raise ValueError(f"not a permutation of the ambient: {sigma!r}")
        return self.relabel(sigma, self.ambient)

    def derivative(self, i: int):
        if not 0 <= i < self.ambient:
            raise ValueError(f"variable index {i} out of range")
        out = {}
        for exp, c in self._terms.items():
            e = exp[i]
            if e:
                key = exp[:i] + (e - 1,) + exp[i + 1:]
                out[key] = c * e
        return Polynomial._trusted(self.ring, self.ambient,
                                   max(self.degree - 1, 0), out)

    def evaluate(self, point: Sequence[int]) -> Coefficient:
        """The value at an integer point, by ``substitute``."""
        if len(point) != self.ambient:
            raise ValueError("point length must equal the ambient")
        return self.substitute(
            {i: Polynomial.constant(self.ring, 1, int(v))
             for i, v in enumerate(point)}).as_coefficient()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring \
                or self.ambient != other.ambient:
            return False
        # zero compares equal to zero regardless of nominal degree
        return self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, self.ambient,
                     tuple(sorted(self._terms.items()))))

    def __repr__(self) -> str:
        items = ", ".join(
            f"{e}: {c!r}" for e, c in sorted(self.terms.items(),
                                             reverse=True))
        return f"Polynomial<n={self.ambient}, d={self.degree}, {items or '0'}>"


def split_joint(value: Coefficient, ambient: int, ring: ParameterRing,
                degree: int) -> Polynomial:
    """The Polynomial over ``ring`` that ``value`` is in the joint ring
    Z[x1..x_ambient, params], whose exponent tuples hold the ``ambient``
    main exponents first.  Nothing is checked: the caller has checked
    that every term has main degree ``degree``."""
    if not ring.params:  # the exponent tuples are the main ones
        return Polynomial._trusted(ring, ambient, degree, dict(value.terms))
    pieces: Dict[Monomial, Dict[Monomial, int]] = {}
    for exp, c in value.terms.items():
        pieces.setdefault(exp[:ambient], {})[exp[ambient:]] = c
    return Polynomial._trusted(
        ring, ambient, degree,
        {mexp: Coefficient._trusted(ring, terms)
         for mexp, terms in pieces.items()})


def _as_rows(m) -> list:
    rows = [list(row) for row in m]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("entries must form a nonempty square array")
    return rows


def determinant_cofactor(m):
    """Exact determinant by first-row cofactor expansion (small dims)."""
    rows = _as_rows(m)

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


def determinant_minors(m):
    """Exact determinant by memoized minor expansion, with no division.

    Walks the columns left to right, keeping the nonzero minor of every
    row subset (a bitmask) on the columns seen so far.  Column k extends
    the minor on rows S by each row r outside S whose entry is nonzero;
    by Laplace expansion along that column the sign is the parity of the
    rows of S below r.  Only +, *, unary - and zero tests are used
    (Gentleman and Johnson, ACM TOMS 2(3), 1976).
    """
    rows = _as_rows(m)
    n = len(rows)
    minors = {1 << r: row[0] for r, row in enumerate(rows) if row[0]}
    for k in range(1, n):
        column = [(r, 1 << r, row[k]) for r, row in enumerate(rows)
                  if row[k]]
        nxt = {}
        for mask, minor in minors.items():
            for r, bit, entry in column:
                if mask & bit:
                    continue
                term = minor * entry
                if (mask >> r).bit_count() & 1:
                    term = -term
                key = mask | bit
                acc = nxt.get(key)
                nxt[key] = term if acc is None else acc + term
        minors = {mask: v for mask, v in nxt.items() if v}
    return minors[(1 << n) - 1] if minors else rows[0][0] * 0


def determinant_bareiss(m):
    """Exact determinant by single-step fraction-free elimination.

    Pivots in each column on the nonzero entry with the fewest terms
    (the fewest bits for an int entry), the first such row on a tie,
    tracking the sign of row swaps: a small pivot keeps every product
    of the next step small.  Every interior division is by the previous
    pivot and is exact, so entries stay in the ring throughout.
    """
    rows = _as_rows(m)
    n = len(rows)
    sign = 1
    for k in range(n - 1):
        heads = [(x.bit_length() if isinstance(x, int) else len(x.terms), i)
                 for i, x in enumerate((row[k] for row in rows[k:]), k) if x]
        if not heads:
            return rows[0][0] * 0
        pivot_row = min(heads)[1]
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot = rows[k][k]
        prev = rows[k - 1][k - 1] if k else None
        # scale = pivot/prev; rows with a zero head are only rescaled, so
        # when the scale is 1 they can be skipped outright
        scale_is_one = pivot == prev if prev is not None else pivot == 1
        for i in range(k + 1, n):
            head = rows[i][k]
            head_zero = not head
            if head_zero and scale_is_one:
                continue
            row_i, row_k = rows[i], rows[k]
            for j in range(k + 1, n):
                a = row_i[j]
                if head_zero:
                    if not a:
                        continue
                    elt = pivot * a
                else:
                    b = row_k[j]
                    if not a and not b:
                        continue
                    elt = pivot * a - head * b
                if prev is not None:
                    elt = _exact(elt, prev)
                row_i[j] = elt
    return rows[n - 1][n - 1] if sign > 0 else -rows[n - 1][n - 1]


def _bareiss_int(rows: list) -> int:
    """``determinant_bareiss`` on rows of plain ints, overwriting them.

    Each column pivots on its nonzero entry of fewest bits, the first
    such row on a tie: a packed matrix holds entries of a few bits next
    to ones of thousands, and every product of the step, and so every
    later entry, grows with the pivot.  The pivot is searched in its
    column only; a full search costs more than it saves on wide int
    matrices.  Zero entries are skipped.  While the pivot equals the
    previous one the scale is 1, so rows with a zero head keep their
    values and the others change only where the pivot row is nonzero.
    Every division is still checked.
    """
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        heads = [(x.bit_length(), i)
                 for i, x in enumerate((row[k] for row in rows[k:]), k) if x]
        if not heads:
            return 0
        i = min(heads)[1]
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        row_k = rows[k]
        pivot = row_k[k]
        cols = range(k + 1, n)
        if pivot == prev:
            support = [j for j in cols if row_k[j]]
            for row_i in rows[k + 1:]:
                head = row_i[k]
                if head:
                    for j in support:
                        q, r = divmod(head * row_k[j], prev)
                        if r:
                            raise NotDivisibleError(
                                f"{format_int(prev)} does not divide "
                                f"{format_int(head * row_k[j])}")
                        row_i[j] -= q
        else:
            for row_i in rows[k + 1:]:
                head = row_i[k]
                for j in cols:
                    a = row_i[j]
                    if a or head and row_k[j]:
                        elt = pivot * a - head * row_k[j]
                        q, r = divmod(elt, prev)
                        if r:
                            raise NotDivisibleError(
                                f"{format_int(prev)} does not divide "
                                f"{format_int(elt)}")
                        row_i[j] = q
        prev = pivot
    last = rows[n - 1][n - 1]
    return last if sign > 0 else -last


# Largest symbolic matrix sent to minor expansion.  On random binary
# Macaulay numerators over three parameters, entries of degree at most 1
# (single runs, pure CPython), it beat Bareiss at 12 rows, 5.2 s against
# 8.3 s dense and 0.7 s against 1.7 s sparse for degrees (7, 5); at 14
# rows, degrees (7, 7), it lost dense, 34.4 s against 27.0 s, and tied
# sparse, 5.8 s against 6.3 s.  The sparse 15-row ternary numerators
# past the packing cap took 0.10 s and 1.5 s on Bareiss against 3.8 s
# and 9.0 s.
MINOR_EXPANSION_MAX_DIM = 12

# Longest Kronecker packing, in bits, sent to one int elimination.  Timed
# against minor expansion and Bareiss on every symbolic determinant of the
# tests and of the benchmark workloads (pure CPython).  Up to 24.4k bits
# packing was faster on all of 6 rows or more but a 12-row diagonal
# (2 ms slower), and at most 1.5 ms slower on fewer rows: a two-parameter
# 15-row Macaulay numerator went from 0.08 s to 0.007 s, a 56-row
# perturbation over Z[eps] from 4.3 s to 0.08 s.  From 57k bits up it
# lost on all: five-row chains over 5-7 parameters went from
# 0.002-0.007 s to 0.05-0.7 s, a three-parameter 15-row numerator of
# 137k bits from 0.10 s to 2.4 s.
PACKED_MAX_BITS = 1 << 15


def _determinant_packed(rows: list):
    """The determinant by Kronecker substitution, or None when the
    entries are not Coefficients of one ring or the packing is longer
    than ``PACKED_MAX_BITS``.

    D_i, the sum over rows of each row's largest exponent of t_i (or
    the same sum over columns, whichever is smaller), bounds the degree
    of the determinant in t_i.  With N the l1-norm of an entry, B, the
    square root (rounded up) of the product over rows of each row's sum
    of N^2 (or the same over columns, whichever is smaller), bounds
    every coefficient: on the unit torus each entry has modulus at most
    N, so the determinant has modulus at most B (Hadamard), and by
    Parseval no coefficient exceeds that maximum.  Every coefficient is
    then a signed digit of K = B.bit_length() + 1 bits.  With
    t_i = 2^(K s_i), s_1 = 1 and s_(i+1) = s_i (D_i + 1), each exponent
    in the degree box owns its own digit, and the int determinant read
    back in signed K-bit digits is the polynomial one (von zur Gathen and
    Gerhard, *Modern Computer Algebra*, 8.4).  A value outside the box
    raises ArithmeticError.  A parameter-free matrix has the one-point
    box: its entries pack to themselves, so the cap does not apply.
    """
    first = rows[0][0]
    if not isinstance(first, Coefficient):
        return None
    ring = first.ring
    if any(not isinstance(x, Coefficient) or x.ring is not ring
           and x.ring != ring for row in rows for x in row):
        return None
    squares = [[sum(map(abs, x.terms.values())) ** 2 for x in row]
               for row in rows]
    square_bound = min(math.prod(map(sum, squares)),
                       math.prod(map(sum, zip(*squares))))
    if not square_bound:
        return ring.zero()
    bound = math.isqrt(square_bound - 1) + 1
    # each entry's largest exponent of every parameter
    flat = (0,) * len(ring.params)
    tops = [[tuple(map(max, zip(flat, *x.terms))) for x in row]
            for row in rows]

    def degree_sums(lines):
        return [sum(col) for col in zip(*(map(max, zip(*line))
                                          for line in lines))]

    sizes = [min(a, b) + 1
             for a, b in zip(degree_sums(tops), degree_sums(zip(*tops)))]
    k = bound.bit_length() + 1
    length = math.prod(sizes)
    if length > 1 and k * length > PACKED_MAX_BITS:
        return None
    shifts = [k]
    for size in sizes[:-1]:
        shifts.append(shifts[-1] * size)
    packed = _bareiss_int(
        [[sum(c << sum(e * s for e, s in zip(exp, shifts))
              for exp, c in x.terms.items()) for x in row] for row in rows])
    half = 1 << (k - 1)
    mask = (1 << k) - 1
    # adding half to every digit makes them all nonnegative
    rest = packed + half * (((1 << k * length) - 1) // mask)
    if rest < 0 or rest >> k * length:
        raise ArithmeticError("packed determinant outside its degree box")
    terms = {}
    for exp in product(*map(range, reversed(sizes))):
        digit = (rest & mask) - half
        rest >>= k
        if digit:
            terms[exp[::-1]] = digit
    return Coefficient(ring, terms)


def determinant(m):
    """Exact determinant, the one entry point for matrices of any ring.

    The branch is chosen from the matrix alone:

      1. A matrix of plain ints is eliminated by ``_bareiss_int`` and
         its value is an int.
      2. A Coefficient matrix whose Kronecker packing (degree box times
         coefficient width) has at most ``PACKED_MAX_BITS`` bits is
         packed into plain ints, eliminated once by ``_bareiss_int``
         and unpacked by ``_determinant_packed``.  Past that cap the
         big-int products cost more than the symbolic routes.  A
         parameter-free Coefficient matrix has a one-point degree box,
         packs nothing and always takes this route.
      3. Other matrices with at most ``MINOR_EXPANSION_MAX_DIM`` rows use
         the division-free ``determinant_minors``, and larger ones
         ``determinant_bareiss``, whose exact divisions cost less than
         the 2^dim row subsets of minor expansion there.
    """
    rows = _as_rows(m)
    if all(isinstance(x, int) for row in rows for x in row):
        return _bareiss_int(rows)
    packed = _determinant_packed(rows)
    if packed is not None:
        return packed
    if len(rows) <= MINOR_EXPANSION_MAX_DIM:
        return determinant_minors(rows)
    return determinant_bareiss(rows)
