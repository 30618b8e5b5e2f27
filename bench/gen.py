"""Seeded inputs for the symres benchmark.

Every input is text a user could write: an equivariant system file (a
header line and one polynomial per line) or a ``--coeffs`` list for
``symres discriminant``.  Systems follow the generic equivariant shape

    F^{i} = sum_k x_i^k * S_{d-k},

each symmetric cofactor S_j written as a combination of products of
elementary symmetric polynomials e_mu, so every draw is equivariant by
construction.  The constant S_0 in front of x_i^d is the common value
of the order-(d+1) divided differences; the checks use it to predict
the prefactor.  Nothing here imports symres: the program only ever sees
the generated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence, Tuple, Union

PARAM_NAMES = "abc"
COEFF_BOUND = 3
POINT_BOUND = 40

Slot = Union[int, str]


@dataclass(frozen=True)
class Problem:
    """One request of a workload.

    ``kind`` selects how the problem is run and checked (see
    ``problems.py``).  ``text`` is the system file, or the ``--coeffs``
    spec for a CLI discriminant; ``values`` are a system's slot values
    along ``layout(n, d)``, S_0 first; ``point`` holds seeded integer
    values for ``params`` that the specialization check substitutes.
    """

    pid: str
    kind: str
    n: int
    d: int
    params: Tuple[str, ...] = ()
    text: str = ""
    values: Tuple[Slot, ...] = ()
    point: Tuple[int, ...] = ()

    def specialized_values(self) -> Tuple[int, ...]:
        """The slot values with each parameter set to its point value."""
        at = dict(zip(self.params, self.point))
        return tuple(at.get(v, v) for v in self.values)


def partitions_bounded(j: int, largest: int) -> List[Tuple[int, ...]]:
    """Partitions of j with parts at most ``largest``, largest parts first."""
    if j == 0:
        return [()]
    out = []
    for first in range(min(j, largest), 0, -1):
        for rest in partitions_bounded(j - first, first):
            out.append((first,) + rest)
    return out


def layout(n: int, d: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """(power of x_i, e-basis partition of its cofactor) per slot, S_0
    first."""
    return [(k, mu) for k in range(d, -1, -1)
            for mu in partitions_bounded(d - k, n)]


def elementary_text(p: int, n: int) -> str:
    return "(" + " + ".join("*".join(f"x{i + 1}" for i in chosen)
                            for chosen in combinations(range(n), p)) + ")"


def _term(i: int, k: int, mu: Sequence[int], n: int) -> str:
    factors = [f"x{i + 1}^{k}" if k > 1 else f"x{i + 1}"] if k else []
    factors += [elementary_text(p, n) for p in mu]
    return "*".join(factors)


def system_text(n: int, d: int, values: Sequence[Slot]) -> str:
    """System file text for the slot values (ints or parameter names)."""
    slots = layout(n, d)
    if len(values) != len(slots):
        raise ValueError(f"{len(slots)} slot values expected")
    params = sorted({v for v in values if isinstance(v, str)})
    lines = [f"n={n} d={d} params={','.join(params)}"]
    for i in range(n):
        line = ""
        for (k, mu), v in zip(slots, values):
            if v == 0:
                continue
            body = _term(i, k, mu, n)
            if isinstance(v, str):
                piece, negative = f"{v}*{body}", False
            else:
                piece = body if abs(v) == 1 else f"{abs(v)}*{body}"
                negative = v < 0
            if not line:
                line = "-" + piece if negative else piece
            else:
                line += (" - " if negative else " + ") + piece
        lines.append(line or "0")
    return "\n".join(lines) + "\n"


def draw_values(rng: random.Random, n: int, d: int,
                param_slots: Sequence[int] = (),
                unit_lead: bool = False) -> List[Slot]:
    """Seeded slot values: integers in [-3, 3] with S_0 nonzero (+-1 when
    ``unit_lead``), the slots in ``param_slots`` replaced by a, b, c."""
    values: List[Slot] = [rng.randint(-COEFF_BOUND, COEFF_BOUND)
                          for _ in layout(n, d)]
    while values[0] == 0:
        values[0] = rng.randint(-COEFF_BOUND, COEFF_BOUND)
    if unit_lead:
        values[0] = 1 if values[0] > 0 else -1
    for name, pos in zip(PARAM_NAMES, param_slots):
        values[pos] = name
    return values


def system_problem(rng: random.Random, pid: str, kind: str, n: int, d: int,
                   param_slots: Sequence[int] = (),
                   unit_lead: bool = False) -> Problem:
    values = draw_values(rng, n, d, param_slots, unit_lead)
    params = tuple(v for v in values if isinstance(v, str))
    point = tuple(rng.choice((-1, 1)) * rng.randint(2, POINT_BOUND)
                  for _ in params)
    return Problem(pid, kind, n, d, params, system_text(n, d, values),
                   tuple(values), point)


def coeff_spec(rng: random.Random, n: int, d: int) -> str:
    """A ``--coeffs`` list over the e-basis partitions of d, c_(d) nonzero."""
    entries = []
    for mu in partitions_bounded(d, n):
        v = rng.randint(-COEFF_BOUND, COEFF_BOUND)
        while v == 0 and mu == (d,):
            v = rng.randint(-COEFF_BOUND, COEFF_BOUND)
        entries.append("c" + "".join(map(str, mu)) + f"={v}")
    return ", ".join(entries)


# -- workloads ----------------------------------------------------------------
#
# Shapes are drawn from the run's seed unless their cost hinges on the draw
# more than the run can absorb; those are drawn once, from a fixed seed,
# and are the same in every run ("core").  Symbolic parameters sit in fixed
# slots: which slots are symbolic moves a draw's cost by up to 10x, the
# integer values around them do not.
CORE, SEEDED = False, True

# (kind, n, d, draws, parameter slots of draw i (cycled), seeded)
INT_VERIFY = (
    # The direct quotient has 36 and 66 rows here and takes 1-4 attempts;
    # about one (3, 3) draw in 130 exhausts the five unimodular retries and
    # takes the 36-row perturbation (2-4 s instead of 0.16 s), so a seeded
    # draw would swing a pass by a third.
    ("verify", 3, 4, 2, ((),), CORE),
    ("verify", 3, 3, 16, ((),), CORE),
    # 15 rows, 1-3 attempts, and the perturbation at ~0.1 s.
    ("verify", 3, 2, 100, ((),), SEEDED),
    ("verify", 2, 4, 15, ((),), SEEDED),
    ("verify", 2, 3, 15, ((),), SEEDED),
    ("verify", 2, 2, 15, ((),), SEEDED),
)
# A (3, 2) system whose denominator vanishes in the given coordinates and
# after all five retries, so every run also takes the last fallback, the
# perturbation.  (4, 2) is left out: about one draw in twenty exhausts the
# retries there and falls into a 56-row perturbation of about 50 s.
INT_VERIFY_FALLBACK = (3, 2, (1, -3, 3, 2))

# The parameters sit in S_0 and the next slots, which feed every chain
# entry, the linear last one included.  A third parameter at (3, 2), (3, 3)
# or (4, 3) makes single draws take 10-18 s.
SYM_DECOMPOSE = (
    # The direct symbolic quotient varies 0.6-2 s between draws.
    ("verify", 3, 2, 1, ((0, 1),), CORE),
    ("verify", 2, 3, 4, ((0, 1, 2),), SEEDED),
    # Eight of these put the tail percentile well inside their group.
    ("verify", 2, 4, 8, ((0, 1, 2),), SEEDED),
    ("decompose", 3, 3, 2, ((0, 1),), SEEDED),
    ("decompose", 4, 3, 1, ((0, 1),), SEEDED),
)
GENERIC_FORMS = ((3, 4), (4, 3), (5, 3))

# An integer S_0 is kept at +-1: the prefactor is S_0^{m_0} with m_0 up to
# 91644 at (10, 3), and an S_0 of 2 or 3 gives a number longer than the
# 4300 digits Python converts to text by default, so `symres decompose`
# would stop with status 2.  A symbolic S_0 makes the prefactor a large
# power of a parameter.  Two parameters at d = 3 put a 15-row symbolic
# chain of 4-6 s into one problem.
CLI_DECOMPOSE = (
    ("cli_decompose", 8, 2, 2, ((), (0, 1)), SEEDED),
    ("cli_decompose", 9, 3, 2, ((0,), ()), SEEDED),
    ("cli_decompose", 10, 2, 2, ((0, 1), ()), SEEDED),
    ("cli_decompose", 10, 3, 2, ((), (0,)), SEEDED),
    ("cli_decompose", 11, 2, 1, ((),), SEEDED),
    # Seven alike (CV ~0.1) below the seven costlier problems of the
    # workload, so the tail percentile falls in the middle of their group.
    ("cli_decompose", 12, 2, 7, ((0, 1),), SEEDED),
)
# (n, d, draws, seeded).  --coeffs at (3, 4) go through a direct (3, 3)
# quotient of the partials, which now and then takes a 36-row perturbation
# of 5-8 s, so they are core (the second core draw does take it).  Seeded
# (4, 3) are left out for the reason (4, 2) is left out of int_verify (2 of
# 60 draws needed the ~50 s perturbation); the Clebsch surface stands in
# at that size.
CLI_DISCRIMINANT = ((3, 4, 2, CORE), (6, 2, 2, SEEDED), (9, 2, 2, SEEDED))
CLEBSCH = (4, 3, "c3=1, c21=-1, c111=0")


def _systems(table, rngs, unit_lead=False) -> List[Problem]:
    out = []
    for kind, n, d, draws, slots, seeded in table:
        for draw in range(draws):
            out.append(system_problem(
                rngs[seeded], f"{kind}-{n}{d}-{draw}", kind, n, d,
                slots[draw % len(slots)], unit_lead))
    return out


def workload(name: str, seed: int) -> List[Problem]:
    """The problem list of a workload; the same seed gives the same list."""
    rngs = {CORE: random.Random(f"{name}:core"),
            SEEDED: random.Random(f"{name}:{seed}")}
    if name == "int_verify":
        n, d, values = INT_VERIFY_FALLBACK
        return _systems(INT_VERIFY, rngs) + [
            Problem(f"verify-{n}{d}-fallback", "verify", n, d,
                    text=system_text(n, d, values), values=values)]
    if name == "sym_decompose":
        return _systems(SYM_DECOMPOSE, rngs) + [
            Problem(f"disc-generic-{n}{d}", "disc_generic", n, d)
            for n, d in GENERIC_FORMS]
    if name == "cli_wide":
        out = _systems(CLI_DECOMPOSE, rngs, unit_lead=True)
        for n, d, draws, seeded in CLI_DISCRIMINANT:
            out += [Problem(f"cli-disc-{n}{d}-{draw}", "cli_discriminant",
                            n, d, text=coeff_spec(rngs[seeded], n, d))
                    for draw in range(draws)]
        n, d, spec = CLEBSCH
        return out + [
            Problem("cli-disc-clebsch", "cli_discriminant", n, d, text=spec),
            Problem("cli-selfcheck", "cli_selfcheck", 0, 0)]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("int_verify", "sym_decompose", "cli_wide")
