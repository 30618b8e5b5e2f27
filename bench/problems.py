"""Run one benchmark problem through symres and check its answer.

Each problem kind is solved the way a user would: system text through
``parse_system_file`` and the library calls behind ``symres verify`` and
``decompose``, a generic form through ``discriminant_decomposition``, or
a whole ``symres.cli.main`` session with its printed output.  The
program's part is timed on its own (the per-problem latency); the check
that follows uses a route independent of the one being checked wherever
one is affordable:

* ``verify``: the direct Macaulay quotient inside ``verify_decomposition``,
  plus ``sylvester_resultant`` for n = 2 and the predicted prefactor
  S_0^{m_0} for d < n.
* ``decompose`` (symbolic): the factors evaluated at a seeded integer
  point against chain resultants of the specialized system, each built
  from the generator's slot values by collapsing the blocks first and
  taking divided differences by the bordered Vandermonde determinant,
  then closed by Sylvester (two variables) or Macaulay (three); for
  n <= 3 also the direct quotient of the specialized system.
* ``disc_generic``: a digest of the value symres 0.1.0 gave, and the
  quartic-surface closed form at (4, 3).
* ``cli_decompose``: each printed factor, evaluated at the point, against
  the same independent chain route on the specialized system, and the
  printed prefactor against S_0^{m_0}.
* ``cli_discriminant``: the printed ``Disc =`` against the printed
  factored form divided exactly by d^a.
* ``cli_selfcheck``: every closed-form identity reported ``ok``.

symres is looked up at call time, so the modules imported by the most
recent set-up (and any trace wrappers on them) are the ones used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from itertools import product
from typing import Dict, List, Sequence

import gen

# sha256 of ``_disc_digest_text`` for the generic forms, as computed by
# symres 0.1.0.
GENERIC_DIGESTS = {
    (3, 4): "c9f7dbbb33ae77dfc079c1e0c3dcf16fb35ffab834397745c90f9222593da5ff",
    (4, 3): "fd67b4babc8a90a5157e4a9fcecc2865f4467287e2d9c50eef9064a53456f291",
    (5, 3): "cefd81bffc187b0a67c8729db5c787a4b8ab1300c04e5141f8e4fd4cdfa8a149",
}


class CheckFailed(Exception):
    """The program's answer disagrees with the independent route."""


@dataclass
class Outcome:
    """What one run of a problem produced."""

    pid: str
    latency_s: float = 0.0
    check_s: float = 0.0
    ok: bool = False
    error: str = ""


def _symres():
    return sys.modules["symres"]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- independent routes -------------------------------------------------------

def block_leads(lam: Sequence[int]) -> List[int]:
    out, pos = [], 0
    for part in lam:
        out.append(pos)
        pos += part
    return out


def multiplicity(lam: Sequence[int]) -> int:
    """Set partitions of {1..n} with block sizes lam."""
    count = math.factorial(sum(lam))
    for part in lam:
        count //= math.factorial(part)
    for size in set(lam):
        count //= math.factorial(list(lam).count(size))
    return count


def collapsed_elementary(ring, lam: Sequence[int], p: int):
    """e_p of x_1..x_n after block j of ``lam`` collapses to y_j: the
    t^p coefficient of prod_j (1 + y_j t)^{lam_j}."""
    Polynomial = _symres().ring.Polynomial
    total = Polynomial.zero(ring, len(lam), p)
    for js in product(*(range(min(part, p) + 1) for part in lam)):
        if sum(js) == p:
            coeff = math.prod(math.comb(part, j) for part, j in zip(lam, js))
            total = total + Polynomial.monomial(ring, len(lam), js, coeff)
    return total


def specialized_polys(problem: gen.Problem, lam: Sequence[int]):
    """G_j = rho_lambda(F_{lead_j}) for the integer-specialized system,
    built from the slot values without parsing the system text."""
    s = _symres()
    ring = s.ring.ParameterRing(())
    l = len(lam)
    elementary = {}
    polys = []
    for j in range(l):
        total = s.ring.Polynomial.zero(ring, l, problem.d)
        for (k, mu), v in zip(gen.layout(problem.n, problem.d),
                              problem.specialized_values()):
            if v == 0:
                continue
            term = s.ring.Polynomial.monomial(
                ring, l, tuple(k if b == j else 0 for b in range(l)), v)
            for part in mu:
                if part not in elementary:
                    elementary[part] = collapsed_elementary(ring, lam, part)
                term = term * elementary[part]
            total = total + term
        polys.append(total)
    return polys


def chain_value(problem: gen.Problem, lam: Sequence[int]) -> int:
    """Integer chain resultant of ``lam``, specializing before differencing.

    The k-th chain entry is the divided difference of G_0..G_{k-1} in
    y_0..y_{k-1} (the collapse is injective on the block leads), which
    the bordered Vandermonde determinant gives without the recurrence
    table; one variable needs no resultant, two take Sylvester.
    """
    s = _symres()
    G = specialized_polys(problem, lam)
    chain = [s.divdiff.divided_difference_determinant(G, range(k))
             for k in range(1, len(lam) + 1)]
    if any(p.is_zero() for p in chain):
        return 0
    if len(lam) == 1:
        return chain[0].coefficient_of((chain[0].degree,)).constant_value()
    if len(lam) == 2:
        value = s.resultant.sylvester_resultant(chain[0], chain[1])
    else:
        value = s.resultant.macaulay_resultant(chain)
    return value.constant_value()


def chain_partitions(n: int, d: int):
    s = _symres()
    if d >= n:
        return s.combinatorics.partitions(n)
    return s.combinatorics.partitions(n, max_length=d)


def prefactor_exponent(n: int, d: int) -> int:
    return 0 if d >= n else _symres().combinatorics.m_zero_resultant(n, d)


def evaluate(c, point: Dict[str, int]) -> int:
    """Value of a Coefficient at integer parameter values."""
    total = 0
    for exp, v in c.terms.items():
        for name, e in zip(c.ring.params, exp):
            v *= point[name] ** e
        total += v
    return total


def _disc_digest_text(result) -> str:
    pc = _symres().parser.print_coefficient
    parts = [str(result.a), str(result.sign),
             pc(result.factored.prefactor)]
    parts += [f"{pc(v)}^{m}" for v, m in result.factored.factors]
    return "|".join(parts)


def quartic_surface_disc(F):
    """3^5 Disc of the generic symmetric cubic in four variables."""
    c3, c21, c111 = (F.ring.parameter(s) for s in ("c3", "c21", "c111"))
    disc = -(c3 ** 10) * (c3 + c21 * 2) ** 9 * (c3 + c21 * 6 + c111 * 16) \
        * (c111 * 4 * c3 ** 2 - c21 ** 2 * c3 * 3 - c21 ** 3 * 2) ** 4
    return disc * 3 ** 5


# -- problem kinds ------------------------------------------------------------

def _parse(text: str):
    s = _symres()
    parsed = s.parser.parse_system_file(text)
    return s.divdiff.EquivariantSystem(list(parsed.polys))


def expected_prefactor(problem: gen.Problem, ring):
    """S_0^{m_0}: the top divided-difference constant is the S_0 slot."""
    m0 = prefactor_exponent(problem.n, problem.d)
    lead = problem.values[0]
    if isinstance(lead, str):
        exp = tuple(m0 if p == lead else 0 for p in ring.params)
        return ring.coefficient({exp: 1})
    return ring.constant(lead ** m0)


def run_verify(problem: gen.Problem, workdir: Path, scope) -> Outcome:
    s = _symres()
    out = Outcome(problem.pid)
    t0 = time.perf_counter()
    system = _parse(problem.text)
    report = s.equivariant.verify_decomposition(system)
    t1 = time.perf_counter()
    out.latency_s = t1 - t0
    with scope():
        _expect(report.equal, "factored product != direct quotient")
        _expect(report.factored.prefactor
                == expected_prefactor(problem, system.ring), "prefactor")
        if problem.n == 2:
            syl = s.resultant.sylvester_resultant(*system.polys)
            _expect(syl == report.direct, "Sylvester != direct quotient")
    return out


def run_decompose(problem: gen.Problem, workdir: Path, scope) -> Outcome:
    s = _symres()
    out = Outcome(problem.pid)
    t0 = time.perf_counter()
    system = _parse(problem.text)
    factored = s.equivariant.decompose_resultant(system)
    out.latency_s = time.perf_counter() - t0
    with scope():
        point = dict(zip(problem.params, problem.point))
        lams = chain_partitions(problem.n, problem.d)
        _expect(len(lams) == len(factored.factors), "wrong factor count")
        for lam, (value, mult) in zip(lams, factored.factors):
            _expect(mult == multiplicity(lam), f"multiplicity at {lam}")
            _expect(evaluate(value, point) == chain_value(problem, lam),
                    f"chain {lam} disagrees at the point {point}")
        want = expected_prefactor(problem, factored.prefactor.ring)
        _expect(evaluate(factored.prefactor, point) == evaluate(want, point),
                "prefactor")
        if problem.n <= 3:
            special = _parse(gen.system_text(
                problem.n, problem.d, problem.specialized_values()))
            direct = s.resultant.macaulay_resultant(special.polys)
            total = evaluate(factored.prefactor, point)
            for value, mult in factored.factors:
                total *= evaluate(value, point) ** mult
            _expect(total == direct.constant_value(),
                    "specialized product != direct quotient")
    return out


def run_disc_generic(problem: gen.Problem, workdir: Path, scope) -> Outcome:
    s = _symres()
    out = Outcome(problem.pid)
    t0 = time.perf_counter()
    form = s.discriminant.SymmetricPoly.generic(problem.n, problem.d)
    result = s.discriminant.discriminant_decomposition(form)
    out.latency_s = time.perf_counter() - t0
    with scope():
        digest = hashlib.sha256(
            _disc_digest_text(result).encode()).hexdigest()
        _expect(digest == GENERIC_DIGESTS[(problem.n, problem.d)],
                "differs from the value symres 0.1.0 gave")
        if (problem.n, problem.d) == (4, 3):
            _expect(result.normalized() == quartic_surface_disc(form),
                    "quartic surface closed form")
    return out


def cli_session(argv: List[str]):
    """Run ``symres.cli.main`` in process; (exit status, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        status = _symres().cli.main(argv)
    return status, stdout.getvalue(), stderr.getvalue()


_FACTOR_RE = re.compile(r"lambda \(([\d,]+)\): multiplicity (\d+): (.+)\Z")


def _printed_factors(text: str):
    """(prefactor text, [(partition, multiplicity, expr text)])."""
    prefactor, factors = None, []
    for line in text.splitlines():
        if line.startswith("prefactor: "):
            prefactor = line[len("prefactor: "):]
        m = _FACTOR_RE.match(line)
        if m:
            lam = tuple(int(p) for p in m.group(1).split(","))
            factors.append((lam, int(m.group(2)), m.group(3)))
    _expect(prefactor is not None, "no prefactor line")
    return prefactor, factors


def run_cli_decompose(problem: gen.Problem, workdir: Path, scope) -> Outcome:
    out = Outcome(problem.pid)
    path = workdir / f"{problem.pid}.sys"
    t0 = time.perf_counter()
    status, text, err = cli_session(["decompose", str(path)])
    out.latency_s = time.perf_counter() - t0
    with scope():
        _expect(status == 0, f"exit status {status}: {err.strip()}")
        s = _symres()
        ring = s.ring.ParameterRing(tuple(sorted(problem.params)))
        point = dict(zip(problem.params, problem.point))
        prefactor, factors = _printed_factors(text)
        lams = [tuple(lam) for lam in chain_partitions(problem.n, problem.d)]
        _expect([f[0] for f in factors] == lams, "partition labels")
        for lam, mult, expr in factors:
            _expect(mult == multiplicity(lam), f"multiplicity at {lam}")
            got = evaluate(s.parser.parse_coefficient(expr, ring), point)
            _expect(got == chain_value(problem, lam),
                    f"chain {lam} disagrees at {point}")
        _expect(prefactor == s.parser.print_coefficient(
            expected_prefactor(problem, ring)), "prefactor")
    return out


def run_cli_discriminant(problem: gen.Problem, workdir: Path,
                         scope) -> Outcome:
    out = Outcome(problem.pid)
    n, d = problem.n, problem.d
    t0 = time.perf_counter()
    status, text, err = cli_session(
        ["discriminant", "--n", str(n), "--d", str(d),
         "--coeffs", problem.text])
    out.latency_s = time.perf_counter() - t0
    with scope():
        _expect(status == 0, f"exit status {status}: {err.strip()}")
        a, r = divmod((d - 1) ** n - (-1) ** n, d)
        header = text.splitlines()[0]
        _expect(header.startswith(f"normalization: {d}^{a} * Disc"),
                f"normalization line {header!r}")
        sign = -1 if "global minus sign" in header else 1
        prefactor, factors = _printed_factors(text)
        total = sign * int(prefactor)
        for lam, mult, expr in factors:
            _expect(mult == multiplicity(lam), f"multiplicity at {lam}")
            total *= int(expr) ** mult
        disc = re.search(r"^Disc = (-?\d+)$", text, re.M)
        _expect(disc is not None, "no Disc line")
        q, r = divmod(total, d ** a)
        _expect(r == 0, f"factored value not divisible by {d}^{a}")
        _expect(q == int(disc.group(1)), "Disc != factored value / d^a")
    return out


def run_cli_selfcheck(problem: gen.Problem, workdir: Path, scope) -> Outcome:
    out = Outcome(problem.pid)
    t0 = time.perf_counter()
    status, text, err = cli_session(["selfcheck"])
    out.latency_s = time.perf_counter() - t0
    with scope():
        lines = text.splitlines()
        _expect(status == 0, f"exit status {status}")
        _expect(all(line.startswith("ok ") for line in lines[:-1]),
                "an identity failed")
        _expect(lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} "
                "identities hold", "summary line")
    return out


RUNNERS = {
    "verify": run_verify,
    "decompose": run_decompose,
    "disc_generic": run_disc_generic,
    "cli_decompose": run_cli_decompose,
    "cli_discriminant": run_cli_discriminant,
    "cli_selfcheck": run_cli_selfcheck,
}


def write_inputs(problems: Sequence[gen.Problem], workdir: Path) -> None:
    """Write the system files the CLI sessions read."""
    for problem in problems:
        if problem.kind == "cli_decompose":
            (workdir / f"{problem.pid}.sys").write_text(
                problem.text, encoding="utf-8")


def run_problem(problem: gen.Problem, workdir: Path,
                scope=contextlib.nullcontext) -> Outcome:
    """Run and check one problem; an exception or mismatch is recorded.

    ``scope`` is entered around the check, so a tracer can keep the
    check's own calls into symres apart from the program's work.
    """
    t0 = time.perf_counter()
    try:
        out = RUNNERS[problem.kind](problem, workdir, scope)
        out.ok = True
    except Exception as exc:  # recorded per problem, never aborts the run
        out = Outcome(problem.pid, error=f"{type(exc).__name__}: {exc}"[:500])
    out.check_s = time.perf_counter() - t0 - out.latency_s
    return out
