"""Integer CLI output pinned byte for byte.

The expected texts were captured before integer polynomials stored
plain-int coefficients; any change in printing, in the values or in the
retry fingerprint of an integer system shows up here.
"""

import hashlib

import pytest

from symres import cli
from symres.parser import parse_system_file
from symres.resultant import _fingerprint


def power_sum(k, n):
    return "(" + " + ".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                            for i in range(1, n + 1)) + ")"


def cubic_system(n, line):
    """An equivariant cubic system: ``line`` in x_i and the power sums."""
    sums = {f"p{k}": power_sum(k, n) for k in (1, 2, 3)}
    rows = [line.format(x=f"x{i}", **sums) for i in range(1, n + 1)]
    return "\n".join([f"n={n} d=3 params="] + rows) + "\n"


WIDE = cubic_system(9, "-{x}^3 + 2*{x}^2*{p1} - {x}*{p1}^2 + 3*{x}*{p2}"
                       " + {p1}^3 - 2*{p1}*{p2} + {p3}")
# the direct quotient of this system degenerates five times before a
# unimodular shear gives a nonzero denominator
SMALL = cubic_system(3, "{x}^3 - 2*{x}^2*{p1} - {x}*{p2} + 2*{p1}^3"
                        " - 3*{p1}*{p2} + 3*{p3}")

WIDE_FACTORS = [
    ("(9)", 1, "539"),
    ("(8,1)", 9, "-831873"),
    ("(7,2)", 36, "11772789"),
    ("(7,1,1)", 36, "137078480"),
    ("(6,3)", 84, "36743777"),
    ("(6,2,1)", 252, "701554695"),
    ("(5,4)", 126, "56274099"),
    ("(5,3,1)", 504, "1414975632"),
    ("(5,2,2)", 378, "2347008939"),
    ("(4,4,1)", 315, "1734073247"),
    ("(4,3,2)", 1260, "3767111313"),
    ("(3,3,3)", 280, "4913000000"),
]

DECOMPOSE_TEXT = "prefactor: 1\n" + "".join(
    f"lambda {lam}: multiplicity {m}: {v}\n" for lam, m, v in WIDE_FACTORS)

DECOMPOSE_JSON = '{\n  "prefactor": "1",\n  "factors": [\n' + ",\n".join(
    f'    {{\n      "expr": "{v}",\n      "multiplicity": {m}\n    }}'
    for _, m, v in WIDE_FACTORS) + "\n  ]\n}\n"

VERIFY_TEXT = """\
expanded: 9833062400000
direct:   9833062400000
equal: yes
"""

VERIFY_JSON = """\
{
  "equal": true,
  "expanded": "9833062400000",
  "direct": "9833062400000"
}
"""

DISCRIMINANT_TEXT = """\
normalization: 3^5 * Disc
prefactor: 1
lambda (4): multiplicity 1: -15
lambda (3,1): multiplicity 4: -3
lambda (2,2): multiplicity 3: 1
Disc = -5
"""

DISCRIMINANT_JSON = """\
{
  "n": 4,
  "d": 3,
  "a": 5,
  "sign": 0,
  "prefactor": "1",
  "factors": [
    {
      "expr": "-15",
      "multiplicity": 1
    },
    {
      "expr": "-3",
      "multiplicity": 4
    },
    {
      "expr": "1",
      "multiplicity": 3
    }
  ],
  "value": -5
}
"""

COEFFS = ["discriminant", "--n", "4", "--d", "3",
          "--coeffs", "c3=1, c21=-1, c111=0"]


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in (("wide", WIDE), ("small", SMALL)):
        path = tmp_path / f"{name}.sys"
        path.write_text(text)
        out[name] = str(path)
    return out


@pytest.mark.parametrize("argv, expected", [
    (["decompose", "wide"], DECOMPOSE_TEXT),
    (["decompose", "wide", "--format", "json"], DECOMPOSE_JSON),
    (["verify", "small"], VERIFY_TEXT),
    (["verify", "small", "--format", "json"], VERIFY_JSON),
    (COEFFS, DISCRIMINANT_TEXT),
    (COEFFS + ["--format", "json"], DISCRIMINANT_JSON),
], ids=["decompose-9-3", "decompose-9-3-json", "verify-3-3",
        "verify-3-3-json", "discriminant-4-3", "discriminant-4-3-json"])
def test_integer_output_is_byte_stable(files, capsys, argv, expected):
    argv = [files.get(a, a) for a in argv]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_integer_retry_fingerprint_is_byte_stable():
    # the fingerprint seeds the unimodular shears of every retry
    polys = list(parse_system_file(SMALL).polys)
    assert hashlib.sha256(_fingerprint(polys)).hexdigest() == (
        "97e4ff9fdff2252f48aca33b2e08a60099e0d001afba4f6286369a870a40422a")
