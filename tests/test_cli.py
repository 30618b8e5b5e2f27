"""End-to-end command-line runs through main()."""

from itertools import combinations

import pytest

from symres import cli
from symres.combinatorics import Partition
from symres.discriminant import basis_partitions, coefficient_name

LINEAR_SYSTEM = """\
n=3 d=1 params=a,b
a*x1 + b*(x1 + x2 + x3)
a*x2 + b*(x1 + x2 + x3)
a*x3 + b*(x1 + x2 + x3)
"""

DECOMPOSE_JSON = """\
{
  "prefactor": "a^2",
  "factors": [
    {
      "expr": "a + 3*b",
      "multiplicity": 1
    }
  ]
}
"""


@pytest.fixture
def linear_file(tmp_path):
    path = tmp_path / "linear.sys"
    path.write_text(LINEAR_SYSTEM)
    return str(path)


class TestResultant:
    def test_text_output(self, linear_file, capsys):
        assert cli.main(["resultant", linear_file]) == 0
        assert capsys.readouterr().out == "a^3 + 3*a^2*b\n"

    def test_json_output(self, linear_file, capsys):
        assert cli.main(["resultant", linear_file, "--format", "json"]) == 0
        assert '"resultant": "a^3 + 3*a^2*b"' in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert cli.main(["resultant", "/no/such/file.sys"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_integers_beyond_the_int_str_limit(self, tmp_path, capsys):
        # 4401 digits, over Python's default 4300-digit int/str limit
        path = tmp_path / "big.sys"
        path.write_text("n=2 d=1 params=\n" + "7" * 4401
                        + "*x1 + x2\nx1 + x2\n")
        assert cli.main(["resultant", str(path)]) == 0
        assert capsys.readouterr().out == "7" * 4400 + "6\n"


class TestDecompose:
    def test_json_is_byte_stable(self, linear_file, capsys):
        assert cli.main(["decompose", linear_file, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["decompose", linear_file, "--format", "json"]) == 0
        assert capsys.readouterr().out == first == DECOMPOSE_JSON

    def test_text_labels_partitions(self, linear_file, capsys):
        assert cli.main(["decompose", linear_file]) == 0
        out = capsys.readouterr().out
        assert "prefactor: a^2" in out
        assert "lambda (3): multiplicity 1: a + 3*b" in out

    def test_zero_to_the_zero_is_one(self, tmp_path, capsys):
        path = tmp_path / "zero_power.sys"
        path.write_text(LINEAR_SYSTEM.replace("b*(", "0^0*b*(")
                        .replace("a*x2", "(a - a)^0*a*x2"))
        assert cli.main(["decompose", str(path), "--format", "json"]) == 0
        assert capsys.readouterr().out == DECOMPOSE_JSON

    def test_rejects_non_equivariant_input(self, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text("n=2 d=2 params=a\na*x1^2\na*x1*x2\n")
        assert cli.main(["decompose", str(path)]) == 2
        assert "does not map polynomial" in capsys.readouterr().err

    def test_rejects_malformed_header(self, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text("degree 2 in 2 vars\nx1\nx2\n")
        assert cli.main(["decompose", str(path)]) == 2
        assert "header" in capsys.readouterr().err

    # 4401 digits, over Python's default 4300-digit int/str limit
    @pytest.mark.parametrize("text", [
        "n=" + "1" * 4401 + " d=1 params=\nx1\n",
        "n=1 d=" + "1" * 4401 + " params=\nx1\n",
        "n=1 d=1 params=\nx" + "1" * 4401 + "\n",
        "n=1 d=1 params=\nx1^" + "1" * 4401 + "\n",
    ], ids=["header_n", "header_d", "variable_index", "exponent"])
    def test_oversized_integers_are_parse_errors(self, tmp_path, capsys,
                                                 text):
        path = tmp_path / "big.sys"
        path.write_text(text)
        assert cli.main(["decompose", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line")
        assert "Exceeds the limit" not in err


class TestVerify:
    def test_equal_system_exits_zero(self, linear_file, capsys):
        assert cli.main(["verify", linear_file]) == 0
        assert "equal: yes" in capsys.readouterr().out

    def test_mismatch_exits_one(self, linear_file, capsys, monkeypatch):
        real = cli.verify_decomposition

        def lying(system):
            report = real(system)
            return type(report)(False, report.factored, report.expanded,
                                report.direct)

        monkeypatch.setattr(cli, "verify_decomposition", lying)
        assert cli.main(["verify", linear_file]) == 1
        assert "equal: NO" in capsys.readouterr().out


CLEBSCH_TEXT = """\
normalization: 3^5 * Disc
prefactor: 1
lambda (4): multiplicity 1: -15
lambda (3,1): multiplicity 4: -3
lambda (2,2): multiplicity 3: 1
Disc = -5
"""

QUARTIC_ARGS = ["discriminant", "--n", "3", "--d", "4",
                "--coeffs", "c31=1, c22=2, c211=-1, c1111=3"]

QUARTIC_TEXT = """\
normalization: 4^7 * Disc
prefactor: 1
lambda (3): multiplicity 1: 316
lambda (2,1): multiplicity 3: 226648
lambda (1,1,1): multiplicity 1: 64
Disc = 14371522877652712
"""

QUARTIC_JSON = """\
{
  "n": 3,
  "d": 4,
  "a": 7,
  "sign": 0,
  "prefactor": "1",
  "factors": [
    {
      "expr": "316",
      "multiplicity": 1
    },
    {
      "expr": "226648",
      "multiplicity": 3
    },
    {
      "expr": "64",
      "multiplicity": 1
    }
  ],
  "value": 14371522877652712
}
"""

QUADRIC_JSON = """\
{
  "n": 4,
  "d": 2,
  "a": 0,
  "sign": 1,
  "prefactor": "27",
  "factors": [
    {
      "expr": "-7",
      "multiplicity": 1
    }
  ],
  "value": 189
}
"""

GENERIC_CUBIC_TEXT = """\
normalization: 3^3 * Disc
prefactor: c3^2
lambda (3): multiplicity 1: c3 + 9*c21 + 27*c111
lambda (2,1): multiplicity 3: 3*c3^2*c111 - 3*c3*c21^2 - 3*c21^3
"""

INT_QUADRATIC_SYSTEM = """\
n=4 d=2 params=
3*x1^2 - 6*x1*x2 - 6*x1*x3 - 6*x1*x4 - 3*x2^2 - 9*x2*x3 - 9*x2*x4 - 3*x3^2 \
- 9*x3*x4 - 3*x4^2
-3*x1^2 - 6*x1*x2 - 9*x1*x3 - 9*x1*x4 + 3*x2^2 - 6*x2*x3 - 6*x2*x4 - 3*x3^2 \
- 9*x3*x4 - 3*x4^2
-3*x1^2 - 9*x1*x2 - 6*x1*x3 - 9*x1*x4 - 3*x2^2 - 6*x2*x3 - 9*x2*x4 + 3*x3^2 \
- 6*x3*x4 - 3*x4^2
-3*x1^2 - 9*x1*x2 - 9*x1*x3 - 6*x1*x4 - 3*x2^2 - 9*x2*x3 - 6*x2*x4 - 3*x3^2 \
- 6*x3*x4 + 3*x4^2
"""

INT_QUADRATIC_TEXT = """\
prefactor: 59049
lambda (4): multiplicity 1: -51
lambda (3,1): multiplicity 4: 432
lambda (2,2): multiplicity 3: 729
"""


class TestByteStableOutput:
    """Exact text and JSON, as printed when the labels were recomputed
    in the CLI and ``Disc`` came from the direct quotient."""

    def run(self, capsys, args):
        assert cli.main(args) == 0
        return capsys.readouterr().out

    def test_discriminant_text(self, capsys):
        assert self.run(capsys, ["discriminant", "--n", "4", "--d", "3",
                                 "--coeffs", "c3=1,c21=-1,c111=0"]) \
            == CLEBSCH_TEXT
        assert self.run(capsys, QUARTIC_ARGS) == QUARTIC_TEXT
        assert self.run(capsys, ["discriminant", "--n", "3", "--d", "3"]) \
            == GENERIC_CUBIC_TEXT

    def test_discriminant_json(self, capsys):
        assert self.run(capsys, QUARTIC_ARGS + ["--format", "json"]) \
            == QUARTIC_JSON
        assert self.run(capsys, ["discriminant", "--n", "4", "--d", "2",
                                 "--coeffs", "c2=3,c11=-2",
                                 "--format", "json"]) == QUADRIC_JSON

    def test_decompose_labels_shorter_partitions(self, tmp_path, capsys):
        path = tmp_path / "quadratic.sys"
        path.write_text(INT_QUADRATIC_SYSTEM)
        assert self.run(capsys, ["decompose", str(path)]) == \
            INT_QUADRATIC_TEXT


class TestDiscriminant:
    def test_inline_integer_coefficients(self, capsys):
        code = cli.main(["discriminant", "--n", "4", "--d", "3",
                         "--coeffs", "c3=1,c21=-1,c111=0"])
        assert code == 0
        assert "Disc = -5" in capsys.readouterr().out

    def test_json_value_field(self, capsys):
        cli.main(["discriminant", "--n", "4", "--d", "3",
                  "--coeffs", "c3=1,c21=-1", "--format", "json"])
        assert '"value": -5' in capsys.readouterr().out

    def test_values_beyond_the_int_str_limit(self, capsys):
        # an inline list longer than a file name, and a value of about
        # 6000 digits, over Python's default 4300-digit int/str limit
        spec = "c2=1" + "0" * 3000 + ",c11=1"
        args = ["discriminant", "--n", "2", "--d", "2", "--coeffs", spec]
        assert cli.main(args) == 0
        text = capsys.readouterr().out.split("Disc = ")[1].strip()
        assert cli.main(args + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        assert len(text) > 6000
        assert out.endswith(f'  "value": {text}\n}}\n')

    def test_bracket_names_match_concatenated(self, capsys):
        cli.main(["discriminant", "--n", "4", "--d", "3",
                  "--coeffs", "c[3]=1,c[2,1]=-1", "--format", "json"])
        assert '"value": -5' in capsys.readouterr().out

    def test_coeffs_from_file(self, tmp_path, capsys):
        path = tmp_path / "clebsch.coeffs"
        path.write_text("c3=1\nc21=-1\nc111=0\n")
        cli.main(["discriminant", "--n", "4", "--d", "3",
                  "--coeffs", str(path)])
        assert "Disc = -5" in capsys.readouterr().out

    def test_symbolic_when_coeffs_omitted(self, capsys):
        assert cli.main(["discriminant", "--n", "2", "--d", "2",
                         "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert '"value": null' in out
        assert '"prefactor": "c2"' in out

    def test_bad_value_exits_two(self, capsys):
        assert cli.main(["discriminant", "--n", "3", "--d", "3",
                         "--coeffs", "c3=x"]) == 2
        assert "integer coefficient" in capsys.readouterr().err

    def test_bad_name_exits_two(self, capsys):
        assert cli.main(["discriminant", "--n", "3", "--d", "3",
                         "--coeffs", "b3=1"]) == 2
        assert cli.main(["discriminant", "--n", "3", "--d", "3",
                         "--coeffs", "c[2=1"]) == 2

    def test_repeated_partition_exits_two(self, capsys):
        assert cli.main(["discriminant", "--n", "3", "--d", "2",
                         "--coeffs", "c2=1, c2=5, c11=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "partition (2) given more than once" in captured.err

    def test_repeated_partition_under_another_name_exits_two(self, capsys):
        for spec in ("c11=1, c2=5, c_1_1=1", "c[1,1]=1 c2=5 c11=1"):
            assert cli.main(["discriminant", "--n", "3", "--d", "2",
                             "--coeffs", spec]) == 2
            assert "partition (1,1) given more than once" in \
                capsys.readouterr().err

    def test_oversized_part_exits_two(self, capsys):
        assert cli.main(["discriminant", "--n", "2", "--d", "3",
                         "--coeffs", "c3=1"]) == 2
        assert "exceeds" in capsys.readouterr().err


class TestPartitionNames:
    def test_parsing(self):
        assert cli._partition_from_name("c111") == Partition((1, 1, 1))
        assert cli._partition_from_name("c[12,1]") == Partition((12, 1))
        for bad in ("d3", "c", "c[]", "c2a"):
            with pytest.raises(ValueError):
                cli._partition_from_name(bad)

    def test_underscore_form(self):
        assert cli._partition_from_name("c_12_1") == Partition((12, 1))
        assert cli._partition_from_name("c_10") == Partition((10,))
        for bad in ("c_", "c_12__1", "c_1a"):
            with pytest.raises(ValueError):
                cli._partition_from_name(bad)
        assert cli._parse_coeff_spec("c_10=1, c_9_1=-2") == {
            Partition((10,)): 1, Partition((9, 1)): -2}

    @pytest.mark.parametrize("d", [10, 11, 12])
    def test_printed_names_round_trip(self, d):
        for lam in basis_partitions(d, d):
            assert cli._partition_from_name(coefficient_name(lam)) == lam


class TestSelfcheck:
    def test_all_identities_hold(self, capsys):
        assert cli.main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "6/6 identities hold" in out
        assert "FAIL" not in out


class TestParserReuse:
    def test_bad_argument_after_a_good_call_still_exits_2(self, linear_file,
                                                          capsys):
        assert cli.main(["resultant", linear_file]) == 0
        assert capsys.readouterr().err == ""
        with pytest.raises(SystemExit) as info:
            cli.main(["resultant", linear_file, "--format", "yaml"])
        assert info.value.code == 2
        second = capsys.readouterr()
        assert second.out == ""
        assert "invalid choice: 'yaml'" in second.err
        # the parser is built once and left usable by the error
        assert cli._build_parser() is cli._build_parser()
        assert cli.main(["resultant", linear_file]) == 0
        assert capsys.readouterr().out == "a^3 + 3*a^2*b\n"


def _e_sum(p, n):
    """The expanded elementary symmetric e_p of x1..xn, in parentheses."""
    return "(" + " + ".join("*".join(f"x{i + 1}" for i in chosen)
                            for chosen in combinations(range(n), p)) + ")"


# A (12,2) two-parameter system written as its expanded e-sums, so every
# line repeats the groups the parser reads once; the expected output was
# captured before repeated groups were tokenized as one token and
# equivariance was checked in place.
WIDE_TWO_PARAMETER = "n=12 d=2 params=a,b\n" + "".join(
    f"a*x{i}^2 + b*x{i}*{_e_sum(1, 12)} - {_e_sum(2, 12)}"
    f" - 2*{_e_sum(1, 12)}*{_e_sum(1, 12)}\n" for i in range(1, 13))

WIDE_FACTORS = [
    ("(12)", 1, "a + 12*b - 354"),
    ("(11,1)", 12, "a^3 + 12*a^2*b - 244*a^2 + 11*a*b^2 + 22*a*b + 66*b^2"),
    ("(10,2)", 66, "a^3 + 12*a^2*b - 154*a^2 + 20*a*b^2 + 40*a*b + 120*b^2"),
    ("(9,3)", 220, "a^3 + 12*a^2*b - 84*a^2 + 27*a*b^2 + 54*a*b + 162*b^2"),
    ("(8,4)", 495, "a^3 + 12*a^2*b - 34*a^2 + 32*a*b^2 + 64*a*b + 192*b^2"),
    ("(7,5)", 792, "a^3 + 12*a^2*b - 4*a^2 + 35*a*b^2 + 70*a*b + 210*b^2"),
    ("(6,6)", 462, "a^3 + 12*a^2*b + 6*a^2 + 36*a*b^2 + 72*a*b + 216*b^2"),
]


@pytest.mark.parametrize("fmt, expected", [
    ("text", "prefactor: a^18434\n" + "".join(
        f"lambda {lam}: multiplicity {m}: {v}\n" for lam, m, v in WIDE_FACTORS)),
    ("json", '{\n  "prefactor": "a^18434",\n  "factors": [\n' + ",\n".join(
        f'    {{\n      "expr": "{v}",\n      "multiplicity": {m}\n    }}'
        for _, m, v in WIDE_FACTORS) + "\n  ]\n}\n"),
])
def test_wide_two_parameter_decompose_is_byte_stable(tmp_path, capsys, fmt,
                                                    expected):
    path = tmp_path / "wide.sys"
    path.write_text(WIDE_TWO_PARAMETER)
    assert cli.main(["decompose", str(path), "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")
