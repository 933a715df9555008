import collections
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotform
from rotform import cli, invariants
from rotform.cli import (
    IDENTITIES_MAX_DIM, AnalysisRequest, main, parse_matrix_text, render_report, run,
)
from rotform.errors import InputError, NumericalError
from rotform.linalg import DEFAULT_TOL, ToleranceConfig

from oracles import minor_sums_exact


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# the skew part and the rotation of tools/report_parity.py's tie requests
_K = np.random.default_rng(6).uniform(-1.0, 1.0, (4, 4))
_SKEW = _K - _K.T
_Q = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]


class TestMatrixParsing:
    def test_grid_format(self):
        A = parse_matrix_text("1 2\n3 4\n")
        np.testing.assert_array_equal(A, [[1.0, 2.0], [3.0, 4.0]])

    def test_grid_with_exponents_and_blanks(self):
        A = parse_matrix_text("\n1e-2 2.5E3\n-3.25 .5\n\n")
        np.testing.assert_array_equal(A, [[0.01, 2500.0], [-3.25, 0.5]])

    def test_json_format(self):
        A = parse_matrix_text('{"n": 2, "rows": [[1, 2], [3, 4]]}')
        np.testing.assert_array_equal(A, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_token_reports_line_and_column(self):
        with pytest.raises(InputError, match=r"<input>:2:3: not a number: 'x'"):
            parse_matrix_text("1 2\n3 x\n")

    def test_ragged_row_reports_line(self):
        with pytest.raises(InputError, match=r"<input>:2"):
            parse_matrix_text("1 2\n3\n")

    def test_non_square_rejected(self):
        with pytest.raises(InputError, match="square"):
            parse_matrix_text("1 2\n3 4\n5 6\n")

    def test_json_wrong_row_count(self):
        with pytest.raises(InputError, match="rows"):
            parse_matrix_text('{"n": 3, "rows": [[1, 2], [3, 4]]}')

    def test_json_bad_entry_location(self):
        with pytest.raises(InputError, match="row 2, column 1"):
            parse_matrix_text('{"n": 2, "rows": [[1, 2], ["a", 4]]}')

    def test_json_syntax_error_location(self):
        with pytest.raises(InputError, match=r":1:\d+: invalid JSON"):
            parse_matrix_text('{"n": 2, rows: []}')

    def test_nan_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            parse_matrix_text("nan 1\n2 3\n")

    @pytest.mark.parametrize("text", ["inf 1\n2 3\n", '{"n": 1, "rows": [[1e999]]}',
                                      '{"n": 1, "rows": [[-1%s]]}' % ("0" * 400)],
                             ids=["grid inf", "json 1e999", "json int -10^400"])
    def test_entries_past_the_double_range_rejected(self, text):
        with pytest.raises(InputError, match="non-finite entry"):
            parse_matrix_text(text)

    @pytest.mark.parametrize("text, message", [
        ('{"n": 2, "rows": [[1.5, true], [3.5, 4.5]]}', "row 1, column 2: not a number: True"),
        ('{"n": 2, "rows": [[1.5, 2.5], [3.5, NaN]]}', "row 2, column 2: non-finite entry"),
        ('{"n": 2, "rows": [[-Infinity, 2.5], [3.5, 4.5]]}', "row 1, column 1: non-finite entry"),
        ('{"n": 2, "rows": [[1.5, 2.5], [3.5, 4.5, 5.5]]}', "row 2 must hold 2 numbers"),
        ('{"n": 2, "rows": [[1.5, 2.5], "ab"]}', "row 2 must hold 2 numbers"),
        ('{"n": 1.0, "rows": [[2.5]]}', "'n' must be a positive integer, got 1.0"),
    ], ids=["bool", "NaN", "-Infinity", "long row", "string row", "float n"])
    def test_a_json_matrix_of_floats_but_one_entry_names_that_entry(self, text, message):
        # all floats but one: the one np.array cannot take, the entry walk names
        with pytest.raises(InputError, match=f"^<input>: {re.escape(message)}$"):
            parse_matrix_text(text)

    @pytest.mark.parametrize("text", ["1 2.5\n-3e-2 4\n", "\n  1\t2.5 \n\x0c-3e-2 4\r\n\n",
                                      '{"n": 2, "rows": [[1.0, 2.5], [-0.03, 4.0]]}',
                                      '{"n": 2, "rows": [[1, 2.5], [-0.03, 4]]}'],
                             ids=["grid", "grid with odd whitespace", "json floats", "json ints"])
    def test_every_route_reads_the_same_array(self, text):
        A = parse_matrix_text(text)
        assert A.dtype == np.float64 and A.flags.c_contiguous
        np.testing.assert_array_equal(A, [[1.0, 2.5], [-0.03, 4.0]])

    def test_json_integer_past_int64_is_read_as_a_double(self):
        A = parse_matrix_text('{"n": 2, "rows": [[1, %d], [0, -%d]]}' % (10**23, 2**64))
        np.testing.assert_array_equal(A, [[1.0, 1e23], [0.0, -2.0**64]])


Pair = collections.namedtuple("Pair", "a b")


def every_accepted_type():
    """A document holding every type the report writer accepts, in a list
    and as a dict value: Python and numpy floats and ints, bools, None,
    strings that need escapes, complex numbers, 1-D, 2-D and empty arrays,
    tuples, nested empty containers, subclasses of dict and tuple, and keys
    that are not strings."""
    return {
        "floats": [0.1, np.float64(2.0), np.float32(0.1), -0.0, float("inf"), float("-inf"),
                   5e-324, 1e16, 1e17, {"v": np.float64(-0.0)}, {"w": float("inf")}],
        "ints": [0, -7, 2**70, np.int64(-3), np.int32(5), {"i": np.int64(9)}],
        "atoms": [True, False, None, {"t": True, "f": False, "n": None}],
        "strings": ["", "quote\" back\\ slash/", "line\nbreak\ttab\r\x00\x1f\x7f",
                    "Grüße ω \U0001f600", {"s": "é"}],
        "complex": [complex(1.5, -2.0), {"z": complex(0.0, -0.0)}],
        "arrays": [np.array([1.0, -0.0, np.inf]), np.array([[1, 2], [3, 4]]), np.zeros(0),
                   np.zeros((0, 3)), np.array([[0.5]]), {"a": np.array([1.5, 2.5])}],
        "tuple": (1, (2.5, ()), ("x",)),
        "empty": [[], {}, (), [[]], [{}], {"e": {}}, {"l": []}],
        "subclasses": [collections.OrderedDict([("b", 1.0), ("a", 2)]), Pair(1.0, "p")],
        3: "int key",
        "é": "non-ascii key",
    }


# every_accepted_type() as the writer of rotform 0.1.0 rendered it, before
# the writer dispatched on exact types.
EVERY_ACCEPTED_TYPE_TEXT = r"""{
  "floats": [
    0.10000000000000001,
    2.0,
    0.10000000149011612,
    -0.0,
    "inf",
    "-inf",
    4.9406564584124654e-324,
    10000000000000000.0,
    1e+17,
    {
      "v": -0.0
    },
    {
      "w": "inf"
    }
  ],
  "ints": [
    0,
    -7,
    1180591620717411303424,
    -3,
    5,
    {
      "i": 9
    }
  ],
  "atoms": [
    true,
    false,
    null,
    {
      "t": true,
      "f": false,
      "n": null
    }
  ],
  "strings": [
    "",
    "quote\" back\\ slash/",
    "line\nbreak\ttab\r\u0000\u001f\u007f",
    "Gr\u00fc\u00dfe \u03c9 \ud83d\ude00",
    {
      "s": "\u00e9"
    }
  ],
  "complex": [
    {
      "re": 1.5,
      "im": -2.0
    },
    {
      "z": {
        "re": 0.0,
        "im": -0.0
      }
    }
  ],
  "arrays": [
    [
      1.0,
      -0.0,
      "inf"
    ],
    [
      [
        1,
        2
      ],
      [
        3,
        4
      ]
    ],
    [],
    [],
    [
      [
        0.5
      ]
    ],
    {
      "a": [
        1.5,
        2.5
      ]
    }
  ],
  "tuple": [
    1,
    [
      2.5,
      []
    ],
    [
      "x"
    ]
  ],
  "empty": [
    [],
    {},
    [],
    [
      []
    ],
    [
      {}
    ],
    {
      "e": {}
    },
    {
      "l": []
    }
  ],
  "subclasses": [
    {
      "b": 1.0,
      "a": 2
    },
    [
      1.0,
      "p"
    ]
  ],
  "3": "int key",
  "\u00e9": "non-ascii key"
}
"""


class TestRenderReport:
    def test_floats_carry_seventeen_digits(self):
        text = render_report({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trips_through_json(self):
        doc = {"a": [1.5, -0.0, 2.0], "b": {"c": True, "d": None, "e": "s"}}
        parsed = json.loads(render_report(doc))
        assert parsed["a"] == [1.5, -0.0, 2.0]
        assert parsed["b"] == {"c": True, "d": None, "e": "s"}

    def test_every_accepted_type_renders_to_fixed_text(self):
        doc = {
            "nested": {"inner": {"k": 1}},
            "empty_dict": {},
            "empty_list": [],
            "tuple": (1, 2.5),
            "atoms": [True, None, "Grüße, ∑ ω"],
            "ints": [7, np.int64(-3)],
            "floats": [1 / 3, -0.0, 1e-300, 1e300, float("inf"), float("-inf"),
                       np.float64(0.1)],
            "complex": complex(1.5, -2.0),
            "array": np.array([[1.0, 2.0], [3.0, 4.5]]),
        }
        expected = textwrap.dedent("""\
            {
              "nested": {
                "inner": {
                  "k": 1
                }
              },
              "empty_dict": {},
              "empty_list": [],
              "tuple": [
                1,
                2.5
              ],
              "atoms": [
                true,
                null,
                "Gr\\u00fc\\u00dfe, \\u2211 \\u03c9"
              ],
              "ints": [
                7,
                -3
              ],
              "floats": [
                0.33333333333333331,
                -0.0,
                1e-300,
                1.0000000000000001e+300,
                "inf",
                "-inf",
                0.10000000000000001
              ],
              "complex": {
                "re": 1.5,
                "im": -2.0
              },
              "array": [
                [
                  1.0,
                  2.0
                ],
                [
                  3.0,
                  4.5
                ]
              ]
            }
            """)
        assert render_report(doc) == expected

    def test_unsupported_type_is_input_error(self):
        with pytest.raises(InputError, match="cannot serialise"):
            render_report({"x": {1, 2}})

    def test_every_accepted_type_matches_the_recorded_text(self):
        assert render_report(every_accepted_type()) == EVERY_ACCEPTED_TYPE_TEXT

    @pytest.mark.parametrize("value", [{1, 2}, np.bool_(True), [np.bool_(False)],
                                       np.complex64(1.0), np.array([{1}], dtype=object), b"x"])
    def test_refused_types_stay_refused(self, value):
        with pytest.raises(InputError, match="cannot serialise"):
            render_report({"x": value})

    @pytest.mark.parametrize("value", [float("nan"), np.float64("nan"), np.array([1.0, np.nan]),
                                       complex(float("nan"), 0.0), (0.5, [float("nan")])])
    def test_nan_anywhere_is_numerical_error(self, value):
        with pytest.raises(NumericalError, match="NaN"):
            render_report({"x": value})

    @pytest.mark.parametrize("value, text", [
        (1e16, "10000000000000000.0"),
        (1e17, "1e+17"),
        (-0.0, "-0.0"),
        (5e-324, "4.9406564584124654e-324"),
        (123456789012345678.0, "1.2345678901234568e+17"),
        (np.float64(2.0), "2.0"),
        (float("inf"), '"inf"'),
        (float("-inf"), '"-inf"'),
    ])
    def test_float_text_in_a_list_and_as_a_dict_value(self, value, text):
        assert render_report([1.5, value, 0.25]) == f"[\n  1.5,\n  {text},\n  0.25\n]\n"
        assert render_report({"a": 1.5, "v": value}) == f'{{\n  "a": 1.5,\n  "v": {text}\n}}\n'

    @pytest.mark.parametrize("doc", [[1.0, float("nan")], {"a": 1.0, "v": float("nan")}])
    def test_nan_entry_is_numerical_error_and_exits_three(self, doc, monkeypatch, capsys):
        with pytest.raises(NumericalError, match="NaN"):
            render_report(doc)
        monkeypatch.setitem(rotform.cli._COMMANDS, "identities", lambda request: doc)
        assert main(["identities"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NaN" in captured.err

    def test_keys_render_as_json_strings(self):
        keys = ["plain_key 1,2", 'quote"d', "back\\slash", "tab\t", "del\x7f", "Grüße", "ω"]
        expected = "{\n" + ",\n".join(f"  {json.dumps(k)}: 1" for k in keys) + "\n}\n"
        assert render_report({k: 1 for k in keys}) == expected


class TestCommands:
    def test_analyze_shear_example(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "3 1 0\n0 3 0\n0 0 1\n")
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--input", matrix, "--output", out]) == 0
        doc = json.loads(open(out).read())
        eigs = [(e["value"], e["geometric_multiplicity"])
                for e in doc["spectral"]["real_eigenvalues"]]
        assert eigs == [[1.0, 1], [3.0, 1]] or eigs == [(1.0, 1), (3.0, 1)]
        bromwich = doc["spectral"]["bromwich"]
        assert bromwich["real_min"] == pytest.approx(1.0)
        assert bromwich["real_max"] == pytest.approx(3.5)
        assert bromwich["imag_min"] == pytest.approx(-0.5)
        assert not doc["normality"]["is_normal"]

    def test_analyze_round_trips_input_matrix(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.uniform(-1, 1, (3, 3))
        rows = "\n".join(" ".join(repr(float(v)) for v in row) for row in A)
        matrix = write(tmp_path, "m.txt", rows + "\n")
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--input", matrix, "--output", out]) == 0
        doc = json.loads(open(out).read())
        echoed = np.array(doc["input"]["rows"])
        assert echoed.tobytes() == A.tobytes()

    def test_analyze_expansion_basis(self, tmp_path):
        matrix = write(tmp_path, "m.txt", "3 1 0\n0 3 0\n0 0 1\n")
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--input", matrix, "--basis", "expansion",
                     "--output", out]) == 0
        doc = json.loads(open(out).read())
        B = np.array(doc["matrix_in_basis"])
        np.testing.assert_allclose(B, [[3.5, -0.5, 0.0], [0.5, 2.5, 0.0], [0.0, 0.0, 1.0]],
                                   atol=1e-10)

    def test_analyze_at_1e200_reports_a_finite_norm_identity_gap(self, tmp_path):
        # relative to |Xu|^2, the gap is a rounding error whatever the scale of A
        A = 1e200 * np.random.default_rng(21).uniform(-1.0, 1.0, (3, 3))
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--input", write(tmp_path, "m.txt", _grid(A)),
                     "--output", out]) == 0
        gap = json.loads(open(out).read())["forms"]["decomposition_probe"]["norm_identity_gap"]
        assert isinstance(gap, float) and 0.0 <= gap < 1e-14

    def test_analyze_at_1e200_reports_a_finite_commutator_norm(self, tmp_path):
        # relative to max|X|^2, the commutator of a non-normal matrix stays O(1)
        A = 1e200 * np.random.default_rng(21).uniform(-1.0, 1.0, (3, 3))
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--input", write(tmp_path, "m.txt", _grid(A)),
                     "--output", out]) == 0
        normality = json.loads(open(out).read())["normality"]
        assert not normality["is_normal"]
        assert isinstance(normality["commutator_norm"], float)
        assert 1e-3 < normality["commutator_norm"] < 10.0

    @pytest.mark.parametrize("A", [
        pytest.param(np.diag([1.0, 1.0, 3.0]) + _SKEW[:3, :3], id="diag(1, 1, 3)"),
        pytest.param(_Q @ np.diag([1.0, 1.0, 3.0, 2.0]) @ _Q.T + _SKEW, id="Q diag(1, 1, 3, 2) Q^T"),
        pytest.param(np.diag([1.0, 1.0, 1.0, 3.0]) + _SKEW, id="diag(1, 1, 1, 3)"),
    ])
    def test_expansion_basis_pairs_index_the_printed_matrix(self, tmp_path, A):
        # tied expansion eigenvalues keep index order in the split of matrix_in_basis
        path = write(tmp_path, "m.txt", _grid(A))
        docs = {}
        for basis in ("given", "expansion"):
            out = str(tmp_path / f"{basis}.json")
            assert main(["analyze", "--input", path, "--basis", basis, "--output", out]) == 0
            docs[basis] = json.loads(open(out).read())
        pairs = docs["expansion"]["normality"]["violating_pairs"]
        traces = docs["expansion"]["forms"]["rotation_traces"]
        assert pairs
        for pair in pairs:
            assert pair["rotation_trace"] == traces[f"{pair['i']},{pair['j']}"]
        assert [(p["i"], p["j"]) for p in docs["given"]["normality"]["violating_pairs"]] == [
            (p["i"], p["j"]) for p in pairs]

    def test_analyze_skew_canonical_basis(self, tmp_path):
        matrix = write(tmp_path, "m.txt", "3 1 0\n0 3 0\n0 0 1\n")
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--input", matrix, "--basis", "skew-canonical",
                     "--output", out]) == 0
        doc = json.loads(open(out).read())
        B = np.array(doc["matrix_in_basis"])
        skew = 0.5 * (B - B.T)
        # reduced skew part is a single rate-1/2 block plus a kernel direction
        np.testing.assert_allclose(
            skew, [[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]], atol=1e-9
        )

    def test_analyze_one_by_one(self, tmp_path):
        matrix = write(tmp_path, "m.txt", "4.5\n")
        out = str(tmp_path / "report.json")
        assert main(["analyze", "--input", matrix, "--output", out]) == 0
        doc = json.loads(open(out).read())
        entry = doc["spectral"]["real_eigenvalues"][0]
        assert entry["value"] == 4.5 and entry["geometric_multiplicity"] == 1

    def test_planar_rotation(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "0 -1\n1 0\n")
        assert main(["planar", "--input", matrix]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["planar"]["classification"] == "complex"
        assert doc["planar"]["zero_count"] == 0

    def test_planar_jordan_block(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "2 1\n0 2\n")
        assert main(["planar", "--input", matrix]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["planar"]["classification"] == "repeated-gm1"
        assert doc["planar"]["zero_count"] == 1

    def test_identities_seeded_matrix(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["identities", "--seed", "11", "--params", "n=4",
                     "--output", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["input"]["n"] == 4
        assert "collings_skipped" not in doc["invariants"]
        residuals = doc["invariants"]["residuals"]
        assert "n4_det" in residuals
        for key, value in residuals.items():
            assert value < 1e-9, (key, value)

    def test_identities_deterministic_bytes(self, tmp_path):
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        assert main(["identities", "--seed", "5", "--params", "n=4", "--output", out1]) == 0
        assert main(["identities", "--seed", "5", "--params", "n=4", "--output", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_identities_skips_collings_above_its_limit(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["identities", "--params", "n=21", "--output", out]) == 0
        section = json.loads(open(out).read())["invariants"]
        assert section["collings_residual"] is None
        assert "21 > 20" in section["collings_skipped"]
        assert len(section["principal_minor_sums"]) == 21

    def test_identities_n32_minor_sums_match_exact(self, tmp_path):
        # The former trace recurrence was off by 4.2e-7 relative in pm^32 here.
        out = str(tmp_path / "report.json")
        assert main(["identities", "--params", "n=32", "--seed", "0", "--output", out]) == 0
        pm = json.loads(open(out).read())["invariants"]["principal_minor_sums"]
        A = np.random.default_rng(0).uniform(-1.0, 1.0, (32, 32))
        mass = np.poly(-np.abs(np.linalg.eigvals(A)))[1:]
        for k, exact in enumerate(minor_sums_exact(A), start=1):
            assert abs(Fraction(pm[k - 1]) - exact) <= 1e-12 * mass[k - 1], k
        assert pm[-1] == pytest.approx(np.linalg.det(A), rel=1e-13)

    def test_identities_hilbert8_determinant(self, tmp_path):
        # det H_8 = 2.74e-33; the former trace recurrence reported pm^8 = 1.8e-15.
        H = 1.0 / (np.arange(8)[:, None] + np.arange(8)[None, :] + 1.0)
        matrix = write(tmp_path, "hilbert8.txt",
                       "".join(" ".join(repr(x) for x in row) + "\n" for row in H.tolist()))
        out = str(tmp_path / "report.json")
        assert main(["identities", "--input", matrix, "--output", out]) == 0
        pm = json.loads(open(out).read())["invariants"]["principal_minor_sums"]
        for k, exact in enumerate(minor_sums_exact(H), start=1):
            assert abs(Fraction(pm[k - 1]) - exact) <= 1e-8 * exact, k

    def test_identities_minor_sum_anchor_failure_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(rotform.linalg, "_pm2", lambda M: 1e3)
        assert main(["identities", "--params", "n=5"]) == 3
        assert "pm^2" in capsys.readouterr().err

    def test_frenet_helix(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["frenet", "--field", "helix", "--params", "c=0.5",
                     "--point", "1,0,0", "--output", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["kappa"] == pytest.approx(0.8, abs=1e-6)
        assert doc["tau"] == pytest.approx(0.4, abs=1e-6)
        assert doc["model_comparison"]["delta_12"] == pytest.approx(0.8, abs=1e-6)

    def test_frenet_point_from_radius_param(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["frenet", "--field", "circular", "--params", "r=2",
                     "--output", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["kappa"] == pytest.approx(0.5, abs=1e-6)
        assert doc["tau"] == pytest.approx(0.0, abs=1e-6)

    def test_frenet_grid_file(self, tmp_path):
        import rotform

        base = rotform.helix_field(0.5)
        h, m = 0.02, 9
        origin = np.array([1.0, 0.0, 0.0]) - h * (m // 2)
        values = np.zeros((m, m, m, 3))
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    values[i, j, k] = base.at(origin + h * np.array([i, j, k]))
        spec = {"origin": origin.tolist(), "spacing": [h, h, h], "values": values.tolist()}
        field_path = write(tmp_path, "field.json", json.dumps(spec))
        out = str(tmp_path / "report.json")
        assert main(["frenet", "--field", f"file:{field_path}",
                     "--point", "1,0,0", "--output", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["kappa"] == pytest.approx(0.8, abs=1e-2)


class TestRunRequest:
    def test_run_accepts_request_objects(self, tmp_path):
        matrix = write(tmp_path, "m.txt", "0 -1\n1 0\n")
        out = str(tmp_path / "report.json")
        request = AnalysisRequest(command="planar", input_path=matrix, output_path=out)
        assert run(request) == 0
        doc = json.loads(open(out).read())
        assert doc["planar"]["classification"] == "complex"

    def test_run_rejects_unknown_command(self):
        with pytest.raises(InputError):
            run(AnalysisRequest(command="transmogrify"))


class TestExitCodes:
    def test_missing_input_is_input_error(self, capsys):
        assert main(["analyze"]) == 2
        assert "input" in capsys.readouterr().err

    def test_malformed_matrix_exits_two_with_location(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 2\n3 oops\n")
        assert main(["analyze", "--input", matrix]) == 2
        err = capsys.readouterr().err
        assert ":2:3:" in err

    @pytest.mark.parametrize("command", ["planar", "analyze"])
    def test_entries_above_the_limit_exit_two_without_warning(self, tmp_path, capsys, command):
        matrix = write(tmp_path, "m.txt", "1e308 -1e308\n1e308 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--input", matrix]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max float / 4" in captured.err

    @pytest.mark.parametrize("source", ["params", "input"])
    def test_identities_past_the_dimension_limit_exit_two(self, tmp_path, capsys, source):
        if source == "params":
            argv = ["identities", "--params", "n=100000000"]
        else:
            n = IDENTITIES_MAX_DIM + 1
            argv = ["identities", "--input", write(tmp_path, "m.txt", _grid(np.eye(n)))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("input error: dimension must be <= IDENTITIES_MAX_DIM")

    def test_identities_at_the_dimension_limit_exits_zero(self, tmp_path):
        argv = ["identities", "--params", f"n={IDENTITIES_MAX_DIM}", "--output", str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert json.loads(open(tmp_path / "r.json").read())["input"]["n"] == IDENTITIES_MAX_DIM

    def test_unknown_tolerance_rejected(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 0\n0 1\n")
        assert main(["analyze", "--input", matrix, "--tol", "bogus=1"]) == 2

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ToleranceConfig)])
    def test_every_tolerance_field_can_be_set(self, tmp_path, name):
        matrix = write(tmp_path, "m.txt", "2 1 0\n1 3 1\n0 1 4\n")
        value = 10 * getattr(DEFAULT_TOL, name)
        assert main(["analyze", "--input", matrix, "--tol", f"{name}={value!r}",
                     "--output", str(tmp_path / "r.json")]) == 0
        doc = json.loads(open(tmp_path / "r.json").read())
        assert doc["tolerances"] == {**dataclasses.asdict(DEFAULT_TOL), name: value}

    def test_tolerance_override_applies(self, tmp_path):
        matrix = write(tmp_path, "m.txt", "1 0\n0 1\n")
        assert main(["analyze", "--input", matrix, "--tol", "residual_tol=1e-6",
                     "--output", str(tmp_path / "r.json")]) == 0
        doc = json.loads(open(tmp_path / "r.json").read())
        assert doc["tolerances"]["residual_tol"] == 1e-6

    def test_infinite_tolerance_rejected(self, tmp_path):
        matrix = write(tmp_path, "m.txt", "2 1 0\n1 3 1\n0 1 4\n")
        assert main(["analyze", "--input", matrix, "--tol", "residual_tol=inf"]) == 2

    def test_unreachable_eigen_certificate_exits_three(self, tmp_path):
        matrix = write(tmp_path, "m.txt", "2 1 0\n1 3 1\n0 1 4\n")
        assert main(["analyze", "--input", matrix, "--tol", "eig_off_tol=1e-300"]) == 3

    @pytest.mark.parametrize("argv, certificate", [
        (["--params", "n=5", "--tol", "residual_tol=1e-30"], "minor sum pm^2"),
        (["--params", "n=4", "--tol", "eig_off_tol=1e-300"], "eigenbasis certificate failed"),
    ])
    def test_identities_judges_at_the_tolerances_it_prints(self, capsys, argv, certificate):
        # the minor-sum anchors and the n = 4 audit's eigen-solve read --tol
        assert main(["identities", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and certificate in captured.err

    def test_identities_prints_the_tolerance_it_passes_at(self, tmp_path):
        out = str(tmp_path / "r.json")
        argv = ["identities", "--params", "n=5", "--tol", "residual_tol=1e-6", "--output", out]
        assert main(argv) == 0
        assert json.loads(open(out).read())["tolerances"]["residual_tol"] == 1e-6

    def test_basis_flag_limited_to_analyze(self, tmp_path):
        matrix = write(tmp_path, "m.txt", "0 -1\n1 0\n")
        assert main(["planar", "--input", matrix, "--basis", "expansion"]) == 2

    @pytest.mark.parametrize("command, option", [
        ("analyze", "--field"), ("analyze", "--params"), ("analyze", "--point"),
        ("planar", "--field"), ("planar", "--params"), ("planar", "--point"),
        ("identities", "--field"), ("identities", "--point"),
        ("frenet", "--input"), ("frenet", "--tol"),
    ])
    def test_every_command_refuses_an_option_it_does_not_read(self, tmp_path, capsys,
                                                              command, option):
        value = {"--field": "helix", "--params": "c=0.5", "--point": "1,0,0",
                 "--input": write(tmp_path, "m.txt", "1 2\n3 4\n"), "--tol": "rank_tol=5"}
        argv = {"analyze": ["--input", value["--input"]], "planar": ["--input", value["--input"]],
                "identities": [], "frenet": ["--field", "helix", "--point", "1,0,0"]}[command]
        assert main([command, *argv]) == 0
        capsys.readouterr()
        assert main([command, *argv, option, value[option]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {option} applies to the ")

    def test_an_unread_option_names_the_commands_that_read_it(self, capsys):
        assert main(["frenet", "--field", "helix", "--point", "1,0,0", "--tol", "rank_tol=5"]) == 2
        assert capsys.readouterr().err == (
            "input error: --tol applies to the analyze, planar and identities commands only\n")
        assert main(["identities", "--basis", "expansion"]) == 2
        assert capsys.readouterr().err == "input error: --basis applies to the analyze command only\n"

    def test_skew_basis_on_symmetric_matrix_is_input_error(self, tmp_path):
        matrix = write(tmp_path, "m.txt", "1 0\n0 2\n")
        assert main(["analyze", "--input", matrix, "--basis", "skew-canonical"]) == 2

    def test_missing_file(self, capsys):
        assert main(["analyze", "--input", "/nonexistent/m.txt"]) == 2

    def test_frenet_rejects_unknown_field(self):
        assert main(["frenet", "--field", "vortex", "--point", "1,0,0"]) == 2

    def test_frenet_straight_flow_is_input_error(self, tmp_path):
        # constant grid field: curvature is exactly zero
        values = np.zeros((3, 3, 3, 3))
        values[..., 2] = 1.0
        spec = {"origin": [-1, -1, -1], "spacing": [1, 1, 1], "values": values.tolist()}
        field_path = write(tmp_path, "field.json", json.dumps(spec))
        assert main(["frenet", "--field", f"file:{field_path}", "--point", "0,0,0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["identities", "--params", "n=nan"],
        ["identities", "--params", "n=2.5"],
        ["identities", "--params", "n=inf"],
        ["frenet", "--field", "helix", "--params", "c=inf", "--point", "1,0,0"],
        ["frenet", "--field", "circular", "--params", "r=-inf"],
    ])
    def test_params_must_be_finite_with_integer_n(self, argv, capsys):
        assert main(argv) == 2
        assert "input error: parameter" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 2\n3 4\n")
        assert main(["identities", "--seed", "-1"]) == 2
        assert main(["analyze", "--input", matrix, "--seed", "-1"]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err


def _grid(A):
    return "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in A)


def _fresh_process(argv, tmp_path):
    """Run the CLI in a new interpreter; returns (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rotform.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys; from rotform.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestProcessLevel:
    def test_parser_keeps_no_state_between_calls(self, tmp_path):
        first, second = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["identities", "--seed", "3", "--params", "n=5",
                     "--tol", "residual_tol=1e-6", "--output", first]) == 0
        assert main(["identities", "--seed", "3", "--output", second]) == 0
        code, out, err = _fresh_process(["identities", "--seed", "3"], tmp_path)
        assert (code, err) == (0, "")
        assert open(second).read() == out
        assert json.loads(out)["input"]["n"] == 4
        assert json.loads(out)["tolerances"]["residual_tol"] == 1e-9

    def test_analyze_large_random_matrix(self, tmp_path):
        A = np.random.default_rng(32).standard_normal((32, 32))
        matrix = write(tmp_path, "m.txt", _grid(A))
        code, out, err = _fresh_process(["analyze", "--input", matrix], tmp_path)
        assert (code, err) == (0, "")
        spectral = json.loads(out)["spectral"]
        count = sum(e["geometric_multiplicity"] for e in spectral["real_eigenvalues"])
        count += 2 * sum(p["multiplicity"] for p in spectral["complex_pairs"])
        assert count == 32

    @pytest.mark.parametrize("module", ["rotform", "rotform.cli"])
    @pytest.mark.parametrize("argv, code", [
        pytest.param(["identities", "--seed", "3", "--params", "n=3"], 0, id="identities"),
        pytest.param(["analyze"], 2, id="malformed"),
    ])
    def test_python_m_runs_a_request_as_main_does(self, tmp_path, capsys, module, argv, code):
        src = os.path.dirname(os.path.dirname(os.path.abspath(rotform.__file__)))
        proc = subprocess.run([sys.executable, "-m", module, *argv], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert main(argv) == code
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)
        assert proc.stdout if code == 0 else "analyze needs --input" in proc.stderr

    @pytest.mark.parametrize("n", [3, 6])
    def test_overflow_to_nan_is_numerical_error(self, tmp_path, n):
        A = 1e150 * np.random.default_rng(0).uniform(-1.0, 1.0, (n, n))
        matrix = write(tmp_path, "m.txt", _grid(A))
        code, out, err = _fresh_process(["identities", "--input", matrix], tmp_path)
        assert (code, out) == (3, "")
        assert "numerical error" in err and "input error" not in err

    @pytest.mark.parametrize("A, code", [
        pytest.param([[1e200]], 0, id="1x1"),
        pytest.param(1e155 * np.random.default_rng(0).uniform(-1.0, 1.0, (3, 3)), 3, id="3x3"),
        pytest.param([[0.0, 1e155, 0.0], [-1e155, 0.0, 0.0], [0.0, 0.0, 0.0]], 3,
                     id="3x3-traceless"),
    ])
    def test_only_a_minor_sum_past_the_double_range_refuses(self, tmp_path, A, code):
        # Every identity is formed on A / binary_scale(A); what can leave the
        # double range is a reported value, here pm^2 of about 1e310.
        A = np.asarray(A)
        matrix = write(tmp_path, "m.json", json.dumps({"n": len(A), "rows": A.tolist()}))
        got, out, err = _fresh_process(["identities", "--input", matrix], tmp_path)
        assert got == code
        if code == 0:
            assert err == ""
            assert json.loads(out)["invariants"]["principal_minor_sums"] == [1e200]
        else:
            assert out == "" and err.count("\n") == 1
            assert err.startswith("numerical error: minor sum pm^2 = ")
            assert err.endswith("leaves the double range\n")

    @pytest.mark.parametrize("scale", [1e-300, 1e-60, 1e100, 1e155, 1e300])
    def test_extreme_scales_end_in_a_report_or_one_error_line(self, tmp_path, scale):
        # No traceback and no numpy warning at any scale: each request exits
        # 0, 2 or 3 with nothing on stderr but its error line.  The requests
        # of one scale run side by side, each in its own interpreter.
        rng = np.random.default_rng(17)
        square = write(tmp_path, "m3.txt", _grid(scale * rng.uniform(-1.0, 1.0, (3, 3))))
        planar = write(tmp_path, "m2.txt", _grid(scale * rng.uniform(-1.0, 1.0, (2, 2))))
        requests = [["identities", "--input", square], ["planar", "--input", planar]]
        requests += [["analyze", "--input", square, "--basis", basis]
                     for basis in ("given", "expansion", "skew-canonical")]
        with ThreadPoolExecutor(len(requests)) as pool:
            results = pool.map(lambda argv: _fresh_process(argv, tmp_path), requests)
            for argv, (code, _, err) in zip(requests, results):
                assert code in (0, 2, 3), (argv, err)
                assert err.count("\n") == (code != 0), (argv, err)


class TestCollingsResidual:
    def test_scale_free_against_a_wrong_expansion(self, tmp_path, monkeypatch):
        A = np.random.default_rng(6).uniform(-1.0, 1.0, (6, 6))
        monkeypatch.setattr(invariants, "collings_det", lambda Dd, B: 0.0)
        residuals = []
        for c in (1.0, 1e-6):
            path = write(tmp_path, f"m{c}.txt", _grid(c * A))
            out = str(tmp_path / f"r{c}.json")
            assert main(["identities", "--input", path, "--output", out]) == 0
            residuals.append(json.loads(open(out).read())["invariants"]["collings_residual"])
        assert residuals[1] == pytest.approx(residuals[0], rel=1e-9)
        assert residuals[1] > 1e-3


class TestIdentitiesParams:
    """identities reads the parameter n, and only when no --input file sets n;
    it refuses any other parameter with exit 2 and one line naming it."""

    @pytest.mark.parametrize("params, with_input, message", [
        ("foo=1", False, "identities does not read parameter 'foo'"),
        ("n=3,c=2", False, "identities does not read parameter 'c'"),
        ("n=3", True, "identities does not read parameter 'n' beside --input, whose file sets n"),
    ], ids=["unknown", "beside n", "n beside input"])
    def test_an_unread_parameter_exits_two(self, tmp_path, capsys, params, with_input, message):
        source = ["--input", write(tmp_path, "m.txt", "1 2\n3 4\n")] if with_input else []
        assert main(["identities", *source, "--output", str(tmp_path / "r.json")]) == 0
        assert main(["identities", *source, "--params", params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"


# sha256 of the report of `rotform identities --seed 7 --params n=N`
_IDENTITIES_SHA256 = {
    1: "59cc9255723874e82d7e7f695c64a5a3a247e04d25d583b7225885149bbe0a07",
    3: "67e95b5e90c263495d89696b0bcfa2572048c146cfea8eb42c781aec27099f2c",
    4: "96e45b902acfdf388fd57fd3e84aa0cbb50f24b6de07ab996691c003881c37c7",
    9: "e356cd5f52b716552c047c435b84be656f90b8c23c1347c2c1f7555d4bba7cc5",
    16: "3a173f7d4b37fcccea41c3823774fc878e614eccbdb66774279a205ac706b234",
}


@pytest.mark.parametrize("n", sorted(_IDENTITIES_SHA256))
def test_identities_reports_keep_their_bytes(capsys, n):
    assert main(["identities", "--seed", "7", "--params", f"n={n}"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _IDENTITIES_SHA256[n]


# sha256 of the report of `rotform analyze --seed 7 --basis B` on uniform(-1, 1) from
# default_rng(n), the same bytes from a grid file and from a JSON matrix object
_ANALYZE_SHA256 = {
    (2, "given"): "416d1ea60b02db50259e14c23de7ea41c4262e8d8d8c7e70284fd6bab05127ff",
    (2, "expansion"): "a5830705ade28e87aa83fef8316edb12c4c120fdc1a9db2bd58f5e396f3fbe77",
    (2, "skew-canonical"): "070b6fb5399a0a903e4b1f70d4e06b95603a4344a3ce0d5c133aaf2784377822",
    (3, "given"): "a11f309639e8844792d3ac42a5dc950342375a3b568b10c7715ddcf533f36242",
    (3, "expansion"): "eac8beb4df57ae6472766ab103657afeff5b5c47a38f8946b1080f7d46c8fe50",
    (3, "skew-canonical"): "90b7edb3c8b38e87b5198ace1eed0762e1b4b8194535c59efb61eeea55f26b79",
    (4, "given"): "feea6d2cb80f1dc94c504fb1fba9caecf43f70258b019194dcbf83e2fff7a637",
    (4, "expansion"): "8f10a8f43298b58c3053ceced1068938571f45b65e384ef129668635899c2e7e",
    (4, "skew-canonical"): "0ce299981b84d99031c1e7f31214c8b6639a8fe54bbec75e0178dfb2ee9e69e2",
    (6, "given"): "5b96f4edbcaac7ac2c811610649fbc496d2924cf6e129ea8116f0c5820ee0005",
    (6, "expansion"): "2ff1ceee21a08e0c2e202b10ba602e00f0663377cbe4070e07ab007aacfb5d61",
    (6, "skew-canonical"): "69706eecae2b47fdf2bdaf9becd0a018a907aea5398f68402eaaa7aa60e6e799",
}


@pytest.mark.parametrize("form", ["grid", "json"])
@pytest.mark.parametrize("n, basis", sorted(_ANALYZE_SHA256))
def test_analyze_reports_keep_their_bytes(tmp_path, capsys, n, basis, form):
    rows = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n)).tolist()
    if form == "grid":
        path = write(tmp_path, "m.txt", "".join(" ".join(map(repr, row)) + "\n" for row in rows))
    else:
        path = write(tmp_path, "m.json", json.dumps({"n": n, "rows": rows}))
    assert main(["analyze", "--seed", "7", "--input", path, "--basis", basis]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _ANALYZE_SHA256[n, basis]


class TestRefusals:
    """Each refusal of a malformed request: exit 2 and its one stderr line, names
    relative to the working directory; and of a certificate that cannot be met: exit 3."""

    FILES = {"keys.json": '{"n": 2}', "zero.json": '{"n": 0, "rows": []}',
             "true.json": '{"n": true, "rows": [[2.5]]}',
             "short.json": '{"n": 2, "rows": [[1, 2], [3]]}', "blank.txt": "\n  \n",
             "three.txt": "1 2 3\n4 5 6\n7 8 9\n", "broken.json": "{",
             "nogrid.json": '{"origin": [0, 0, 0], "values": []}'}

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--input", "keys.json"], "keys.json: matrix object needs keys 'n' and 'rows'"),
        (["analyze", "--input", "zero.json"], "zero.json: 'n' must be a positive integer, got 0"),
        (["analyze", "--input", "true.json"],
         "true.json: 'n' must be a positive integer, got True"),
        (["analyze", "--input", "short.json"], "short.json: row 2 must hold 2 numbers"),
        (["planar", "--input", "blank.txt"], "blank.txt: no matrix data found"),
        (["frenet", "--point", "1,0,0"], "frenet command needs --field"),
        (["frenet", "--field", "file:missing.json", "--point", "1,0,0"],
         "cannot read missing.json: No such file or directory"),
        (["frenet", "--field", "file:broken.json", "--point", "1,0,0"],
         "broken.json:1:2: invalid JSON: Expecting property name enclosed in double quotes"),
        (["frenet", "--field", "file:nogrid.json", "--point", "1,0,0"],
         "nogrid.json: grid field needs key 'spacing'"),
        (["frenet", "--field", "helix"], "frenet command needs --point (or a radius parameter r)"),
        (["analyze", "--input", "three.txt", "--tol", "rank_tol"],
         "tolerance override must look like name=value, got 'rank_tol'"),
        (["analyze", "--input", "three.txt", "--tol", "rank_tol=x"],
         "tolerance 'rank_tol' needs a numeric value, got 'x'"),
        (["identities", "--params", "n"], "parameter must look like name=value, got 'n'"),
        (["identities", "--params", "n=x"], "parameter 'n' needs a numeric value, got 'x'"),
        (["frenet", "--field", "helix", "--point", "1,0"], "point must be x,y,z, got '1,0'"),
        (["frenet", "--field", "helix", "--point", "1,0,x"],
         "point coordinates must be numeric, got '1,0,x'"),
        (["frenet", "--field", "helix", "--point", "inf,0,0"], "point has non-finite coordinates"),
        (["frenet", "--field", "helix", "--point", "nan,0,0"], "point has non-finite coordinates"),
        (["identities", "--params", "n=0"], "dimension must be >= 1, got 0"),
        (["planar", "--input", "three.txt"], "planar command needs a 2x2 matrix, got 3x3"),
    ], ids=["json keys", "json n", "json n true", "json row", "empty grid", "no field",
            "field unreadable", "field JSON", "field key", "no point", "tol no =", "tol value",
            "params no =", "params value", "point count", "point value", "point inf",
            "point nan", "n=0", "planar 3x3"])
    def test_a_malformed_request_exits_two_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                         argv, message):
        monkeypatch.chdir(tmp_path)
        for name, text in self.FILES.items():
            write(tmp_path, name, text)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    @pytest.mark.parametrize("output, reason", [("missing_dir/r.json", "No such file or directory"),
                                                ("outdir", "Is a directory")])
    def test_an_unwritable_output_exits_two_and_leaves_no_file(self, tmp_path, monkeypatch, capsys,
                                                              output, reason):
        monkeypatch.chdir(tmp_path)
        os.mkdir("outdir")
        write(tmp_path, "m.txt", "0 -1\n1 0\n")
        assert main(["planar", "--input", "m.txt", "--output", output]) == 2
        assert capsys.readouterr() == ("", f"input error: cannot write {output}: {reason}\n")
        assert (sorted(os.listdir()), os.listdir("outdir")) == (["m.txt", "outdir"], [])

    RAGGED = [[[[1, 0, 0]] * 2, [[1, 0, 0]]]] * 2  # one row holds one vector, not two
    UNDECODABLE = ("cannot read {}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte")

    @pytest.mark.parametrize("argv, content, message", [
        (["frenet", "--field", "file:g.json", "--point", "1,0,0"], b"3",
         "g.json: grid field must be a JSON object"),
        (["frenet", "--field", "file:g.json", "--point", "1,0,0"],
         json.dumps({"origin": "x", "spacing": [1, 1, 1], "values": []}).encode(),
         "grid origin must be a regular array of numbers"),
        (["frenet", "--field", "file:g.json", "--point", "1,0,0"],
         json.dumps({"origin": [0, 0, 0], "spacing": [1, 1, 1], "values": RAGGED}).encode(),
         "grid values must be a regular array of numbers"),
        (["planar", "--input", "g.json"], b"\xff\xfe1 2\n3 4\n", UNDECODABLE.format("g.json")),
        (["frenet", "--field", "file:g.json", "--point", "1,0,0"], b"\xff\xfe{}",
         UNDECODABLE.format("g.json")),
    ], ids=["grid not an object", "grid origin", "grid ragged values", "input not UTF-8",
            "field not UTF-8"])
    def test_a_malformed_file_exits_two_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                      argv, content, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_bytes(content)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    @staticmethod
    def helix_grid():
        """The 5^3 helix grid (c = 0.5, spacing 0.02) centred at the query point 1,0,0."""
        base, h = rotform.helix_field(0.5), 0.02
        origin = np.array([1.0, 0.0, 0.0]) - 2 * h
        values = [[[base.at(origin + h * np.array([i, j, k])).tolist() for k in range(5)]
                   for j in range(5)] for i in range(5)]
        return {"origin": origin.tolist(), "spacing": [h, h, h], "values": values}

    @pytest.mark.parametrize("bad", [None, float("nan")], ids=["null", "NaN"])
    def test_a_grid_sample_that_is_not_a_number_exits_two(self, tmp_path, monkeypatch, capsys,
                                                         bad):
        # the last sample, in a corner cell that the query never reads, as JSON null or NaN
        grid = self.helix_grid()
        grid["values"][4][4][4] = [1, 0, bad]
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "g.json", json.dumps(grid))
        assert main(["frenet", "--field", "file:g.json", "--point", "1,0,0"]) == 2
        assert capsys.readouterr() == (
            "", "input error: grid samples are not unit: worst |v| deviation nan\n")

    @pytest.mark.parametrize("key, entry", [("spacing", float("inf")), ("spacing", float("nan")),
                                            ("origin", float("nan")), ("origin", float("-inf"))],
                             ids=["spacing Infinity", "spacing NaN", "origin NaN",
                                  "origin -Infinity"])
    def test_a_grid_with_a_non_finite_origin_or_spacing_exits_two(self, tmp_path, monkeypatch,
                                                                 capsys, key, entry):
        # json reads the literals Infinity and NaN; an infinite spacing would put every query
        # in the first cell, a NaN one in none
        grid = self.helix_grid()
        grid[key][0] = entry
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "g.json", json.dumps(grid))
        assert main(["frenet", "--field", "file:g.json", "--point", "1,0,0"]) == 2
        assert capsys.readouterr() == ("", "input error: grid origin and spacing must be finite\n")

    def test_an_unreachable_split_certificate_exits_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "m.txt", _grid(np.random.default_rng(3).uniform(-1, 1, (4, 4))))
        assert main(["analyze", "--input", "m.txt", "--tol", "residual_tol=1e-17"]) == 3
        assert capsys.readouterr() == ("", "numerical error: eigenbasis failed to diagonalise "
                                           "the symmetric part: residual 4.718e-16\n")

    @pytest.mark.parametrize("part, argv, message", [
        ("symmetric", ["--tol", "residual_tol=1e-16"], "tolerance failure: eigenvector of "
         r"\S+ fails the common-zero check: rotation residual \S+ exceeds 2.220e-16; "),
        ("skew", ["--tol", "residual_tol=1e-17"],
         r"decomposition residual \S+ exceeds tolerance\n"),
        ("whole", ["--basis", "skew-canonical", "--tol", "eig_off_tol=1e-300"],
         r"skew eigenbasis certificate failed: off-diagonal norm \S+ of i K / max\|K\| in its "
         r"eigenbasis exceeds \S+\n"),
        # the Bromwich box reads the same certified solve as the skew-canonical basis
        ("skew box", ["--tol", "eig_off_tol=1e-300"],
         r"skew eigenbasis certificate failed: off-diagonal norm \S+ of i K / max\|K\| in its "
         r"eigenbasis exceeds \S+\n"),
    ])
    def test_an_unmet_certificate_exits_three_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                            part, argv, message):
        G = np.random.default_rng(0).standard_normal((4, 4))
        monkeypatch.chdir(tmp_path)
        parts = {"symmetric": G + G.T, "skew": G - G.T, "whole": G, "skew box": G - G.T}
        write(tmp_path, "m.txt", _grid(parts[part]))
        assert main(["analyze", "--input", "m.txt", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert re.match("numerical error: " + message, err), err

    def test_an_empty_params_chunk_is_skipped(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert main(["identities", "--params", "n=2,,", "--output", out]) == 0
        assert capsys.readouterr() == ("", "")
        assert json.loads(open(out).read())["input"]["n"] == 2

    def test_run_refuses_an_unknown_basis_mode(self, tmp_path):
        request = AnalysisRequest(command="analyze", input_path=write(tmp_path, "m.txt", "1 2\n3 4\n"),
                                  basis_mode="bogus")
        with pytest.raises(InputError, match="^unknown basis mode 'bogus'$"):
            run(request)


class TestFrenetParams:
    """frenet reads the parameter c only with --field helix and r only without
    --point; it refuses any other parameter with exit 2 and one line naming it."""

    @pytest.mark.parametrize("argv", [
        ["--field", "helix", "--params", "c=0.5", "--point", "1,0.2,0.1"],
        ["--field", "circular", "--params", "r=1.5"],
    ], ids=["helix c beside point", "circular r"])
    def test_a_read_parameter_exits_zero(self, tmp_path, argv):
        assert main(["frenet", *argv, "--output", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["--field", "circular", "--params", "c=0.3,foo=1,r=1.5"],
         "frenet does not read parameter 'c' beside --field circular"),
        (["--field", "circular", "--params", "foo=1,r=1.5"], "frenet does not read parameter 'foo'"),
        (["--field", "helix", "--params", "c=0.5,r=2", "--point", "1,0,0"],
         "frenet does not read parameter 'r' beside --point"),
    ], ids=["c on circular", "unknown", "r beside point"])
    def test_an_unread_parameter_exits_two(self, capsys, argv, message):
        assert main(["frenet", *argv]) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")


_COMMAND_WORDS = ["analyze", "planar", "identities", "frenet", "bogus", "--seed"]
_FLAGS = ["--input", "--basis", "--tol", "--seed", "--output", "--field", "--params", "--point",
          "--inp", "--seed=3", "--", "-h", "--bogus", "analyze"]
_VALUES = ["x.txt", "", "-1", "7", "07", " 7", "1e3", "given", "expansion", "skew-canonical",
           "bogus", "rank_tol=1e-6", "n=3", "-", "1,0,0", "-0.5,1,0", "--input", "planar"]
# a command and (option, value) pairs, or words in any order
_ARGV = st.one_of(
    st.builds(lambda c, pairs: [c, *(w for pair in pairs for w in pair)],
              st.sampled_from(_COMMAND_WORDS),
              st.lists(st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)), max_size=5)),
    st.lists(st.sampled_from(_COMMAND_WORDS + _FLAGS + _VALUES), max_size=9))


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(_ARGV)
def test_plain_args_are_what_argparse_reads(argv):
    # argv that the plain reading takes gives argparse's namespace; any other is argparse's
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(cli._PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "m.txt", "--basis", "expansion", "--seed", "17"],
    ["identities", "--params", "n=3", "--tol", "rank_tol=1e-6", "--tol", "residual_tol=1e-8"],
    ["frenet", "--field", "helix", "--point", "1,0.2,0.1", "--output", "r.json"],
    ["planar", "--input", "m.txt", "--input", "n.txt"],
])
def test_plain_args_take_the_usual_requests(argv):
    assert vars(cli._plain_args(argv)) == vars(cli._PARSER.parse_args(argv))
