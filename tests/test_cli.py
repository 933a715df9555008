import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction

import numpy as np
import pytest

import rotform
from rotform import invariants
from rotform.cli import AnalysisRequest, main, parse_matrix_text, render_report, run
from rotform.errors import InputError
from rotform.linalg import DEFAULT_TOL, ToleranceConfig

from oracles import minor_sums_exact


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        assert main(["frenet", "--field", "helix", "--params", "r=1,c=0.5",
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

    def test_basis_flag_limited_to_analyze(self, tmp_path):
        matrix = write(tmp_path, "m.txt", "0 -1\n1 0\n")
        assert main(["planar", "--input", matrix, "--basis", "expansion"]) == 2

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


    @pytest.mark.parametrize("n", [3, 6])
    def test_overflow_to_nan_is_numerical_error(self, tmp_path, n):
        A = 1e150 * np.random.default_rng(0).uniform(-1.0, 1.0, (n, n))
        matrix = write(tmp_path, "m.txt", _grid(A))
        code, out, err = _fresh_process(["identities", "--input", matrix], tmp_path)
        assert (code, out) == (3, "")
        assert "numerical error" in err and "input error" not in err


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
