"""Every layer of tools/ladder.py, run in process on its smallest size: the
rows keep the columns of the earlier BENCH files and the oracles agree; two
loads of one src tree are separate packages, timed call against call, that
agree on every cell that is not a timing."""

import ast
import glob
import importlib.util
import json
import os
import sys
import types

import numpy as np
import pytest

import rotform

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("ladder", os.path.join(_REPO, "tools", "ladder.py"))
ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder)

_TIMING = {"cpu_ms_min", "cpu_ms_spread"}
KEYS = {
    "collings_det": _TIMING | {"n", "seed", "tracemalloc_peak_mb", "error_over_mass",
                               "error_over_n_eps_mass"},
    "spectrum": _TIMING | {"function", "family", "n", "refused", "requests", "as_built",
                           "eig_error_over_maxabs"},
    "skew_canonical_basis": _TIMING | {"n", "zero_dim", "refused", "requests",
                                       "rate_error_over_maxabs"},
    "normal": _TIMING | {"function", "family", "n", "refused", "requests", "checks_max",
                         "pm_error_over_mass"},
    "frenet_report": _TIMING | {"field", "m", "spacing", "field_queries", "kappa", "tau",
                                "kappa_error", "tau_error"},
    "analyze": _TIMING | {"n", "seed", "basis", "input", "exit", "sym_eigen_calls"},
    "identities": _TIMING | {"n", "seed", "exit", "rel_calls", "pm_error_over_mass"},
    "session": _TIMING | {"analysis", "n", "sym_eigen_calls", "digest"},
}
_RATIOS = {"ratio_median", "ratio_q1", "ratio_q3", "wins"}
_SRC = os.path.join(_REPO, "src")


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(ladder, "PAIRS", 3)
    monkeypatch.setattr(ladder, "REQUESTS", 2)
    monkeypatch.setattr(ladder, "COLLINGS_SIZES", ladder.COLLINGS_SIZES[:1])
    monkeypatch.setattr(ladder, "SPECTRUM_SIZES", ladder.SPECTRUM_SIZES[:1])
    monkeypatch.setattr(ladder, "SKEW_SIZES", ladder.SKEW_SIZES[:2])
    monkeypatch.setattr(ladder, "GRID_SIZES", ladder.GRID_SIZES[:1])
    monkeypatch.setattr(ladder, "NORMAL_SIZES", ladder.NORMAL_SIZES[:1])
    monkeypatch.setattr(ladder, "IDENTITIES_SIZES", ladder.IDENTITIES_SIZES[:1])
    monkeypatch.setattr(sys, "path", sys.path[:])


def _layer(name):
    """The layer's document for one label measured in this process."""
    rows, document = ladder.LAYERS[name]
    doc = document(rows({"here": rotform}))
    for row in doc["results"]["here"]:
        assert set(row) == KEYS[name]
    return doc["results"]["here"]


def test_layers_are_the_three_blocks():
    assert set(ladder.LAYERS) == set(KEYS)


def test_collings_det_is_within_n_eps_of_the_term_mass(small):
    (row,) = _layer("collings_det")
    assert row["n"] == 4
    assert row["error_over_n_eps_mass"] < 10


def test_spectrum_matches_mpmath_and_the_construction(small):
    rows = _layer("spectrum")
    assert [(row["function"], row["family"], row["n"]) for row in rows] == [
        (name, family, 2) for name in ("real_spectrum", "eigenstructure")
        for family in ladder.SPECTRUM_FAMILIES]
    for row in rows:
        assert row["refused"] == 0 and row["requests"] == 2
        assert row["as_built"] == (None if row["family"] == "uniform" else 2)
        assert row["eig_error_over_maxabs"] < 1e-12


def test_spectrum_inputs_have_the_multiplicities_they_are_built_with():
    # 1 is double in both families: with gm 2 in clustered, gm 1 in jordan
    for n in (2, 5):
        clustered, jordan = ladder._clustered([n, 1], n), ladder._jordan([n, 1], n)
        assert np.array_equal(jordan, np.rint(jordan))
        for A, gm in ((clustered, 2), (jordan, 1)):
            np.testing.assert_allclose(np.sort(np.linalg.eigvals(A).real), ladder._diagonal(n),
                                       atol=1e-6)
            assert n - np.linalg.matrix_rank(A - np.eye(n), tol=1e-9) == gm
    assert ladder._built("jordan", "eigenstructure", 5) == [1, 1, 1, 1]
    assert ladder._built("jordan", "real_spectrum", 5) == [2, 1, 1, 1]
    assert ladder._built("clustered", "eigenstructure", 5) == [2, 1, 1, 1]


def test_spectrum_and_skew_rows_give_every_call_a_new_matrix(small, monkeypatch):
    # against a kept record, one matrix in every round would time its hits; the
    # jordan family is left out, as it has only three members at n = 2
    monkeypatch.setattr(ladder, "SPECTRUM_FAMILIES", {
        family: make for family, make in ladder.SPECTRUM_FAMILIES.items() if family != "jordan"})
    packages = {"one": ladder.load_rotform(_SRC), "two": ladder.load_rotform(_SRC)}
    seen = {}
    for label, rf in packages.items():
        for name in ("real_spectrum", "eigenstructure", "skew_canonical_basis"):
            def recorded(A, _key=(label, name), _original=getattr(rf, name)):
                seen.setdefault(_key, []).append(A.tobytes())
                return _original(A)

            setattr(rf, name, recorded)
    ladder.spectrum_rows(packages)
    ladder.skew_rows(packages)
    assert len(seen) == 6
    for key, matrices in seen.items():
        assert len(matrices) > ladder.PAIRS and len(set(matrices)) == len(matrices), key


def test_skew_canonical_basis_rates_match_mpmath(small):
    rows = _layer("skew_canonical_basis")
    assert [row["n"] for row in rows] == [2, 3]
    for row in rows:
        # an odd n leaves the uniform skew part a one-dimensional kernel
        assert (row["zero_dim"], row["refused"], row["requests"]) == (row["n"] % 2, 0, 2)
        assert row["rate_error_over_maxabs"] < 1e-13


def test_normal_minor_sums_match_the_construction(small):
    rows = _layer("normal")
    assert [(row["function"], row["family"], row["n"]) for row in rows] == [
        (name, family, 3) for name in ladder.NORMAL for family in ladder.NORMAL_FAMILIES]
    for row in rows:
        assert (row["refused"], row["requests"]) == (0, 2)
        if row["function"] == "normal_power_basis":
            assert row["pm_error_over_mass"] is None and row["checks_max"] <= 1e-12
        else:
            assert row["checks_max"] is None and row["pm_error_over_mass"] < 1e-13


def test_normal_inputs_have_the_eigenvalues_they_are_built_with():
    for family, make in ladder.NORMAL_FAMILIES.items():
        for n in (3, 4):
            A = make([n, 1], n)
            _, a, b, c = ladder._normal_parts([n, 1], n, family)
            built = [complex(x, s * y) for x, y in zip(a, b) for s in (1, -1)] + [c] * (n % 2)
            assert np.max(np.abs(A @ A.T - A.T @ A)) < 1e-14
            assert ladder._hausdorff(np.linalg.eigvals(A), np.array(built)) < 1e-12
            if family != "distinct":
                np.testing.assert_allclose(A + A.T, 2 * np.eye(n) * (family == "tied"), atol=1e-14)


def test_frenet_report_matches_the_analytic_helix(small):
    rows = {row["field"]: row for row in _layer("frenet_report")}
    assert list(rows) == ["helix analytic", "helix differenced", "helix grid m=5"]
    analytic = rows["helix analytic"]
    assert analytic["field_queries"] == 10
    assert analytic["kappa_error"] < 1e-6 and analytic["tau_error"] < 1e-6


def test_analyze_rows_count_the_sym_eigen_calls(small, monkeypatch):
    monkeypatch.setattr(ladder, "ANALYZE_SIZES", ladder.ANALYZE_SIZES[:1])
    rows = _layer("analyze")
    assert [(row["n"], row["basis"], row["input"]) for row in rows] == [
        (2, basis, "grid") for basis in ladder.BASES] + [(2, "given", "json")]
    # the matrix in the expansion basis takes the solve of A's expansion form, certified
    assert [(row["exit"], row["sym_eigen_calls"]) for row in rows] == [(0, 1)] * 4


def test_analyze_sizes_hold_those_of_perfbench_cli_small():
    assert {2, 3, 4, 6} <= set(ladder.ANALYZE_SIZES)


def test_identities_rows_count_the_rel_calls_and_match_the_exact_minor_sums(small):
    (row,) = _layer("identities")
    assert (row["n"], row["seed"], row["exit"]) == (2, 2, 0)
    # newton 1, 2; ch_vector; ch and tr_ch, expansion and rotation; pm2 twice; gram_trace
    # twice; 3 power steps, expansion and rotation
    assert row["rel_calls"] == 2 + 1 + 4 + 2 + 2 + 6
    assert row["pm_error_over_mass"] < 1e-15


def test_session_solves_the_expansion_form_once_and_digests_cold_results(small):
    row, *steps = _layer("session")
    assert (row["analysis"], row["n"], row["sym_eigen_calls"]) == ("session", 2, 1)
    A = ladder._uniform([2, 0], 2)  # the warm-up's matrix
    cold = []
    for name in ladder.SESSION:
        rotform.linalg._last = None
        cold.append(getattr(rotform, name)(A))
    assert row["digest"] == ladder.digest(cold)
    assert [step["analysis"] for step in steps] == list(ladder.SESSION_STEPS)
    for step in steps:
        assert (step["n"], step["sym_eigen_calls"]) == (2, 1)
        assert step["digest"] == ladder.digest([cold[ladder.SESSION.index(step["analysis"])]])


def test_a_session_step_is_timed_after_the_analyses_before_it(small, monkeypatch):
    # each normality_report call, warm-up and timed, finds eigenstructure's record of its A
    monkeypatch.setattr(ladder, "SPECTRUM_SIZES", (4,))
    seen = []

    def report(A, tol=None):
        seen.append(rotform.linalg._last is not None and rotform.linalg._last.A.tobytes()
                    == np.asarray(A, float).tobytes() and "eigen" in vars(rotform.linalg._last))
        return original(A)

    original = rotform.normality_report
    monkeypatch.setattr(rotform, "normality_report", report)
    ladder.session_rows({"here": rotform})
    assert seen and all(seen)


def test_layer_keeps_the_file_to_the_layers_named(tmp_path, small, monkeypatch):
    calls = []
    monkeypatch.setattr(ladder, "LAYERS", {
        name: (lambda packages, name=name: calls.append(name) or {}, lambda rows: {})
        for name in ladder.LAYERS})
    out = tmp_path / "bench.json"
    ladder.main(["--src", f"here={_SRC}", "--out", str(out), "--layer", "session",
                 "--layer", "skew_canonical_basis"])
    assert calls == ["skew_canonical_basis", "session"]
    assert list(json.load(open(out))["layers"]) == ["skew_canonical_basis", "session"]


def test_every_src_tree_loads_as_a_package_of_its_own():
    first, second = ladder.load_rotform(_SRC), ladder.load_rotform(_SRC)
    assert first is not second and first.__name__ != second.__name__
    importlib.import_module("rotform.cli")
    for package in (first, second):
        importlib.import_module(package.__name__ + ".cli")
    modules = {name for name, value in vars(rotform).items() if isinstance(value, types.ModuleType)
               and value.__name__.startswith("rotform.")}
    assert {"linalg", "canonical", "cli", "frenet"} <= modules
    for name in modules:
        ours = getattr(sys.modules["rotform"], name)
        one, two = getattr(first, name), getattr(second, name)
        assert len({id(ours), id(one), id(two)}) == 3, name
        assert one.__name__ == f"{first.__name__}.{name}"
    assert first.NumericalError is not rotform.NumericalError  # what the spectrum layer catches


def test_rotform_imports_only_relatively():
    # with an absolute import, a loaded tree would run another tree's code
    for path in sorted(glob.glob(os.path.join(_SRC, "rotform", "*.py"))):
        for node in ast.walk(ast.parse(open(path).read(), path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "rotform"], (path, node.lineno)


@pytest.mark.parametrize("layer", sorted(KEYS))
def test_two_labels_agree_on_every_cell_but_the_timing(small, monkeypatch, layer):
    monkeypatch.setattr(ladder, "ANALYZE_SIZES", ladder.ANALYZE_SIZES[:1])
    rows, document = ladder.LAYERS[layer]
    packages = {"one": ladder.load_rotform(_SRC), "two": ladder.load_rotform(_SRC)}
    results = document(rows(packages))["results"]
    assert list(results) == ["one", "two"] and len(results["one"]) == len(results["two"])
    for one, two in zip(results["one"], results["two"]):
        assert set(one) == KEYS[layer] and set(two) == KEYS[layer] | _RATIOS
        assert {k: v for k, v in one.items() if k not in _TIMING} == {
            k: v for k, v in two.items() if k not in _TIMING | _RATIOS}
        assert 0 <= two["wins"] <= ladder.PAIRS
        assert 0.0 < two["ratio_q1"] <= two["ratio_median"] <= two["ratio_q3"]


def test_analyze_times_every_call_while_its_input_exists(small, monkeypatch):
    # a timed call must end the way its warm-up ended, not with "no such file" (exit 2)
    monkeypatch.setattr(ladder, "ANALYZE_SIZES", ladder.ANALYZE_SIZES[:1])
    quiet, codes = ladder._quiet, {}

    def recorded(main, argv):
        code = quiet(main, argv)
        codes.setdefault((os.path.splitext(argv[2])[1], argv[-1]), []).append(code)
        return code

    monkeypatch.setattr(ladder, "_quiet", recorded)
    packages = {"one": ladder.load_rotform(_SRC), "two": ladder.load_rotform(_SRC)}
    rows = ladder.analyze_rows(packages)
    assert sorted(codes) == sorted([(".txt", basis) for basis in ladder.BASES]
                                   + [(".json", "given")])
    for row in rows["one"] + rows["two"]:
        assert row["exit"] == 0
    # per input, basis and label: the warm-up, PAIRS timed calls and the counted call
    for key, seen in codes.items():
        assert seen == [0] * 2 * (ladder.PAIRS + 2), key
