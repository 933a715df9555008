"""Every layer of tools/ladder.py, run in process on its smallest size: the
rows keep the columns of the earlier BENCH files and the oracles agree."""

import importlib.util
import os
import sys

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
    "spectrum": _TIMING | {"function", "n", "seed", "refused", "requests", "eig_error_over_maxabs"},
    "frenet_report": _TIMING | {"field", "m", "spacing", "field_queries", "kappa", "tau",
                                "kappa_error", "tau_error"},
    "analyze": _TIMING | {"n", "seed", "basis", "exit", "sym_eigen_calls"},
}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(ladder, "RUNS", 1)
    monkeypatch.setattr(ladder, "REQUESTS", 2)
    monkeypatch.setattr(ladder, "COLLINGS_SIZES", ladder.COLLINGS_SIZES[:1])
    monkeypatch.setattr(ladder, "SPECTRUM_SIZES", ladder.SPECTRUM_SIZES[:1])
    monkeypatch.setattr(ladder, "GRID_SIZES", ladder.GRID_SIZES[:1])
    monkeypatch.setattr(sys, "path", sys.path[:])


def _layer(name):
    """The layer's document for one label measured in this process."""
    rows, document = ladder.LAYERS[name]
    doc = document({"here": rows(rotform)})
    for row in doc["results"]["here"]:
        assert set(row) == KEYS[name]
    return doc["results"]["here"]


def test_layers_are_the_three_blocks():
    assert set(ladder.LAYERS) == set(KEYS)


def test_collings_det_is_within_n_eps_of_the_term_mass(small):
    (row,) = _layer("collings_det")
    assert row["n"] == 4
    assert row["error_over_n_eps_mass"] < 10


def test_spectrum_matches_mpmath(small):
    rows = _layer("spectrum")
    assert [(row["function"], row["n"]) for row in rows] == [
        ("real_spectrum", 2), ("eigenstructure", 2)]
    for row in rows:
        assert row["refused"] == 0 and row["requests"] == 2
        assert row["eig_error_over_maxabs"] < 1e-12


def test_frenet_report_matches_the_analytic_helix(small):
    rows = {row["field"]: row for row in _layer("frenet_report")}
    assert list(rows) == ["helix analytic", "helix differenced", "helix grid m=5"]
    analytic = rows["helix analytic"]
    assert analytic["field_queries"] == 10
    assert analytic["kappa_error"] < 1e-6 and analytic["tau_error"] < 1e-6


def test_analyze_rows_count_the_sym_eigen_calls(small, monkeypatch):
    monkeypatch.setattr(ladder, "ANALYZE_SIZES", ladder.ANALYZE_SIZES[:1])
    rows = _layer("analyze")
    assert [(row["n"], row["basis"]) for row in rows] == [(2, basis) for basis in ladder.BASES]
    # the matrix in the expansion basis takes the solve of A's expansion form, certified
    assert [(row["exit"], row["sym_eigen_calls"]) for row in rows] == [(0, 1), (0, 1), (0, 1)]
