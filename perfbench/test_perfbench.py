"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


def _snapshot(workload, seed, workdir):
    """Everything a round hands to rotform, with file arguments replaced by
    the files' contents."""
    out = []
    for r in (0, 1):
        for op in corpus.workload_round(workload, seed, r, str(workdir)):
            argv = []
            for arg in op.argv or ():
                path = arg.split("=", 1)[-1].removeprefix("file:")
                argv.append(Path(path).read_text() if path.startswith(str(workdir))
                            and Path(path).is_file() else arg.replace(str(workdir), "<dir>"))
            matrix = None if op.matrix is None else op.matrix.tobytes()
            out.append((op.kind, op.label, matrix, tuple(argv), op.expect_exit))
    return out


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_same_corpus(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _snapshot(workload, 11, dirs[0])
    assert first == _snapshot(workload, 11, dirs[1])
    assert first != _snapshot(workload, 12, dirs[2])


def test_spectral_ground_truth_matches_numpy():
    for label, A, truth in corpus.spectral_matrices(5, 0):
        if truth["eigs"] is None or truth["mult"] > 1:
            continue
        got = np.linalg.eigvals(A)
        want = np.asarray(truth["eigs"], dtype=complex)
        gap = np.abs(got[:, None] - want[None, :])
        atol = 1e-9 * np.linalg.norm(A, 2)
        assert gap.min(axis=0).max() <= atol and gap.min(axis=1).max() <= atol, label


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    lines, result = _result(_run("--workload", "cli_small", "--seed", "3",
                                 "--seconds", "1", "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name
    if trace == "0":
        assert all(v["value"] != 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_count_metrics_repeat_across_traced_runs(workload):
    counts = []
    for _ in range(2):
        lines, result = _result(_run("--workload", workload, "--seed", "4",
                                     "--seconds", "0", "--trace", "1"))
        assert "reports differing between passes: 0" in lines
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if tracing.is_count(k)})
    assert counts[0] == counts[1]
    assert {"linalg.sym_eigen.calls", "qforms.qform_built", "invariants.collings_det.subsets",
            "frenet.field_evals"} <= set(counts[0])


def test_refuses_to_run_without_rotform_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cli_small", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
