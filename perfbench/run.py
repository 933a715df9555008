"""Oracle-checked benchmark of rotform.

Run from the root of the repository:

    python3 perfbench/run.py --workload spectral_dense --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, inputs generated from --seed):
  spectral_dense    eigenstructure, normality_report and the canonical bases
                    on dense matrices, n = 4..32, structured and scaled
  identities_sweep  `rotform identities` for n = 3..16, in process
  cli_small         small `planar`, `analyze`, `frenet` and malformed requests,
                    in process

--trace 0 prints the end-to-end metrics; --trace 1 wraps rotform's public
functions, records spans and counts, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric by name
with its unit, the failure and oracle-rejection shares, and the reasons.

Every result is checked against an independent oracle (oracles.py).  An
operation *fails* when rotform raises NumericalError, reports tolerance
flags, exits 3 or exits with another code than expected; a result is *wrong*
when the oracle rejects it or when a CLI report differs between two renders
of the same request.  Requests in the cells where rotform is known to fail
(corpus.known_defect) run, are timed and checked like the rest, count in
fail_share, wrong_share and ok_share, and are reported apart.  `correct` is
true when no other result was wrong, and `failed` counts the other failures.
"""

import os

# One process, single-threaded: cap the BLAS pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
from collections import Counter
import contextlib
from dataclasses import dataclass
import hashlib
import io
import json
from pathlib import Path
import re
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter, process_time
import warnings

import numpy as np

import corpus
import oracles
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Times are CPU time of the process doing the work.  rotform is
# single-threaded here, never sleeps and reads only small cached files, so on
# an idle core CPU time equals wall time.  On a shared 2-vCPU virtual machine,
# wall-clock figures of the same code differed by up to 40% between runs a
# few minutes apart, CPU-time figures by about 15%.  Operation latencies are
# further scaled to a reference machine speed by speed.py, which halves what
# is left; setup_s and the per-layer times are unscaled CPU time.
#
# The tail percentile is fixed per workload, so a faster commit, which fits
# more operations into a run, reports the same percentile; every run collects
# at least 10 / (1 - p) operations, so ten or more lie beyond it.
TAIL_PERCENTILE = {"spectral_dense": 90.0, "identities_sweep": 90.0, "cli_small": 99.0}
SETUP_LAUNCHES = 9
HARD_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


def load_rotform():
    """Import rotform from this checkout's src/ and nowhere else."""
    init = SRC / "rotform" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: rotform sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import rotform
    import rotform.cli  # noqa: F401  (the CLI is driven through rotform.cli.main)

    if Path(rotform.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported rotform from {rotform.__file__}, not {init}")
    return rotform


@dataclass
class Outcome:
    label: str
    status: str         # "ok", "failed" or "wrong"
    cpu_s: float        # CPU time of the call as measured
    fingerprint: str
    fp_warnings: int
    reason: str = ""
    seconds: float = None  # cpu_s at reference speed (speed.py); cpu_s when unscaled
    known_defect: str = ""

    def __post_init__(self):
        if self.seconds is None:
            self.seconds = self.cpu_s


def _digest(obj):
    """Deterministic text of a library result, for the transparency check."""
    if isinstance(obj, np.ndarray):
        return f"array{obj.shape}:{obj.tobytes().hex()}"
    if hasattr(obj, "__dataclass_fields__"):
        return type(obj).__name__ + "(" + ",".join(
            f"{k}={_digest(getattr(obj, k))}" for k in obj.__dataclass_fields__) + ")"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_digest(k)}:{_digest(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_digest(v) for v in obj) + "]"
    return repr(obj)


def _fingerprint(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _check(check, *args):
    """An oracle's verdict; a result too malformed to check is wrong, not fatal."""
    try:
        return check(*args)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return f"result could not be checked: {type(exc).__name__}: {exc}"


def _invoke(tracer, name, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.call(name, fn, args, {})


def run_library_op(rotform, op, tracer=None):
    fn = getattr(rotform, op.kind)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = process_time()
        try:
            result = _invoke(tracer, f"op.{op.kind}", fn, op.matrix)
            error = None
        except rotform.NumericalError as exc:
            error = f"NumericalError: {exc}"
        except Exception as exc:  # a program fault is counted, never fatal
            error = f"unexpected {type(exc).__name__}: {exc}"
        seconds = process_time() - start
    warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    if error is not None:
        return Outcome(op.label, "failed", seconds, _fingerprint(error), warned, error)
    fingerprint = _fingerprint(_digest(result))
    if getattr(result, "flags", ()):
        return Outcome(op.label, "failed", seconds, fingerprint, warned,
                       "tolerance flags: " + result.flags[0])
    reason = _check(oracles.check_spectral, op.kind, op.matrix, op.truth, result)
    return Outcome(op.label, "wrong" if reason else "ok", seconds, fingerprint, warned,
                   reason or "")


def run_cli_op(rotform, op, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = process_time()
        crash = None
        try:
            code = _invoke(tracer, f"op.{op.kind}", rotform.cli.main, list(op.argv))
        except SystemExit as exc:  # argparse refuses bad flags this way
            code = exc.code
        except Exception as exc:  # a program fault is counted, never fatal
            code, crash = None, f"unexpected {type(exc).__name__}: {exc}"
        seconds = process_time() - start
    warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    stdout, stderr = out.getvalue(), err.getvalue()
    fingerprint = _fingerprint(f"{code}\0{stdout}\0{stderr}")
    if crash is not None:
        return Outcome(op.label, "failed", seconds, fingerprint, warned, crash), stdout
    if code != op.expect_exit:
        first = stderr.strip().splitlines()[:1]
        reason = f"exit {code}, expected {op.expect_exit}: {first[0] if first else ''}"
        return Outcome(op.label, "failed", seconds, fingerprint, warned, reason), stdout
    reason = _check(oracles.check_cli, op, code, stdout, stderr)
    return Outcome(op.label, "wrong" if reason else "ok", seconds, fingerprint, warned,
                   reason or ""), stdout


def run_ops(rotform, ops, tracer=None, deadline=None, scale=None):
    """Run ops in order; each CLI request twice, the second render checked
    byte for byte against the first.  Stops early past the deadline."""
    outcomes = []
    for op in ops:
        if tracer is not None:
            tracer.op_id = len(outcomes)
        if op.argv is None:
            done = [run_library_op(rotform, op, tracer)]
        else:
            first, text = run_cli_op(rotform, op, tracer)
            if tracer is not None:
                tracer.op_id += 1
            second, again = run_cli_op(rotform, op, tracer)
            if again != text and second.status == "ok":
                second.status, second.reason = "wrong", "report differs between two renders"
            done = [first, second]
        for outcome in done:
            outcome.known_defect = op.known_defect
        outcomes += done
        if scale is not None:
            scale.observe(done)
        if deadline is not None and perf_counter() > deadline:
            break
    return outcomes


def warm_up(rotform, ops):
    """Run one op of each kind untimed, so lazy imports and first-call set-up
    (which setup_s measures) stay out of the timed loop."""
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    run_ops(rotform, list(first.values()))


def _work_dir(workload, seed):
    path = WORK / f"{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _remove_work_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()


# --- set-up time ------------------------------------------------------------------

def measure_setup(workload, seed, workdir):
    """Median over fresh interpreters (probe.py) of the CPU time to import
    rotform and finish the workload's first operation.  Unscaled: start-up
    cost is mostly imports and page faults, which the calibration kernel
    does not track."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)]
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i > 0:  # the first launch only fills the bytecode cache
            times.append(float(proc.stdout))
    return statistics.median(times)


# --- reporting ----------------------------------------------------------------------

def _shares(outcomes):
    n = len(outcomes)
    tally = Counter(o.status for o in outcomes)
    return n, tally["failed"], tally["wrong"]


def _print_shares(outcomes):
    """Print fail_share and wrong_share over all requests and the counts
    inside and outside the known-defect cells; return (attempted, failed,
    wrong), the last two outside those cells."""
    n, failed, wrong = _shares(outcomes)
    known = [o for o in outcomes if o.known_defect]
    _, known_failed, known_wrong = _shares(known)
    print(f"fail_share = {failed / n:.6g} share  ({failed} of {n})")
    print(f"wrong_share = {wrong / n:.6g} share  ({wrong} of {n})")
    print(f"known-defect cells: {len(known)} of {n} operations, {known_failed} failed, "
          f"{known_wrong} wrong")
    for cell, count in sorted(Counter(o.known_defect for o in known
                                      if o.status != "ok").items()):
        print(f"  {count} not ok: {cell}")
    print(f"other operations: {failed - known_failed} failed, {wrong - known_wrong} wrong")
    return n, failed - known_failed, wrong - known_wrong


def _print_reasons(outcomes, limit=15):
    """The most frequent (status, request, reason) triples, wrong results
    first, numbers elided."""
    tally = Counter((o.status, o.label, re.sub(r"[-+]?[0-9][-+0-9.e]*j?", "#", o.reason)[:90])
                    for o in outcomes if o.status != "ok")
    ranked = sorted(tally.items(), key=lambda item: (item[0][0] != "wrong", -item[1]))
    for (status, label, reason), count in ranked[:limit]:
        print(f"  {status:6s} x{count:<4d} {label}: {reason}")


def end_to_end(workload, seed, seconds, rotform):
    workdir = _work_dir(workload, seed)
    try:
        setup_s = measure_setup(workload, seed, workdir)
        warm_up(rotform, corpus.workload_round(workload, seed, 0, str(workdir)))
        start = perf_counter()
        deadline = start + seconds
        hard_deadline = start + HARD_LIMIT_S
        min_ops = int(round(10.0 / (1.0 - TAIL_PERCENTILE[workload] / 100.0)))
        outcomes = []
        round_index = 0
        scale = speed.SpeedScale()
        while True:
            ops = corpus.workload_round(workload, seed, round_index, str(workdir))
            outcomes += run_ops(rotform, ops, deadline=hard_deadline, scale=scale)
            round_index += 1
            now = perf_counter()
            if now >= hard_deadline or (now >= deadline and len(outcomes) >= min_ops):
                break
        scale.apply()
        wall = perf_counter() - start
    finally:
        _remove_work_dir(workdir)

    latencies = np.array([o.seconds for o in outcomes])
    n, all_failed, all_wrong = _shares(outcomes)
    pct = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / float(latencies.sum()),
        "latency_p50_ms": 1e3 * float(np.median(latencies)),
        "latency_tail_ms": 1e3 * float(np.percentile(latencies, pct)),
        "ok_share": (n - all_failed - all_wrong) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    beyond = int(np.sum(latencies > np.percentile(latencies, pct)))
    cpu_s = sum(o.cpu_s for o in outcomes)
    print(f"workload {workload}, seed {seed}: {n} operations in {round_index} rounds, "
          f"{wall:.1f} s wall, {cpu_s:.1f} s CPU ({n / cpu_s:.6g} ops/s unscaled), "
          f"calibration median {1e3 * statistics.median(scale.samples):.4g} ms "
          f"(reference {1e3 * speed.REFERENCE_S:.4g} ms)")
    for name, value in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{pct:g} of {n} samples, {beyond} beyond it)"
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}{note}")
    n, failed, wrong = _print_shares(outcomes)
    _print_reasons(outcomes)
    result = {
        "correct": wrong == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    return result


def traced(workload, seed, seconds, rotform):
    """Alternate untraced and traced passes over round 0 until `seconds` pass.

    Counts come from each traced pass and must agree between them; time
    metrics are medians over the traced passes.  Each traced report must be
    byte-identical to the untraced one, which shows the wrappers are
    transparent.
    """
    workdir = _work_dir(workload, seed)
    tracer = tracing.Tracer()
    try:
        ops = corpus.workload_round(workload, seed, 0, str(workdir))
        warm_up(rotform, ops)
        start = perf_counter()
        plain, traced_passes, per_pass = [], [], []
        while not plain or not traced_passes or perf_counter() - start < seconds:
            plain.append(run_ops(rotform, ops))
            tracer.install(rotform)
            try:
                tracer.reset()
                outcomes = run_ops(rotform, ops, tracer=tracer)
            finally:
                tracer.uninstall()
            if not traced_passes:
                out_dir = ROOT / ".perfbench_out"
                out_dir.mkdir(exist_ok=True)
                tracer.write(out_dir / f"trace-{workload}-{seed}.jsonl")
            traced_passes.append(outcomes)
            per_pass.append(tracing.layer_metrics(
                tracer.spans, tracer.counts, len(outcomes),
                sum(o.fp_warnings for o in outcomes)))
    finally:
        _remove_work_dir(workdir)

    metrics, unstable = tracing.combine_passes(per_pass)
    rate_plain = statistics.median(len(p) / sum(o.seconds for o in p) for p in plain)
    rate_traced = statistics.median(len(p) / sum(o.seconds for o in p) for p in traced_passes)
    metrics["trace.ops_per_s_untraced"] = rate_plain
    metrics["trace.ops_per_s_traced"] = rate_traced
    metrics["trace.overhead_ops_per_s"] = rate_plain - rate_traced
    opaque = sum(a.fingerprint != b.fingerprint
                 for passes in (plain[1:], traced_passes) for p in passes
                 for a, b in zip(plain[0], p))
    all_outcomes = [o for p in plain + traced_passes for o in p]
    print(f"workload {workload}, seed {seed}: traced {len(traced_passes)} and untraced "
          f"{len(plain)} passes over round 0 ({len(ops)} requests, {len(plain[0])} operations)")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {tracing.UNITS[name]}")
    print(f"reports differing between passes: {opaque}")
    if unstable:
        print(f"count metrics differing between traced passes: {', '.join(unstable)}")
    n, failed, wrong = _print_shares(all_outcomes)
    _print_reasons(all_outcomes)
    return {
        "correct": wrong == 0 and opaque == 0 and not unstable,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    rotform = load_rotform()
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds, rotform)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, rotform)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
