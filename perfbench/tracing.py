"""Spans and counts at rotform's layer boundaries, recorded from outside.

The tracer wraps public functions of each rotform module and rebinds every
name that refers to them in every rotform namespace, because modules import
each other's functions by name (``from .linalg import sym_eigen``).  A span is
(name, start, end, parent, op id, self time, status), timed in process CPU
time like the end-to-end metrics; self time is the span's duration minus the
time its child spans cover.  Spans stay in memory until the run writes them
out.
"""

from collections import Counter, defaultdict
import functools
import inspect
import json
import statistics
from time import process_time

# Kernels the per-layer metrics name; the validation helpers (as_square,
# maxabs, ...) stay unwrapped and their time counts toward the caller.
_LINALG = ("sym_eigen", "real_spectrum", "char_poly_coeffs", "principal_minor_sums",
           "power_traces", "nullspace")
_CANONICAL = ("expansion_eigenbasis", "skew_canonical_basis", "normality_report",
              "normal_power_basis")
_SPECTRAL = ("eigenstructure", "bromwich_bounds", "planar_analyze", "common_zero_check",
             "skew_square_structure")
# invariant_report's helpers stay unwrapped, so its self time is all the
# invariants code it runs.
_INVARIANTS = ("invariant_report", "collings_det")
_CLI_PARSE = ("build_parser", "request_from_args", "load_matrix", "parse_matrix_text")
_CLI = ("main", "render_report") + _CLI_PARSE
_QUASIROT_SKIP = ("plane_pairs", "check_plane_pair")

COUNT_METRICS = ("calls", "qform_built", "subsets", "field_evals", "failed", "render_bytes")

# Every per-layer metric with its unit.  Times and counts are totals over one
# traced pass of round 0; the *_per_op values divide by its operations.
UNITS = {
    "linalg.sym_eigen.calls": "count",
    "linalg.sym_eigen.self_ms": "ms",
    "linalg.sym_eigen.calls_per_op": "1/op",
    "linalg.real_spectrum.self_ms": "ms",
    "linalg.real_spectrum.failed": "count",
    "linalg.fp_warnings": "1/op",
    "linalg.char_poly_coeffs.calls": "count",
    "linalg.char_poly_coeffs.self_ms": "ms",
    "linalg.principal_minor_sums.calls": "count",
    "linalg.principal_minor_sums.self_ms": "ms",
    "linalg.nullspace.calls": "count",
    "linalg.nullspace.self_ms": "ms",
    "spectral.eigenstructure.self_ms": "ms",
    "spectral.bromwich_bounds.self_ms": "ms",
    "spectral.bromwich_share": "share",
    "canonical.expansion_eigenbasis.calls": "count",
    "canonical.expansion_eigenbasis.self_ms": "ms",
    "canonical.skew_canonical_basis.calls": "count",
    "canonical.skew_canonical_basis.self_ms": "ms",
    "canonical.normality_report.calls": "count",
    "canonical.normality_report.self_ms": "ms",
    "qforms.qform_built": "count",
    "qforms.self_ms": "ms",
    "invariants.invariant_report.self_ms": "ms",
    "invariants.collings_det.self_ms": "ms",
    "invariants.collings_det.subsets": "count",
    "frenet.field_evals": "count",
    "frenet.self_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.render_ms": "ms",
    "cli.render_bytes": "bytes",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


def _public_functions(module, skip=()):
    return tuple(
        name for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__
        and not name.startswith("_") and name not in skip
    )


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._patches = []

    # --- recording -----------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        status = "ok"
        start = process_time()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            status = type(exc).__name__
            raise
        finally:
            end = process_time()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index] = (name, start, end, parent, self.op_id, duration - frame[1], status)

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def reset(self):
        self.spans = []
        self.counts = Counter()

    # --- installation ----------------------------------------------------------

    def install(self, rotform):
        from rotform import canonical, cli, frenet, invariants, linalg, qforms, quasirot, spectral

        namespaces = (rotform, linalg, quasirot, qforms, canonical, spectral, invariants,
                      frenet, cli)
        plan = [("linalg", linalg, _LINALG),
                ("quasirot", quasirot, _public_functions(quasirot, _QUASIROT_SKIP)),
                ("qforms", qforms, _public_functions(qforms)),
                ("canonical", canonical, _CANONICAL),
                ("spectral", spectral, _SPECTRAL),
                ("invariants", invariants, _INVARIANTS),
                ("frenet", frenet, _public_functions(frenet)),
                ("cli", cli, _CLI)]
        hooks = {
            "invariants.collings_det": self._count_subsets,
            "cli.render_report": self._count_render,
            "cli.build_parser": self._trace_parse_args,
        }
        for layer, module, names in plan:
            for name in names:
                original = getattr(module, name)
                span = f"{layer}.{name}"
                wrapper = self.wrap(span, original, hooks.get(span))
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, attr, wrapper)
        self._patch(frenet.FlowField, "at", self.wrap("frenet.FlowField.at", frenet.FlowField.at))
        post_init = qforms.QForm.__post_init__

        def counted_post_init(form):
            self.counts["qforms.qform_built"] += 1
            return post_init(form)

        self._patch(qforms.QForm, "__post_init__", counted_post_init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _count_subsets(self, args, result):
        n = len(args[0])
        self.counts["invariants.collings_det.subsets"] += 2 ** n

    def _count_render(self, args, result):
        self.counts["cli.render_bytes"] += len(result.encode())

    def _trace_parse_args(self, args, parser):
        parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)

    # --- output ------------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, op, self_s, status in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "self_s": self_s,
                                         "status": status}) + "\n")


def layer_metrics(spans, counts, ops, fp_warnings):
    """Per-layer metrics of one traced pass over `ops` operations."""
    calls = Counter()
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    failed = Counter()
    for name, start, end, _parent, _op, own, status in spans:
        calls[name] += 1
        self_s[name] += own
        inclusive[name] += end - start
        if status == "NumericalError":
            failed[name] += 1

    def ms(*names):
        return 1e3 * sum(self_s[n] for n in names)

    def layer_ms(*prefixes):
        return 1e3 * sum(v for n, v in self_s.items() if n.startswith(prefixes))

    eig_incl = inclusive["spectral.eigenstructure"]
    m = {
        "linalg.sym_eigen.calls": calls["linalg.sym_eigen"],
        "linalg.sym_eigen.self_ms": ms("linalg.sym_eigen"),
        "linalg.sym_eigen.calls_per_op": calls["linalg.sym_eigen"] / ops,
        "linalg.real_spectrum.self_ms": ms("linalg.real_spectrum"),
        "linalg.real_spectrum.failed": failed["linalg.real_spectrum"],
        "linalg.fp_warnings": fp_warnings / ops,
    }
    for name in ("char_poly_coeffs", "principal_minor_sums", "nullspace"):
        m[f"linalg.{name}.calls"] = calls[f"linalg.{name}"]
        m[f"linalg.{name}.self_ms"] = ms(f"linalg.{name}")
    m["spectral.eigenstructure.self_ms"] = ms("spectral.eigenstructure")
    m["spectral.bromwich_bounds.self_ms"] = ms("spectral.bromwich_bounds")
    m["spectral.bromwich_share"] = (inclusive["spectral.bromwich_bounds"] / eig_incl
                                    if eig_incl else 0.0)
    for name in ("expansion_eigenbasis", "skew_canonical_basis", "normality_report"):
        m[f"canonical.{name}.calls"] = calls[f"canonical.{name}"]
        m[f"canonical.{name}.self_ms"] = ms(f"canonical.{name}")
    m["qforms.qform_built"] = counts["qforms.qform_built"]
    m["qforms.self_ms"] = layer_ms("qforms.", "quasirot.")
    m["invariants.invariant_report.self_ms"] = ms("invariants.invariant_report")
    m["invariants.collings_det.self_ms"] = ms("invariants.collings_det")
    m["invariants.collings_det.subsets"] = counts["invariants.collings_det.subsets"]
    m["frenet.field_evals"] = calls["frenet.FlowField.at"]
    m["frenet.self_ms"] = layer_ms("frenet.")
    m["cli.parse_ms"] = ms(*(f"cli.{n}" for n in _CLI_PARSE), "cli.parse_args")
    m["cli.render_ms"] = ms("cli.render_report")
    m["cli.render_bytes"] = counts["cli.render_bytes"]
    return m


def is_count(name):
    return name.rsplit(".", 1)[-1] in COUNT_METRICS


def combine_passes(per_pass):
    """Median of each time metric over the traced passes; counts must agree.

    Returns (metrics, names of count metrics that differed between passes).
    """
    out = {}
    unstable = []
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if is_count(name):
            if len(set(values)) > 1:
                unstable.append(name)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, unstable
