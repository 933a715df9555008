"""Command-line front end.

Four commands: analyze (spectral + normality + forms report for a matrix),
planar (2x2 classification), identities (invariant residual sweep), and
frenet (flow-field shape-map analysis).  Reports are JSON with floats
serialised to 17 significant digits, so identical inputs and seed produce
byte-identical output.  Exit codes: 0 success, 2 input error, 3 numerical
error.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import canonical, frenet, invariants, qforms, spectral
from .errors import InputError, NumericalError
from .linalg import DEFAULT_TOL, ToleranceConfig, maxabs


@dataclasses.dataclass
class AnalysisRequest:
    command: str
    input_path: str = None
    basis_mode: str = "given"
    tol: ToleranceConfig = DEFAULT_TOL
    seed: int = 0
    output_path: str = None
    field_spec: str = None
    params: dict = dataclasses.field(default_factory=dict)
    point: tuple = None


# --- deterministic JSON emission -------------------------------------------

def _format_float(x):
    if x != x:
        raise InputError("cannot serialise NaN")
    s = format(float(x), ".17g")
    if "inf" in s:
        return '"inf"' if x > 0 else '"-inf"'
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


def _emit(obj, out, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad + "  ")
            _emit(value, out, indent + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(obj))
    elif isinstance(obj, complex):
        _emit({"re": obj.real, "im": obj.imag}, out, indent)
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out, indent)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise InputError(f"cannot serialise object of type {type(obj)!r}")


def render_report(document):
    out = []
    _emit(document, out, 0)
    out.append("\n")
    return "".join(out)


def _write_report(text, output_path):
    if output_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, output_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- matrix ingestion -------------------------------------------------------

def parse_matrix_text(text, source="<input>"):
    """Parse either a {"n": ..., "rows": [...]} object or a whitespace grid.

    Errors carry the line and column (or row and column for the object form)
    of the offending token.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_matrix_json(text, source)
    return _parse_matrix_grid(text, source)


def _parse_matrix_json(text, source):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise InputError(f"{source}: matrix object needs keys 'n' and 'rows'")
    n = obj["n"]
    rows = obj["rows"]
    if not isinstance(n, int) or n < 1:
        raise InputError(f"{source}: 'n' must be a positive integer, got {n!r}")
    if not isinstance(rows, list) or len(rows) != n:
        raise InputError(f"{source}: expected {n} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    data = np.zeros((n, n))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{source}: row {i + 1} must hold {n} numbers")
        for j, value in enumerate(row):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InputError(f"{source}: row {i + 1}, column {j + 1}: not a number: {value!r}")
            if not np.isfinite(value):
                raise InputError(f"{source}: row {i + 1}, column {j + 1}: non-finite entry")
            data[i, j] = float(value)
    return data


def _parse_matrix_grid(text, source):
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise InputError(
                f"{source}:{lineno}: row has {len(tokens)} entries, expected {width}"
            )
        row = []
        cursor = 0
        for tok in tokens:
            column = line.index(tok, cursor) + 1
            cursor = column - 1 + len(tok)
            try:
                value = float(tok)
            except ValueError:
                raise InputError(f"{source}:{lineno}:{column}: not a number: {tok!r}") from None
            if not np.isfinite(value):
                raise InputError(f"{source}:{lineno}:{column}: non-finite entry: {tok!r}")
            row.append(value)
        rows.append(row)
    if not rows:
        raise InputError(f"{source}: no matrix data found")
    if len(rows) != width:
        raise InputError(f"{source}: {len(rows)} rows of width {width}; the matrix must be square")
    return np.array(rows)


def load_matrix(path):
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    return parse_matrix_text(text, source=path)


# --- report sections --------------------------------------------------------

def _pair_key(pair):
    return f"{pair[0]},{pair[1]}"


def _matrix_section(A):
    return {"n": int(A.shape[0]), "rows": A.tolist()}


def _tolerances_section(tol):
    return {
        "eig_off_tol": tol.eig_off_tol,
        "rank_tol": tol.rank_tol,
        "residual_tol": tol.residual_tol,
    }


def _spectral_section(report):
    return {
        "real_eigenvalues": [
            {
                "value": entry.value,
                "geometric_multiplicity": entry.geometric_multiplicity,
                "eigenspace": [vec.tolist() for vec in entry.eigenspace],
                "rotation_residual": entry.rotation_residual,
            }
            for entry in report.entries
        ],
        "complex_pairs": [
            {"re": z.real, "im": z.imag, "multiplicity": mult}
            for z, mult in report.complex_pairs
        ],
        "bromwich": {
            "real_min": report.bromwich[0],
            "real_max": report.bromwich[1],
            "imag_min": report.bromwich[2],
            "imag_max": report.bromwich[3],
        },
        "flags": list(report.flags),
    }


def _normality_section(report):
    return {
        "is_normal": report.is_normal,
        "commutator_norm": report.commutator_norm,
        "expansion_eigenvalues": list(report.expansion_eigenvalues),
        "violating_pairs": [
            {"i": i, "j": j, "rotation_trace": trace, "eigenvalue_gap": gap}
            for i, j, trace, gap in report.violating_pairs
        ],
    }


def _forms_section(A, tol, seed, bromwich):
    """Form report for A; bromwich is A's Bromwich box, whose real bounds are
    the expansion-form extremes."""
    n = A.shape[0]
    e_form = qforms.expansion_form(A)
    lo, hi = bromwich[:2]
    rotation_traces = {_pair_key(pair): t for pair, t in qforms.rotation_traces(A).items()}
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u = u / np.linalg.norm(u)
    dec = qforms.decompose(A, u, tol)
    w = A @ u
    norm_gap = abs(float(w @ w) - dec.e**2 - dec.r.norm_sq())
    return {
        "expansion_matrix": e_form.matrix.tolist(),
        "expansion_average": qforms.form_average(e_form),
        "expansion_extremes": {"min": lo, "max": hi},
        "rotation_traces": rotation_traces,
        "decomposition_probe": {
            "u": u.tolist(),
            "expansion": dec.e,
            "rotations": {_pair_key(pair): value for pair, value in dec.r.items()},
            "residual": dec.residual,
            "norm_identity_gap": norm_gap,
        },
    }


def _invariants_section(A, seed):
    report = invariants.invariant_report(A, seed=seed)
    theta, shear, twist = report.ecs
    n = A.shape[0]
    section = {
        "principal_minor_sums": list(report.pms),
        "residuals": {key: report.residuals[key] for key in sorted(report.residuals)},
        "euler_cauchy_stokes": {
            "theta": theta,
            "shear": shear.tolist(),
            "twist": twist.tolist(),
            "reconstruction_gap": maxabs(
                (theta / n) * np.eye(n) + shear + twist - A
            ),
        },
    }
    if n > invariants.COLLINGS_MAX_DIM:
        section["collings_residual"] = None
        section["collings_skipped"] = (
            f"subset expansion is 2^n; skipped for n = {n} > {invariants.COLLINGS_MAX_DIM}"
        )
    else:
        # Relative to the subset-term mass prod_i (|d_i| + |off-diagonal row i|),
        # which bounds |det| and every partial sum of the expansion.
        d = np.diag(A)
        rest = A - np.diag(d)
        det = float(np.linalg.det(A))
        collings = invariants.collings_det(np.diag(d), rest)
        mass = float(np.prod(np.abs(d) + np.linalg.norm(rest, axis=1)))
        section["collings_residual"] = abs(collings - det) / mass if mass else 0.0
    return section


def _apply_basis(A, mode, tol):
    if mode == "given":
        return A, None
    if mode == "expansion":
        split = canonical.expansion_eigenbasis(A, tol)
        return split.basis.T @ A @ split.basis, split.basis
    if mode == "skew-canonical":
        block = canonical.skew_canonical_basis(A, tol)
        return block.basis.T @ A @ block.basis, block.basis
    raise InputError(f"unknown basis mode {mode!r}")


# --- commands ----------------------------------------------------------------

def _cmd_analyze(request):
    A = load_matrix(request.input_path)
    B, basis = _apply_basis(A, request.basis_mode, request.tol)
    spec_report = spectral.eigenstructure(B, request.tol)
    norm_report = canonical.normality_report(B, request.tol)
    doc = {
        "command": "analyze",
        "seed": request.seed,
        "basis_mode": request.basis_mode,
        "tolerances": _tolerances_section(request.tol),
        "input": _matrix_section(A),
    }
    if basis is not None:
        doc["basis"] = basis.tolist()
        doc["matrix_in_basis"] = B.tolist()
    doc["spectral"] = _spectral_section(spec_report)
    doc["normality"] = _normality_section(norm_report)
    doc["forms"] = _forms_section(B, request.tol, request.seed, spec_report.bromwich)
    if spec_report.flags:
        raise NumericalError(
            "tolerance failure: " + "; ".join(spec_report.flags),
            residual=spec_report.flags[0],
        )
    probe_residual = doc["forms"]["decomposition_probe"]["residual"]
    if probe_residual > max(request.tol.residual_tol, 1e-10):
        raise NumericalError(
            f"decomposition residual {probe_residual:.3e} exceeds tolerance",
            residual=probe_residual,
        )
    return doc


def _cmd_planar(request):
    A = load_matrix(request.input_path)
    if A.shape[0] != 2:
        raise InputError(f"planar command needs a 2x2 matrix, got {A.shape[0]}x{A.shape[0]}")
    report = spectral.planar_analyze(A, tol=request.tol)
    zero_count = "inf" if report.zero_count == float("inf") else int(report.zero_count)
    return {
        "command": "planar",
        "seed": request.seed,
        "tolerances": _tolerances_section(request.tol),
        "input": _matrix_section(A),
        "planar": {
            "eigenvalues": [{"re": z.real, "im": z.imag} for z in report.eigs],
            "classification": report.classification,
            "zero_count": zero_count,
            "expansion_eigenvalues": list(report.expansion_eigs),
            "rotation_eigenvalues": list(report.rotation_eigs),
            "borderline": report.borderline,
            "average_expansion": 0.5 * float(np.trace(A)),
        },
    }


def _cmd_identities(request):
    if request.input_path is not None:
        A = load_matrix(request.input_path)
    else:
        n = request.params.get("n", 4)
        if n < 1:
            raise InputError(f"dimension must be >= 1, got {n}")
        rng = np.random.default_rng(request.seed)
        A = rng.uniform(-1.0, 1.0, size=(n, n))
    return {
        "command": "identities",
        "seed": request.seed,
        "tolerances": _tolerances_section(request.tol),
        "input": _matrix_section(A),
        "invariants": _invariants_section(A, request.seed),
    }


def _field_from_spec(request):
    spec = request.field_spec
    if spec is None:
        raise InputError("frenet command needs --field")
    if spec == "helix":
        c = float(request.params.get("c", 0.5))
        return frenet.helix_field(c)
    if spec == "circular":
        return frenet.circular_field()
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path, "r") as handle:
                obj = json.load(handle)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
        for key in ("origin", "spacing", "values"):
            if key not in obj:
                raise InputError(f"{path}: grid field needs key {key!r}")
        return frenet.grid_field(obj["origin"], obj["spacing"], obj["values"])
    raise InputError(f"unknown field {spec!r}; use helix, circular or file:<path>")


def _cmd_frenet(request):
    field = _field_from_spec(request)
    if request.point is not None:
        point = np.asarray(request.point, dtype=float)
    elif "r" in request.params:
        point = np.array([float(request.params["r"]), 0.0, 0.0])
    else:
        raise InputError("frenet command needs --point (or a radius parameter r)")
    forms, comparison = frenet.frenet_report(field, point)
    data = forms.data
    return {
        "command": "frenet",
        "seed": request.seed,
        "field": field.name,
        "params": {key: request.params[key] for key in sorted(request.params)},
        "point": point.tolist(),
        "frame": {"T": data.T.tolist(), "N": data.N.tolist(), "B": data.B.tolist()},
        "kappa": data.kappa,
        "tau": data.tau,
        "sigma": data.sigma,
        "shape_matrix": data.shape_matrix.tolist(),
        "model_matrix": data.model_matrix.tolist(),
        "rotation_forms": {
            "computed": {_pair_key(p): forms.computed[p].matrix.tolist() for p in forms.computed},
            "model": {_pair_key(p): forms.model[p].tolist() for p in forms.model},
            "delta_max": {_pair_key(p): forms.deltas[p] for p in forms.deltas},
        },
        "expansion_norm": forms.expansion_norm,
        "model_comparison": dataclasses.asdict(comparison),
    }


_COMMANDS = {
    "analyze": _cmd_analyze,
    "planar": _cmd_planar,
    "identities": _cmd_identities,
    "frenet": _cmd_frenet,
}


def run(request):
    """Execute a request; returns the exit code and writes the report."""
    handler = _COMMANDS.get(request.command)
    if handler is None:
        raise InputError(f"unknown command {request.command!r}")
    document = handler(request)
    _write_report(render_report(document), request.output_path)
    return 0


# --- argument handling -------------------------------------------------------

def _parse_tol(pairs):
    values = {}
    for item in pairs or []:
        if "=" not in item:
            raise InputError(f"tolerance override must look like name=value, got {item!r}")
        name, _, raw = item.partition("=")
        name = name.strip()
        if name not in ("eig_off_tol", "rank_tol", "residual_tol"):
            raise InputError(f"unknown tolerance {name!r}")
        try:
            values[name] = float(raw)
        except ValueError:
            raise InputError(f"tolerance {name!r} needs a numeric value, got {raw!r}") from None
    return dataclasses.replace(DEFAULT_TOL, **values) if values else DEFAULT_TOL


def _parse_params(raw):
    params = {}
    if not raw:
        return params
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InputError(f"parameter must look like name=value, got {chunk!r}")
        name, _, value = chunk.partition("=")
        try:
            number = float(value)
        except ValueError:
            raise InputError(f"parameter {name!r} needs a numeric value, got {value!r}") from None
        if not math.isfinite(number):
            raise InputError(f"parameter {name!r} must be finite, got {value!r}")
        if name.strip() == "n":
            if number != int(number):
                raise InputError(f"parameter 'n' must be an integer, got {value!r}")
            number = int(number)
        params[name.strip()] = number
    return params


def _parse_point(raw):
    if raw is None:
        return None
    parts = raw.split(",")
    if len(parts) != 3:
        raise InputError(f"point must be x,y,z, got {raw!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise InputError(f"point coordinates must be numeric, got {raw!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rotform",
        description="Expansion/rotation quadratic-form analysis of real matrices and flow fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "eigenstructure, normality and form report for a matrix"),
        ("planar", "complete 2x2 classification"),
        ("identities", "invariant identity residual sweep"),
        ("frenet", "Frenet shape-map analysis of a unit flow field"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", help="matrix file (JSON object or whitespace grid)")
        cmd.add_argument(
            "--basis",
            choices=("given", "expansion", "skew-canonical"),
            default="given",
            help="work in the given basis or a canonical one (analyze only)",
        )
        cmd.add_argument("--tol", action="append", metavar="NAME=VALUE",
                         help="override a tolerance (repeatable)")
        cmd.add_argument("--seed", type=int, default=0, help="seed for probe vectors")
        cmd.add_argument("--output", help="report path (stdout when omitted)")
        cmd.add_argument("--field", help="frenet: helix, circular or file:<path>")
        cmd.add_argument("--params", help="comma-separated name=value parameters")
        cmd.add_argument("--point", help="frenet: evaluation point x,y,z")
    return parser


def request_from_args(args):
    if args.command in ("analyze", "planar") and args.input is None:
        raise InputError(f"{args.command} needs --input")
    if args.command != "analyze" and args.basis != "given":
        raise InputError("--basis applies to the analyze command only")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    return AnalysisRequest(
        command=args.command,
        input_path=args.input,
        basis_mode=args.basis,
        tol=_parse_tol(args.tol),
        seed=args.seed,
        output_path=args.output,
        field_spec=args.field,
        params=_parse_params(args.params),
        point=_parse_point(args.point),
    )


# Built once at import; parse_args keeps no state between calls.
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        request = request_from_args(args)
        return run(request)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def console_main():
    raise SystemExit(main())
