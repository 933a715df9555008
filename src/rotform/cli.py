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
from json.encoder import encode_basestring_ascii

import numpy as np

from . import canonical, frenet, invariants, qforms, spectral
from .errors import InputError, NumericalError
from .linalg import DEFAULT_TOL, ToleranceConfig, _matrix, maxabs, random_unit

IDENTITIES_MAX_DIM = 128  # `identities` keeps all n + 1 powers of A: about 2 (n + 1) n^2 doubles


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
    """x, a Python float, to 17 significant digits, with ".0" on an integral
    value; the infinities become the strings "inf" and "-inf", and NaN raises."""
    s = "%.17g" % x
    if "." in s or "e" in s:
        return s
    if x != x:
        raise NumericalError("a report value is NaN")
    if s[-1] == "f":
        return f'"{s}"'
    return s + ".0"


# _render's fallback, tried in turn: numpy scalars and arrays, complex numbers
# and subclasses of the plain types, each as a value of a type it dispatches on.
_PLAIN = (((float, np.floating), float), (np.ndarray, np.ndarray.tolist),
          (complex, lambda z: {"re": z.real, "im": z.imag}), (str, str.__str__),
          ((int, np.integer), int), ((list, tuple), list), (dict, lambda d: dict(d.items())))


def _render(obj, pad=""):
    """JSON text of obj; the entries of a dict or list go on their own lines,
    indented two spaces past pad.  The exact type of obj picks its text, tested
    in the order of how often a report holds it: float, list or tuple, dict,
    str, bool, None, int.  A float entry of a dict or list is formatted in
    place rather than by a call to _render.  Any other type goes through
    _PLAIN or, numpy's bool among them, raises InputError."""
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    inner = pad + "  "
    if kind is list or kind is tuple:
        items, ends = [_format_float(v) if type(v) is float else _render(v, inner) for v in obj], "[]"
    elif kind is dict:
        items = [encode_basestring_ascii(str(k)) + ": "
                 + (_format_float(v) if type(v) is float else _render(v, inner))
                 for k, v in obj.items()]
        ends = "{}"
    elif kind is str:
        return encode_basestring_ascii(obj)
    elif kind is bool:
        return "true" if obj else "false"
    elif obj is None:
        return "null"
    elif kind is int:
        return str(obj)
    else:
        for kinds, plain in _PLAIN:
            if isinstance(obj, kinds):
                return _render(plain(obj), pad)
        raise InputError(f"cannot serialise object of type {kind!r}")
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def render_report(document):
    return _render(document) + "\n"


def _write_report(text, output_path):
    if output_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output_path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, output_path)
        finally:  # tmp is still there only when the write or os.replace failed
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise InputError(f"cannot write {output_path}: {exc.strerror}") from None


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
    obj = _decode_json(text, source)
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
            if not abs(value) <= sys.float_info.max:  # an int past the double range too
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
            if not math.isfinite(value):
                raise InputError(f"{source}:{lineno}:{column}: non-finite entry: {tok!r}")
            row.append(value)
        rows.append(row)
    if not rows:
        raise InputError(f"{source}: no matrix data found")
    if len(rows) != width:
        raise InputError(f"{source}: {len(rows)} rows of width {width}; the matrix must be square")
    return np.array(rows)


def _read_text(path):
    """The text of an input file: the --input matrix or a --field file: grid."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _decode_json(text, source):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None


def load_matrix(path):
    return parse_matrix_text(_read_text(path), source=path)


# --- report sections --------------------------------------------------------

def _pair_key(pair):
    return f"{pair[0]},{pair[1]}"


def _matrix_section(A):
    return {"n": int(A.shape[0]), "rows": A.tolist()}


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
        "bromwich": dict(zip(("real_min", "real_max", "imag_min", "imag_max"), report.bromwich)),
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


def _forms_section(M, seed, bromwich):
    """Form report for the matrix record M; bromwich is its Bromwich box, whose
    real bounds are the expansion-form extremes.  The probe's norm identity gap,
    |Xu|^2 - e^2 - |r|^2 on X = A / p, is relative to |Xu|^2 (0 when Xu = 0)."""
    lo, hi = bromwich[:2]
    rotation_traces = {_pair_key(pair): t for pair, t in qforms.rotation_traces(M.A).items()}
    u = random_unit(np.random.default_rng(seed), M.n)
    dec = qforms.decompose(M, u)
    w, e, r = M.X @ u, dec.e / M.p, dec.r.vector() / M.p
    norm2 = float(w @ w)
    norm_gap = abs(norm2 - e**2 - sum((r * r).tolist())) / norm2 if norm2 else 0.0
    return {
        "expansion_matrix": M.sym.tolist(),
        "expansion_average": float(np.trace(M.sym)) / M.n,
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


def _invariants_section(M, seed):
    """Identities report for the matrix record M."""
    report = invariants.invariant_report(M, seed=seed)
    theta, shear, twist = report.ecs
    A, n = M.A, M.n
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
        # which bounds |det| and every partial sum; all formed on the record's X = A / p.
        X = M.X
        d = np.diag(X)
        rest = X - np.diag(d)
        det = float(np.linalg.det(X))
        collings = invariants.collings_det(np.diag(d), rest)
        mass = float(np.prod(np.abs(d) + np.linalg.norm(rest, axis=1)))
        section["collings_residual"] = abs(collings - det) / mass if mass else 0.0
    return section


def _apply_basis(A, mode, tol):
    """The record of A in the basis of mode, under tol, and that basis (None when given)."""
    M = _matrix(A, tol)  # a request's own record: the library's kept one is never read
    if mode == "given":
        return M, None
    if mode == "expansion":
        split = canonical.expansion_eigenbasis(M, tol)
        M = _matrix(split.basis.T @ A @ split.basis, tol)
        # A's solve in this basis: the unit vectors, with the eigenvalues D descending
        M.adopt_eigen(split.D[::-1], np.eye(M.n)[:, ::-1])
        return M, split.basis
    if mode == "skew-canonical":
        block = canonical.skew_canonical_basis(M, tol)
        return _matrix(block.basis.T @ A @ block.basis, tol), block.basis
    raise InputError(f"unknown basis mode {mode!r}")


# --- commands ----------------------------------------------------------------

def _cmd_analyze(request):
    A = load_matrix(request.input_path)
    M, basis = _apply_basis(A, request.basis_mode, request.tol)  # one record for the three sections
    spec_report = spectral.eigenstructure(M, request.tol)
    norm_report = canonical.normality_report(M, request.tol)
    doc = {
        "command": "analyze",
        "seed": request.seed,
        "basis_mode": request.basis_mode,
        "tolerances": dict(vars(request.tol)),
        "input": _matrix_section(A),
    }
    if basis is not None:
        doc["basis"] = basis.tolist()
        doc["matrix_in_basis"] = M.A.tolist()
    doc["spectral"] = _spectral_section(spec_report)
    doc["normality"] = _normality_section(norm_report)
    doc["forms"] = _forms_section(M, request.seed, spec_report.bromwich)
    if spec_report.flags:
        raise NumericalError(
            "tolerance failure: " + "; ".join(spec_report.flags),
            residual=spec_report.flags[0],
        )
    probe_residual = doc["forms"]["decomposition_probe"]["residual"]
    if probe_residual > request.tol.residual_tol:
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
        "tolerances": dict(vars(request.tol)),
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
    A = None if request.input_path is None else load_matrix(request.input_path)
    n = request.params.get("n", 4) if A is None else len(A)
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    if n > IDENTITIES_MAX_DIM:
        raise InputError(f"dimension must be <= IDENTITIES_MAX_DIM = {IDENTITIES_MAX_DIM}, got {n}")
    if A is None:
        A = np.random.default_rng(request.seed).uniform(-1.0, 1.0, size=(n, n))
    return {
        "command": "identities",
        "seed": request.seed,
        "tolerances": dict(vars(request.tol)),
        "input": _matrix_section(A),
        "invariants": _invariants_section(_matrix(A, request.tol), request.seed),
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
        obj = _decode_json(_read_text(path), path)
        if not isinstance(obj, dict):
            raise InputError(f"{path}: grid field must be a JSON object")
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
            "computed": {_pair_key(p): forms.computed[p].tolist() for p in forms.computed},
            "model": {_pair_key(p): forms.model[p].tolist() for p in forms.model},
            "delta_max": {_pair_key(p): forms.deltas[p] for p in forms.deltas},
        },
        "expansion_norm": forms.expansion_norm,
        "model_comparison": dict(vars(comparison)),
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
        if name not in {field.name for field in dataclasses.fields(ToleranceConfig)}:
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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--input", help="matrix file (JSON object or whitespace grid)")
    parser.add_argument("--basis", choices=("given", "expansion", "skew-canonical"),
                        help="work in the given basis (default) or a canonical one (analyze only)")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override a tolerance (repeatable)")
    parser.add_argument("--seed", type=int, default=0, help="seed for probe vectors")
    parser.add_argument("--output", help="report path (stdout when omitted)")
    parser.add_argument("--field", help="frenet: helix, circular or file:<path>")
    parser.add_argument("--params", help="comma-separated name=value parameters")
    parser.add_argument("--point", help="frenet: evaluation point x,y,z")
    return parser


# What each command reads beside --seed and --output: its options, and the parameters of
# --params, each with the option that leaves it unread unless that option's value is
# listed, and the words that say so.  A command refuses any other option or parameter.
_READS = {"analyze": ("input", "basis", "tol"), "planar": ("input", "tol"),
          "identities": ("input", "tol", "params"), "frenet": ("field", "params", "point")}
_PARAMS = {"identities": {"n": ("input", (None,), " beside --input, whose file sets n")},
           "frenet": {"c": ("field", (None, "helix"), " beside --field {field}"),
                      "r": ("point", (None,), " beside --point")}}


def request_from_args(args):
    for option in ("input", "basis", "tol", "field", "params", "point"):
        if getattr(args, option) is not None and option not in _READS[args.command]:
            *others, last = [command for command, reads in _READS.items() if option in reads]
            names = f"{', '.join(others)} and {last} commands" if others else f"{last} command"
            raise InputError(f"--{option} applies to the {names} only")
    if args.command in ("analyze", "planar") and args.input is None:
        raise InputError(f"{args.command} needs --input")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    request = AnalysisRequest(
        command=args.command,
        input_path=args.input,
        basis_mode=args.basis or "given",
        tol=_parse_tol(args.tol),
        seed=args.seed,
        output_path=args.output,
        field_spec=args.field,
        params=_parse_params(args.params),
        point=_parse_point(args.point),
    )
    for name in request.params:  # a parameter with no entry is never read
        option, read_with, where = _PARAMS[args.command].get(name, ("command", (), ""))
        if getattr(args, option) not in read_with:
            raise InputError(f"{args.command} does not read parameter {name!r}"
                             + where.format(**vars(args)))
    return request


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


if __name__ == "__main__":
    console_main()
