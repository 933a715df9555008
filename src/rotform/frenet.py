"""Frenet-frame analysis of unit flow fields on three-dimensional space.

The central object is the shape map of the field: the endomorphism sending a
direction Y to the directional derivative of the field along Y, expressed in
the moving (tangent, normal, binormal) frame.  Its rotation forms carry the
curvature and torsion; an idealised skew model of that matrix is assembled
from (kappa, tau, sigma) and compared entry by entry against the numerical
one, with discrepancies reported rather than assumed away.
"""

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .errors import FieldError, InputError
from .linalg import _positive, as_direction, maxabs
from .qforms import rotation_form_matrix
from .quasirot import plane_pairs

_UNIT_TOL = 1e-8
_AXES, _STEPS = np.eye(3), np.array([-2.0, -1.0, 1.0, 2.0])  # stencil axes, offsets over h


@dataclass(frozen=True)
class FlowField:
    """A unit vector field on (a subset of) three-space.

    evaluator maps a point to a 3-vector that must be unit length within
    1e-8 (checked on every query); jacobian, when supplied, returns the
    analytic 3x3 derivative and is preferred over finite differences.
    fd_step, finite and > 0, scales the central-difference step: h = fd_step * (1 + |x|).
    frenet_report queries T and the Jacobian at x, then at each stencil point
    along T, in that order: 10 queries, or 65 with differences (field_jacobian).
    """

    evaluator: object
    jacobian: object = None
    fd_step: float = 1e-5
    name: str = "field"

    def __post_init__(self):
        _positive(self.fd_step, "fd_step")

    def at(self, x):
        x = np.asarray(x, dtype=float)
        v = np.asarray(self.evaluator(x), dtype=float)
        if v.shape != (3,):
            raise FieldError(f"{self.name} returned shape {v.shape}, expected a 3-vector")
        norm = sqrt(v @ v)  # the ddot of np.linalg.norm
        if not (isfinite(norm) and abs(norm - 1.0) <= _UNIT_TOL):
            raise FieldError(f"{self.name} is not unit at {tuple(float(c) for c in x)}: "
                             f"|v| = {norm:.12g}")
        return v

    def step(self, x):
        return self.fd_step * (1.0 + float(np.linalg.norm(x)))


def _point(x):
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise InputError(f"point must be a 3-vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InputError("point has non-finite coordinates")
    return x


def field_jacobian(field, x):
    """Derivative matrix of the field at x: column j holds the directional
    derivative along the j-th axis.  Analytic when the field provides one,
    otherwise fourth-order central differences from 12 queries: axis by
    axis, at x - 2h e, x - h e, x + h e, x + 2h e along each."""
    x = _point(x)
    if field.jacobian is not None:
        field.at(x)  # enforce the unit contract at the query point
        J = np.asarray(field.jacobian(x), dtype=float)
        if J.shape != (3, 3):
            raise FieldError(f"analytic jacobian returned shape {J.shape}")
        return J
    h = field.step(x)
    samples = np.array([field.at(y) for y in _stencil(x, _AXES, h)]).reshape(3, 4, 3)
    # C order: J @ T on an F-ordered J can differ in the last bit
    return np.ascontiguousarray(_difference(samples.transpose(1, 2, 0), h))


def _stencil(x, d, h):
    """x + c h d, c = -2, -1, 1, 2: the difference stencil along d, or each row of d in turn."""
    return (x + (h * _STEPS)[:, None] * d[..., None, :]).reshape(-1, 3)


def _difference(samples, h):
    """Fourth-order central difference from the values at the _stencil points."""
    f1, f2, f3, f4 = samples
    return (f1 - 8.0 * f2 + 8.0 * f3 - f4) / (12.0 * h)


def _frame_at(field, x, kappa_tol):
    """(T, N, J, kappa) at x: the field value, its normalised turning
    direction, the Jacobian and the curvature.  Straight flow raises."""
    T = field.at(x)
    J = field_jacobian(field, x)
    dT = J @ T
    kappa = sqrt(dT @ dT)
    if kappa <= kappa_tol:
        raise InputError(f"straight flow: curvature {kappa:.3e} at {tuple(float(c) for c in x)} "
                         f"is below {kappa_tol:.3e}")
    return T, dT / kappa, J, kappa


@dataclass(frozen=True)
class FrenetData:
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float
    sigma: float
    shape_matrix: np.ndarray   # shape map in the (T, N, B) frame
    model_matrix: np.ndarray   # idealised skew model built from kappa, tau, sigma
    skew_residual: float       # max|A + A^T| of the numerical shape matrix


def _cross(a, b):
    """np.cross of two 3-vectors, by its products and differences."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def model_shape_matrix(kappa, tau, sigma):
    return np.array([[0.0, -kappa, 0.0], [kappa, 0.0, -tau + sigma], [0.0, tau - sigma, 0.0]])


def _shape_map(field, x, kappa_tol):
    """FrenetData at x, its compare_matrix_to_model findings, the Jacobian
    there and the differences dN, dB of the normal and binormal fields along
    T.  The field and its Jacobian are sampled once each at x and at the
    four stencil points along T."""
    kappa_tol, x = _positive(kappa_tol, "kappa_tol"), _point(x)
    T, N, J, kappa = _frame_at(field, x, kappa_tol)
    B = _cross(T, N)
    h = 10.0 * field.step(x)
    frames = [_frame_at(field, y, kappa_tol * 0.01)[:2] for y in _stencil(x, T, h)]
    dN, dB = _difference(np.array([(n, _cross(t, n)) for t, n in frames]), h)
    tau = float(dN @ B)
    F = np.column_stack([T, N, B])
    A_F = F.T @ J @ F
    sigma = tau - float(A_F[2, 1])
    base = compare_matrix_to_model(A_F, kappa, tau, sigma)
    data = FrenetData(
        T=T, N=N, B=B, kappa=kappa, tau=tau, sigma=sigma,
        shape_matrix=A_F, model_matrix=model_shape_matrix(kappa, tau, sigma),
        skew_residual=base["skew_residual"],
    )
    return data, base, J, dN, dB


def frenet_frame(field, x, kappa_tol=1e-8):
    """(T, N, B, kappa, tau) at x.

    T is the field value, N the normalised turning direction, B their cross
    product; tau comes from a directional difference of the normal field
    along T.  Curvature at or below kappa_tol raises (straight flow).
    """
    data = _shape_map(field, x, kappa_tol)[0]
    return data.T, data.N, data.B, data.kappa, data.tau


def shape_map_frenet(field, x, kappa_tol=1e-8):
    """Shape map of the field at x in its own Frenet frame.

    sigma is defined operationally as tau minus the (B, N) entry of the
    numerical matrix, which makes the model's (3, 2) entry match by
    construction; every other model entry is a genuine prediction.
    """
    return _shape_map(field, x, kappa_tol)[0]


def model_rotation_forms(kappa, tau, sigma):
    """Rotation forms of the idealised shape matrix in the Frenet frame,
    keyed by the (T,N) = (1,2), (T,B) = (1,3) and (N,B) = (2,3) planes."""
    A = model_shape_matrix(kappa, tau, sigma)
    # Adding 0.0 turns the -0.0 that negating a zero entry leaves into 0.0.
    return {pair: rotation_form_matrix(A, pair) + 0.0 for pair in plane_pairs(3)}


@dataclass(frozen=True)
class FrenetForms:
    data: FrenetData
    computed: dict       # pair -> rotation form matrix of the numerical shape matrix
    model: dict          # pair -> model matrix
    deltas: dict         # pair -> max entrywise difference
    expansion_norm: float


@dataclass(frozen=True)
class ModelComparison:
    """Findings, not assertions: where the numerical shape matrix differs
    from the idealised skew model."""

    skew_residual: float
    entry_12: float            # numerical (T, N) entry
    model_entry_12: float      # the model says -kappa
    delta_12: float
    diag_22: float             # model says 0
    diag_33: float             # model says 0
    expansion_norm: float
    kernel_residual: float     # |A_F w| / |w| for w = (sigma - tau) T - kappa B
    sigma: float
    sigma_commutator: float    # [T, N].B via differences of the normal field
    sigma_alt: float           # -[T, B].N via differences of the binormal field
    sigma_spread: float        # max pairwise difference of the three sigmas


def compare_matrix_to_model(A_F, kappa, tau, sigma):
    """Entry-level comparison of a frame matrix against the skew model."""
    A_F = np.asarray(A_F, dtype=float)
    w = np.array([sigma - tau, 0.0, -kappa])
    norm_w, Aw = sqrt(w @ w), A_F @ w
    kernel_residual = sqrt(Aw @ Aw) / norm_w if norm_w > 0 else 0.0
    skew_residual = maxabs(A_F + A_F.T)
    (_, a12, _), (_, a22, _), (_, _, a33) = A_F.tolist()
    return {
        "skew_residual": skew_residual,
        "entry_12": a12, "model_entry_12": -kappa, "delta_12": abs(a12 + kappa),
        "diag_22": a22, "diag_33": a33,
        "expansion_norm": 0.5 * skew_residual,  # = max|(A + A^T) / 2|: halving is monotone
        "kernel_residual": kernel_residual,
    }


def frenet_report(field, x, kappa_tol=1e-8):
    """(frenet_rotation_forms, model_compare) at x from one sampling of the field."""
    data, base, J, dN, dB = _shape_map(field, x, kappa_tol)
    computed = {pair: rotation_form_matrix(data.shape_matrix, pair) for pair in plane_pairs(3)}
    model = model_rotation_forms(data.kappa, data.tau, data.sigma)
    deltas = {pair: maxabs(computed[pair] - model[pair]) for pair in computed}
    forms = FrenetForms(data=data, computed=computed, model=model, deltas=deltas,
                        expansion_norm=base["expansion_norm"])
    sigmas = (data.sigma, float((dN - J @ data.N) @ data.B),
              float(-((dB - J @ data.B) @ data.N)))
    comparison = ModelComparison(
        **base, sigma=sigmas[0], sigma_commutator=sigmas[1], sigma_alt=sigmas[2],
        sigma_spread=max(sigmas) - min(sigmas),
    )
    return forms, comparison


def frenet_rotation_forms(field, x, kappa_tol=1e-8):
    """Rotation forms of the numerical shape map next to the model forms.

    The model predicts a zero expansion form; its actual norm is reported.
    """
    return frenet_report(field, x, kappa_tol)[0]


def model_compare(field, x, kappa_tol=1e-8):
    """Structured discrepancy report for the shape matrix at x."""
    return frenet_report(field, x, kappa_tol)[1]


def helix_field(c, analytic=True):
    """Unit field (-y, x, c) / sqrt(x^2 + y^2 + c^2); singular on the z-axis
    when c = 0.  Integral curves are helices around the z-axis."""
    c = float(c)

    def evaluator(x):
        s2 = x[0] * x[0] + x[1] * x[1] + c * c
        if s2 <= 0.0:
            raise FieldError(f"helix field singular at {tuple(float(v) for v in x)}")
        s = np.sqrt(s2)
        return np.array([-x[1] / s, x[0] / s, c / s])

    def jacobian(x):
        s2 = x[0] * x[0] + x[1] * x[1] + c * c
        if s2 <= 0.0:
            raise FieldError(f"helix field singular at {tuple(float(v) for v in x)}")
        s = np.sqrt(s2)
        s3 = s * s2
        return np.array(
            [
                [x[0] * x[1] / s3, -1.0 / s + x[1] * x[1] / s3, 0.0],
                [1.0 / s - x[0] * x[0] / s3, -x[0] * x[1] / s3, 0.0],
                [-c * x[0] / s3, -c * x[1] / s3, 0.0],
            ]
        )

    return FlowField(
        evaluator=evaluator,
        jacobian=jacobian if analytic else None,
        name=f"helix(c={c:g})",
    )


def circular_field(analytic=True):
    """Planar rotation field around the z-axis: helix with c = 0."""
    return helix_field(0.0, analytic=analytic)


def constant_field(direction):
    """Constant unit field; zero curvature everywhere."""
    d = as_direction(direction, 3, "constant field direction")
    return FlowField(evaluator=lambda x: d.copy(), jacobian=lambda x: np.zeros((3, 3)),
                     name="constant")


def _float_array(value, name):
    """A read-only float copy of value, which a caller's later writes cannot reach."""
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"grid {name} must be a regular array of numbers") from None
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GridField:
    """Trilinear interpolation of unit samples on a regular grid.

    origin and spacing must be finite and the raw samples unit within 1e-8 (checked at
    construction); the interpolant is renormalised to meet the unit contract.  A query
    outside the closed box (its upper faces are inside) raises naming its point: a stencil
    names its first such query.
    origin, spacing and values are kept as read-only float copies, so a caller's later
    writes to its arrays reach no query; each cell's 8 corners are read once per field,
    as Python floats, at the cell's first query.
    """

    origin: np.ndarray
    spacing: np.ndarray
    values: np.ndarray  # shape (nx, ny, nz, 3)

    def __post_init__(self):
        origin = _float_array(self.origin, "origin")
        spacing = _float_array(self.spacing, "spacing")
        values = _float_array(self.values, "values")
        if origin.shape != (3,) or spacing.shape != (3,):
            raise InputError("grid origin and spacing must be 3-vectors")
        if not np.isfinite([origin, spacing]).all():
            raise InputError("grid origin and spacing must be finite")
        if np.any(spacing <= 0.0):
            raise InputError("grid spacing must be positive")
        if values.ndim != 4 or values.shape[3] != 3 or min(values.shape[:3]) < 2:
            raise InputError(
                f"grid values must have shape (nx, ny, nz, 3) with nx, ny, nz >= 2, "
                f"got {values.shape}"
            )
        norms = np.linalg.norm(values, axis=3)
        worst = float(np.max(np.abs(norms - 1.0)))
        if not worst <= _UNIT_TOL:  # a NaN sample (JSON null or NaN) fails too
            raise InputError(f"grid samples are not unit: worst |v| deviation {worst:.3e}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "values", values)
        # origin, spacing and node counts as Python numbers, for the cell arithmetic
        object.__setattr__(self, "_cell", (origin.tolist(), spacing.tolist(), values.shape[:3]))
        object.__setattr__(self, "_corners", {})  # (i, j, k) -> the cell's 8 corners, as lists

    def __call__(self, x):
        x0, x1, x2 = np.asarray(x, dtype=float).tolist()
        (o0, o1, o2), (s0, s1, s2), (nx, ny, nz) = self._cell
        r0, r1, r2 = (x0 - o0) / s0, (x1 - o1) / s1, (x2 - o2) / s2
        if not (0.0 <= r0 <= nx - 1 and 0.0 <= r1 <= ny - 1 and 0.0 <= r2 <= nz - 1):
            raise FieldError(f"point {(x0, x1, x2)} lies outside the sampled grid")
        i, j, k = min(int(r0), nx - 2), min(int(r1), ny - 2), min(int(r2), nz - 2)
        corners = self._corners.get((i, j, k))
        if corners is None:
            corners = self.values[i : i + 2, j : j + 2, k : k + 2].reshape(8, 3).tolist()
            self._corners[i, j, k] = corners
        (g0, f0), (g1, f1), (g2, f2) = ((1.0 - f, f) for f in (r0 - i, r1 - j, r2 - k))
        # corners (dx, dy, dz) in C order, weighted (w_dx * w_dy) * w_dz, w = (1 - f, f), and
        # added in that order to 0.0, which turns an all -0.0 component into 0.0
        a, b, c, d = g0 * g1, g0 * f1, f0 * g1, f0 * f1
        weights = (a * g2, a * f2, b * g2, b * f2, c * g2, c * f2, d * g2, d * f2)
        u0 = u1 = u2 = 0.0
        for w, (v0, v1, v2) in zip(weights, corners):
            u0 += w * v0
            u1 += w * v1
            u2 += w * v2
        out = np.array([u0, u1, u2])
        norm = sqrt(out @ out)
        if norm == 0.0:
            raise FieldError("interpolated field vanished; samples disagree too strongly")
        return out / norm


def grid_field(origin, spacing, values, fd_step=1e-5):
    interp = GridField(origin=origin, spacing=spacing, values=values)
    return FlowField(evaluator=interp, jacobian=None, fd_step=fd_step, name="grid field")
