import inspect
import types

import rotform

EXPORTED = {
    "DEFAULT_TOL", "DSSplit", "Decomposition", "FieldError", "FlowField", "FormFamily",
    "FrenetData", "InputError", "InvariantReport", "NormalityReport", "NumericalError",
    "PlanarReport", "QForm", "RotationCoeffs", "SkewBlockForm", "SpectralReport", "Spectrum",
    "ToleranceConfig", "almost_orthogonal_expand", "apply_quasi_rotation", "bromwich_bounds",
    "cayley_hamilton_residual", "ch_form_residuals", "ch_trace_residuals", "circular_field",
    "collings_det", "common_zero_check", "commutator_forms", "constant_field", "decompose",
    "eigenstructure", "euler_cauchy_stokes", "evaluate", "expansion_eigenbasis",
    "expansion_form", "field_jacobian", "form_average", "form_extremes", "form_family",
    "frenet_frame", "frenet_rotation_forms", "gram_trace_identity_residual", "helix_field",
    "invariant_report", "model_compare", "n4_det_identity_residual", "newton_residuals",
    "normal_invariant_recover", "normal_power_basis", "normality_report", "nullspace",
    "planar_analyze", "plane_pairs", "pm2_identity_residual", "polar", "power_form_step",
    "principal_minor_sums", "quasi_rotation", "random_orthogonal", "real_spectrum",
    "rotation_change_of_basis", "rotation_form", "rotation_form_change_of_basis",
    "rotation_trace_sum", "shape_map_frenet", "skew_canonical_basis", "skew_rotation_coeffs",
    "skew_square_structure", "sym_eigen", "zero_subspace_extend",
}

PARAMETERS = {
    "newton_residuals": ("A",),
    "cayley_hamilton_residual": ("A", "u", "v"),
    "ch_form_residuals": ("A", "u"),
    "ch_trace_residuals": ("A",),
    "pm2_identity_residual": ("A",),
    "gram_trace_identity_residual": ("A",),
    "euler_cauchy_stokes": ("A",),
    "collings_det": ("Dd", "B", "max_dim"),
    "n4_det_identity_residual": ("A",),
    "power_form_step": ("A", "m", "u"),
    "invariant_report": ("A", "seed", "power_steps"),
    "principal_minor_sums": ("A",),
    "bromwich_bounds": ("A", "tol"),
    "decompose": ("A", "u"),
    "almost_orthogonal_expand": ("u", "v", "unit_tol"),
    "frenet_frame": ("field", "x", "kappa_tol"),
    "frenet_rotation_forms": ("field", "x", "kappa_tol"),
    "model_compare": ("field", "x", "kappa_tol"),
    "shape_map_frenet": ("field", "x", "kappa_tol"),
}


def test_exported_names_are_pinned():
    exported = {
        name for name, value in vars(rotform).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTED


def test_parameters_of_refactored_functions_are_pinned():
    for name, parameters in PARAMETERS.items():
        assert tuple(inspect.signature(getattr(rotform, name)).parameters) == parameters, name
