import inspect
import types
import warnings

import numpy as np
import pytest

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


_A = np.array([[1.0, 2.0], [0.5, -1.0]])

# The input contract's real-array gate and integer gate: each call is refused with
# InputError, where np.asarray(., dtype=float) dropped an imaginary part with only a
# ComplexWarning, read an object or string array as numbers, and n = 2.5 was a TypeError;
# and its tolerance gate, where nullspace took abs_threshold = -1 or NaN for an empty kernel
# and frenet_frame kappa_tol = -1 or NaN for a frame; a ToleranceConfig field given as a
# string was a TypeError.
_unit = lambda x: np.array([1.0, 0.0, 0.0])  # noqa: E731
REFUSED = [
    ("eigenstructure", (_A + 1j,)),
    ("real_spectrum", (_A + 1j,)),
    ("principal_minor_sums", (_A + 1j,)),
    ("invariant_report", (_A + 1j,)),
    ("planar_analyze", (_A + 1j,)),
    ("normality_report", (_A + 1j,)),
    ("bromwich_bounds", (_A + 1j,)),
    ("sym_eigen", (_A + _A.T + 1j,)),
    ("nullspace", (_A + 1j,)),
    ("eigenstructure", (_A.astype(object),)),
    ("expansion_eigenbasis", (_A.astype(str),)),
    ("skew_canonical_basis", ([["1", "2"], ["3", "4"]],)),
    ("decompose", (_A, [1.0, 1j])),
    ("almost_orthogonal_expand", ([1.0, 1j], [1.0, 0.0])),
    ("random_orthogonal", (2.5, 0)),
    ("random_orthogonal", (True, 0)),
    ("random_orthogonal", (0, 0)),
    ("nullspace", (_A, rotform.DEFAULT_TOL, -1.0)),
    ("nullspace", (_A, rotform.DEFAULT_TOL, float("nan"))),
    ("frenet_frame", (rotform.helix_field(0.5), [1.0, 0.2, 0.1], -1.0)),
    ("frenet_frame", (rotform.helix_field(0.5), [1.0, 0.2, 0.1], float("nan"))),
    ("shape_map_frenet", (rotform.helix_field(0.5), [1.0, 0.2, 0.1], float("inf"))),
    ("almost_orthogonal_expand", ([1.0, 0.0], [1.0, 0.0], -1e-10)),
    ("almost_orthogonal_expand", ([1.0, 0.0], [1.0, 0.0], float("nan"))),
    ("almost_orthogonal_expand", ([1.0, 0.0], [1.0, 0.0], "1e-10")),
    ("FlowField", (_unit, None, 0.0)),
    ("FlowField", (_unit, None, float("nan"))),
    ("FlowField", (_unit, None, True)),
    ("ToleranceConfig", (1e-12, "1e-12")),
    ("ToleranceConfig", (1e-12, 1e-12, True)),
]


@pytest.mark.parametrize("name, args", REFUSED,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(REFUSED)])
def test_malformed_arguments_are_refused_with_input_error(name, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning is no refusal
        with pytest.raises(rotform.InputError):
            getattr(rotform, name)(*args)


def test_a_complex_array_with_zero_imaginary_part_is_read_as_its_real_part():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rotform.real_spectrum(_A + 0j) == rotform.real_spectrum(_A)
        assert rotform.principal_minor_sums(_A + 0j) == rotform.principal_minor_sums(_A)
        np.testing.assert_array_equal(rotform.random_orthogonal(np.int64(3), 1),
                                      rotform.random_orthogonal(3, 1))
