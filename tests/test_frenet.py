import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from rotform import (
    FieldError,
    FlowField,
    InputError,
    circular_field,
    constant_field,
    decompose,
    field_jacobian,
    frenet_frame,
    frenet_rotation_forms,
    helix_field,
    model_compare,
    shape_map_frenet,
)
from rotform import rotation_form
from rotform.frenet import (
    GridField,
    _cross,
    compare_matrix_to_model,
    frenet_report,
    grid_field,
    model_rotation_forms,
    model_shape_matrix,
)

from oracles import field_jacobian_loop, frenet_query_points, trilinear_reference
from test_shared_record import _text


def helix_reference(r, c):
    s2 = r * r + c * c
    return r / s2, c / s2


class TestFieldJacobian:
    def test_constant_field_zero_jacobian(self):
        J = field_jacobian(constant_field([0.0, 0.0, 1.0]), np.array([0.3, -0.2, 1.0]))
        assert not J.any()

    def test_helix_analytic_vs_differences(self):
        analytic = helix_field(0.5)
        numeric = helix_field(0.5, analytic=False)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-2, 2, 3)
            x[0] += 3.0  # stay away from the axis
            Ja = field_jacobian(analytic, x)
            Jn = field_jacobian(numeric, x)
            assert np.max(np.abs(Ja - Jn)) < 1e-7

    def test_normalised_affine_field_closed_form(self):
        L = np.array([[0.1, 0.3, 0.0], [-0.2, 0.0, 0.1], [0.0, 0.2, -0.1]])
        d = np.array([0.0, 0.0, 1.0])

        def raw(x):
            return d + L @ x

        field = FlowField(evaluator=lambda x: raw(x) / np.linalg.norm(raw(x)))
        x = np.array([0.2, -0.1, 0.3])
        v = raw(x)
        norm = np.linalg.norm(v)
        unit = v / norm
        expected = (np.eye(3) - np.outer(unit, unit)) @ L / norm
        J = field_jacobian(field, x)
        assert np.max(np.abs(J - expected)) < 1e-9

    def test_non_unit_field_rejected(self):
        bad = FlowField(evaluator=lambda x: np.array([1.0, 1.0, 0.0]))
        with pytest.raises(FieldError):
            field_jacobian(bad, np.zeros(3))

    @pytest.mark.parametrize("value, message", [
        ([1.0, 0.0], r"returned shape \(2,\), expected a 3-vector"),
        ([1.0, 1.0, 0.0], r"is not unit at \(0.5, 0.0, 0.0\): \|v\| = 1.41421356237"),
        ([np.nan, 0.0, 0.0], r"is not unit at \(0.5, 0.0, 0.0\): \|v\| = nan"),
        ([np.inf, 0.0, 0.0], r"is not unit at \(0.5, 0.0, 0.0\): \|v\| = inf"),
        ([1.0 + 2e-8, 0.0, 0.0], r"\|v\| = 1.00000002"),
    ])
    def test_each_query_checks_shape_and_unit_length(self, value, message):
        seen = []
        field = FlowField(evaluator=lambda x: seen.append(x) or value, name="probe")
        with pytest.raises(FieldError, match=message):
            field.at([0.5, 0.0, 0.0])
        assert len(seen) == 1 and seen[0].dtype == np.float64 and seen[0].shape == (3,)

    def test_an_analytic_jacobian_must_be_3_by_3(self):
        field = FlowField(evaluator=lambda x: np.array([1.0, 0.0, 0.0]),
                          jacobian=lambda x: np.zeros((2, 2)))
        with pytest.raises(FieldError, match=r"^analytic jacobian returned shape \(2, 2\)$"):
            field_jacobian(field, np.zeros(3))

    @pytest.mark.parametrize("query", ["at", "jacobian"])
    def test_the_circular_field_is_singular_on_its_axis(self, query):
        with pytest.raises(FieldError, match=r"^helix field singular at \(0.0, 0.0, 0.0\)$"):
            getattr(circular_field(), query)(np.zeros(3))


class TestFrenetFrame:
    @pytest.mark.parametrize("func", [field_jacobian, frenet_frame])
    def test_a_point_that_is_not_a_3_vector_is_refused(self, func):
        with pytest.raises(InputError, match=r"^point must be a 3-vector, got shape \(2,\)$"):
            func(helix_field(0.5), [1.0, 0.0])

    @pytest.mark.parametrize("r,c", [(1.0, 0.5), (2.0, 0.25)])
    def test_helix_curvature_and_torsion(self, r, c):
        field = helix_field(c)
        T, N, B, kappa, tau = frenet_frame(field, np.array([r, 0.0, 0.0]))
        kappa_ref, tau_ref = helix_reference(r, c)
        assert kappa == pytest.approx(kappa_ref, abs=1e-9)
        assert tau == pytest.approx(tau_ref, abs=1e-9)

    def test_circular_field_planar(self):
        field = circular_field()
        _, _, _, kappa, tau = frenet_frame(field, np.array([2.0, 0.0, 0.0]))
        assert kappa == pytest.approx(0.5, abs=1e-9)
        assert abs(tau) < 1e-9

    @pytest.mark.parametrize("field", [helix_field(0.7), helix_field(0.3), circular_field()],
                             ids=["helix-0.7", "helix-0.3", "circular"])
    def test_frame_orthonormal_right_handed(self, field):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, 3)
            x[:2] += np.sign(x[:2]) * 1.0 + np.array([2.0, 0.0])
            T, N, B, _, _ = frenet_frame(field, x)
            F = np.column_stack([T, N, B])
            assert np.max(np.abs(F.T @ F - np.eye(3))) < 1e-8
            np.testing.assert_allclose(np.cross(T, N), B, atol=1e-8)

    def test_constant_field_is_straight(self):
        with pytest.raises(InputError, match="straight"):
            frenet_frame(constant_field([1.0, 0.0, 0.0]), np.zeros(3))


class TestShapeMapFrenet:
    def test_structural_entries(self):
        field = helix_field(0.5)
        data = shape_map_frenet(field, np.array([1.0, 0.0, 0.0]))
        A = data.shape_matrix
        # the tangent row vanishes for any unit field
        assert np.max(np.abs(A[0, :])) < 1e-6
        assert A[1, 0] == pytest.approx(data.kappa, abs=1e-9)
        assert abs(A[2, 0]) < 1e-9
        # entry (3,2) carries tau - sigma by the operational definition
        assert A[2, 1] == pytest.approx(data.tau - data.sigma, abs=1e-12)

    def test_helix_sigma_vanishes(self):
        field = helix_field(0.5)
        data = shape_map_frenet(field, np.array([1.0, 0.0, 0.0]))
        assert abs(data.sigma) < 1e-9

    def test_kernel_direction_annihilated(self):
        field = helix_field(0.5)
        data = shape_map_frenet(field, np.array([1.0, 0.0, 0.0]))
        w = np.array([data.sigma - data.tau, 0.0, -data.kappa])
        assert np.linalg.norm(data.shape_matrix @ w) < 1e-6 * np.linalg.norm(w)

    def test_decomposition_theorem_holds_for_shape_map(self):
        field = helix_field(0.4)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(0.5, 2.0, 3) * np.array([1.0, 1.0, 0.3])
            data = shape_map_frenet(field, x)
            u = rng.standard_normal(3)
            assert decompose(data.shape_matrix, u).residual < 1e-8


class TestFrenetRotationForms:
    def test_curvature_is_common_rotation_value(self):
        field = helix_field(0.5)
        forms = frenet_rotation_forms(field, np.array([1.0, 0.0, 0.0]))
        T_coords = np.array([1.0, 0.0, 0.0])
        value = float(T_coords @ forms.computed[(1, 2)] @ T_coords)
        assert value == pytest.approx(forms.data.kappa, abs=1e-9)

    def test_model_forms_match_printed_layout(self):
        kappa, tau, sigma = 0.8, 0.4, 0.1
        forms = model_rotation_forms(kappa, tau, sigma)
        half = 0.5 * (sigma - tau)
        np.testing.assert_allclose(
            forms[(1, 2)],
            [[kappa, 0.0, half], [0.0, kappa, 0.0], [half, 0.0, 0.0]],
        )
        np.testing.assert_allclose(
            forms[(1, 3)],
            [[0.0, -half, 0.0], [-half, 0.0, kappa / 2], [0.0, kappa / 2, 0.0]],
        )
        np.testing.assert_allclose(
            forms[(2, 3)],
            [[0.0, 0.0, -kappa / 2], [0.0, tau - sigma, 0.0], [-kappa / 2, 0.0, tau - sigma]],
        )

    def test_model_forms_are_rotation_forms_of_model_matrix(self):
        kappa, tau, sigma = 0.8, 0.4, 0.1
        M = model_shape_matrix(kappa, tau, sigma)
        forms = model_rotation_forms(kappa, tau, sigma)
        for pair, expected in forms.items():
            np.testing.assert_allclose(rotation_form(M, pair).matrix, expected, atol=1e-15)

    def test_model_forms_share_single_common_zero(self):
        kappa, tau, sigma = 0.8, 0.4, 0.1
        forms = model_rotation_forms(kappa, tau, sigma)
        w = np.array([sigma - tau, 0.0, -kappa])
        for M in forms.values():
            assert abs(float(w @ M @ w)) < 1e-12
        # and the zero is unique up to sign on the sphere
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            if all(abs(float(u @ M @ u)) < 1e-8 for M in forms.values()):
                assert abs(float(u @ w) / np.linalg.norm(w)) > 1.0 - 1e-6

    def test_nonzero_deltas_where_model_disagrees(self):
        field = helix_field(0.5)
        forms = frenet_rotation_forms(field, np.array([1.0, 0.0, 0.0]))
        # the (T,N) form differs from the model in its (1,1) vs (2,2) balance
        # because the numerical shape matrix is not skew; deltas are reported
        assert all(np.isfinite(v) for v in forms.deltas.values())
        assert forms.expansion_norm > 0.1  # kappa/2-sized, far from the model's zero


class TestModelCompare:
    def test_reports_tangent_entry_discrepancy(self):
        field = helix_field(0.5)
        cmp = model_compare(field, np.array([1.0, 0.0, 0.0]))
        kappa = 0.8
        assert cmp.model_entry_12 == pytest.approx(-kappa, abs=1e-9)
        assert abs(cmp.entry_12) < 1e-6
        assert cmp.delta_12 == pytest.approx(kappa, abs=1e-6)
        assert cmp.skew_residual == pytest.approx(kappa, abs=1e-6)
        assert cmp.kernel_residual < 1e-6
        assert cmp.sigma_spread < 1e-6

    def test_model_matrix_self_comparison_is_clean(self):
        kappa, tau, sigma = 0.8, 0.4, 0.1
        M = model_shape_matrix(kappa, tau, sigma)
        report = compare_matrix_to_model(M, kappa, tau, sigma)
        assert report["skew_residual"] == 0.0
        assert report["delta_12"] == 0.0
        assert report["diag_22"] == 0.0 and report["diag_33"] == 0.0
        assert report["expansion_norm"] == 0.0
        assert report["kernel_residual"] < 1e-15

    def test_circular_field_zero_torsion_branch(self):
        cmp = model_compare(circular_field(), np.array([2.0, 0.0, 0.0]))
        assert abs(cmp.sigma) < 1e-8
        assert cmp.kernel_residual < 1e-6


class TestFrenetReport:
    @staticmethod
    def counted(field):
        calls = []

        def evaluator(x):
            calls.append(tuple(x))
            return field.evaluator(x)

        return FlowField(evaluator, field.jacobian, field.fd_step, field.name), calls

    @pytest.mark.parametrize("analytic, evaluations", [(True, 10), (False, 65)])
    def test_samples_the_field_once(self, analytic, evaluations):
        # T and the Jacobian at x, then T and the Jacobian at four stencil points;
        # a difference Jacobian reads twelve values
        field, calls = self.counted(helix_field(0.5, analytic=analytic))
        frenet_report(field, np.array([1.0, 0.2, 0.1]))
        assert len(calls) == evaluations

    def test_matches_the_separate_analyses(self):
        field = helix_field(0.7, analytic=False)
        x = np.array([1.2, -0.3, 0.4])
        forms, comparison = frenet_report(field, x)
        alone = frenet_rotation_forms(field, x)
        assert comparison == model_compare(field, x)
        assert forms.deltas == alone.deltas
        assert forms.expansion_norm == alone.expansion_norm
        np.testing.assert_array_equal(forms.data.shape_matrix, alone.data.shape_matrix)
        assert frenet_frame(field, x)[3:] == (forms.data.kappa, forms.data.tau)


class TestGridField:
    @staticmethod
    def helix_grid(c=0.5, center=(1.0, 0.0, 0.0), h=0.02, m=9):
        base = helix_field(c)
        origin = np.array(center) - h * (m // 2)
        values = np.zeros((m, m, m, 3))
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    x = origin + h * np.array([i, j, k])
                    values[i, j, k] = base.at(x)
        return grid_field(origin, [h, h, h], values, fd_step=1e-6)

    def test_jacobian_close_to_analytic(self):
        field = self.helix_grid()
        x = np.array([1.0, 0.0, 0.0])
        J_grid = field_jacobian(field, x)
        J_true = field_jacobian(helix_field(0.5), x)
        assert np.max(np.abs(J_grid - J_true)) < 5e-3

    def test_frame_close_to_analytic(self):
        field = self.helix_grid()
        x = np.array([1.0, 0.0, 0.0])
        _, _, _, kappa, tau = frenet_frame(field, x)
        assert kappa == pytest.approx(0.8, abs=1e-2)
        assert tau == pytest.approx(0.4, abs=5e-2)

    def test_rejects_non_unit_samples(self):
        values = np.ones((2, 2, 2, 3))
        with pytest.raises(InputError, match="unit"):
            grid_field([0, 0, 0], [1, 1, 1], values)

    @pytest.mark.parametrize("bad", [None, float("nan")])
    def test_rejects_a_sample_that_is_not_a_number(self, bad):
        values = np.zeros((2, 2, 2, 3))
        values[..., 2] = 1.0
        values = values.tolist()
        values[1][1][1] = [1.0, 0.0, bad]  # JSON null or NaN, which numpy reads as NaN
        with pytest.raises(InputError, match=r"^grid samples are not unit: .* deviation nan$"):
            grid_field([0, 0, 0], [1, 1, 1], values)

    @pytest.mark.parametrize("origin, spacing", [
        ([0, 0, 0], [np.inf, 1, 1]), ([0, 0, 0], [1, np.nan, 1]),
        ([np.nan, 0, 0], [1, 1, 1]), ([0, 0, -np.inf], [1, 1, 1]),
    ], ids=["spacing inf", "spacing nan", "origin nan", "origin -inf"])
    def test_rejects_a_non_finite_origin_or_spacing(self, origin, spacing):
        # an infinite spacing would put every query in the first cell; a NaN one in none
        values = np.zeros((2, 2, 2, 3))
        values[..., 2] = 1.0
        with pytest.raises(InputError, match="^grid origin and spacing must be finite$"):
            grid_field(origin, spacing, values)

    @pytest.mark.parametrize("origin, spacing, shape, message", [
        ([0, 0], [1, 1, 1], (2, 2, 2, 3), "^grid origin and spacing must be 3-vectors$"),
        ([0, 0, 0], [1, 0, 1], (2, 2, 2, 3), "^grid spacing must be positive$"),
        ([0, 0, 0], [1, 1, 1], (2, 2, 3), r"^grid values must have shape \(nx, ny, nz, 3\)"),
    ], ids=["origin 2-vector", "spacing zero", "values 3-D"])
    def test_rejects_a_malformed_origin_spacing_or_values(self, origin, spacing, shape, message):
        values = np.zeros(shape)
        values[..., -1] = 1.0
        with pytest.raises(InputError, match=message):
            grid_field(origin, spacing, values)

    def test_an_interpolant_that_vanishes_is_refused(self):
        # +e_z on the x = 0 face, -e_z on the x = 1 face: zero halfway between them
        values = np.zeros((2, 2, 2, 3))
        values[0, ..., 2], values[1, ..., 2] = 1.0, -1.0
        field = grid_field([0, 0, 0], [1, 1, 1], values)
        with pytest.raises(FieldError, match="^interpolated field vanished"):
            field.at(np.array([0.5, 0.5, 0.5]))

    def test_rejects_out_of_range_query(self):
        values = np.zeros((2, 2, 2, 3))
        values[..., 2] = 1.0
        field = grid_field([0, 0, 0], [1, 1, 1], values)
        with pytest.raises(FieldError, match="outside"):
            field.at(np.array([5.0, 0.0, 0.0]))

    def test_grid_json_roundtrip(self, tmp_path):
        values = np.zeros((2, 2, 2, 3))
        values[..., 0] = 1.0
        spec = {"origin": [0, 0, 0], "spacing": [1, 1, 1], "values": values.tolist()}
        path = tmp_path / "field.json"
        path.write_text(json.dumps(spec))
        obj = json.loads(path.read_text())
        field = grid_field(obj["origin"], obj["spacing"], obj["values"])
        np.testing.assert_allclose(field.at(np.array([0.5, 0.5, 0.5])), [1.0, 0.0, 0.0])

    # dyadic origin and spacing, so that nodes, faces and edges are hit exactly
    ORIGIN, SPACING, DIMS = np.array([-1.0, 0.5, 2.0]), np.array([0.25, 0.5, 0.125]), (4, 5, 6)

    def random_grid(self, planar):
        """Unit samples on DIMS; planar ones have -0.0 as third component."""
        values = np.random.default_rng(11).standard_normal((*self.DIMS, 3))
        if planar:
            values[..., 2] = -0.0
        return GridField(self.ORIGIN, self.SPACING,
                         values / np.linalg.norm(values, axis=3, keepdims=True))

    @pytest.mark.parametrize("planar", [False, True], ids=["general", "planar"])
    def test_interpolant_matches_the_corner_loop_bit_for_bit(self, planar):
        grid = self.random_grid(planar)
        rng = np.random.default_rng(12)
        top = np.array(self.DIMS) - 1.0
        rels = list(rng.uniform(0.0, top, (300, 3)))                     # cell interiors
        rels += list(rng.integers(0, self.DIMS, (50, 3)).astype(float))   # nodes
        for axes in ([0], [1], [2], [0, 1], [1, 2], [0, 2]):            # faces, edges
            for rel in rng.uniform(0.0, top, (20, 3)):
                rel[axes] = rng.integers(0, np.array(self.DIMS)[axes])
                rels.append(rel)
        for axis in range(3):                                            # upper faces
            for rel in rng.uniform(0.0, top, (10, 3)):
                rel[axis] = top[axis]
                rels.append(rel)
        rels.append(top)
        assert len(rels) >= 500
        for rel in rels:
            x = self.ORIGIN + rel * self.SPACING
            assert grid(x).tobytes() == trilinear_reference(grid, x).tobytes(), rel

    def test_each_face_is_inside_and_a_point_past_it_outside(self):
        grid = self.random_grid(False)
        top = self.ORIGIN + (np.array(self.DIMS) - 1) * self.SPACING
        centre = 0.5 * (self.ORIGIN + top)
        for axis in range(3):
            for face, outward in ((self.ORIGIN[axis], -1.0), (top[axis], 1.0)):
                x = centre.copy()
                x[axis] = face
                assert grid(x).tobytes() == trilinear_reference(grid, x).tobytes()
                x[axis] = face + outward * 1e-9 * self.SPACING[axis]
                with pytest.raises(FieldError, match="outside"):
                    grid(x)

    @pytest.mark.parametrize("planar", [False, True], ids=["general", "planar"])
    def test_report_equals_the_report_on_the_corner_loop_bit_for_bit(self, planar):
        # the planar samples' -0.0 components reach T, the Jacobian and the sigmas
        grid = self.random_grid(planar)
        fields = [FlowField(grid, fd_step=1e-3),
                  FlowField(lambda y: trilinear_reference(grid, y), fd_step=1e-3)]
        rng = np.random.default_rng(13)
        top = np.array(self.DIMS) - 1.0
        rels = list(rng.uniform(0.0, top, (200, 3)))
        rels += list(rng.integers(0, self.DIMS, (20, 3)).astype(float))  # nodes
        for axis in range(3):                                          # upper faces
            for rel in rng.uniform(0.0, top, (5, 3)):
                rel[axis] = top[axis]
                rels.append(rel)
        reports = 0
        for rel in rels:
            x = self.ORIGIN + rel * self.SPACING
            got, want = (_report_text(field, x) for field in fields)
            assert got == want, rel
            reports += got.startswith("tuple[FrenetForms")
        assert reports >= 100

    def test_a_write_to_the_callers_samples_changes_no_query(self):
        values = np.random.default_rng(14).standard_normal((*self.DIMS, 3))
        values /= np.linalg.norm(values, axis=3, keepdims=True)
        grid = GridField(self.ORIGIN, self.SPACING, values)
        x = self.ORIGIN + np.array([1.3, 2.6, 0.4]) * self.SPACING
        before = grid(x)
        values[...] = [1.0, 0.0, 0.0]
        assert grid(x).tobytes() == before.tobytes()
        y = x + self.SPACING  # a cell not queried before the write
        assert grid(y).tobytes() == trilinear_reference(grid, y).tobytes()
        assert not grid.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid.values[0, 0, 0] = [0.0, 1.0, 0.0]


def _report_text(field, x):
    """frenet_report at x as bit-exact text, or the type and message of its error."""
    try:
        return _text(frenet_report(field, x))
    except (FieldError, InputError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSampling:
    """The differenced Jacobian, the order of the field queries and the cross
    product, bit for bit against loops that sample one point at a time."""

    @staticmethod
    def assert_equals_the_loop(field, x):
        J = field_jacobian(field, x)
        assert J.flags.c_contiguous
        assert J.tobytes() == field_jacobian_loop(field, x).tobytes(), x

    def test_differenced_helix_jacobian_equals_the_loop(self):
        rng = np.random.default_rng(30)
        field = helix_field(0.5, analytic=False)
        for x in [*rng.uniform(-2.0, 2.0, (200, 3)), np.array([1.0, 0.0, -0.0]), np.zeros(3)]:
            self.assert_equals_the_loop(field, x)

    @pytest.mark.parametrize("planar", [False, True], ids=["general", "planar"])
    def test_grid_jacobian_equals_the_loop(self, planar):
        grid = TestGridField().random_grid(planar)
        top = grid.origin + (np.array(grid.values.shape[:3]) - 1) * grid.spacing
        field = FlowField(grid, fd_step=1e-3)
        rng = np.random.default_rng(31)
        for rel in rng.uniform(0.05, 0.95, (200, 3)):
            self.assert_equals_the_loop(field, grid.origin + rel * (top - grid.origin))

    def test_differenced_report_queries_in_the_loop_order(self):
        calls = []
        field = helix_field(0.5, analytic=False)
        probe = FlowField(lambda y: calls.append(y.copy()) or field.evaluator(y),
                          fd_step=field.fd_step)
        x = np.array([1.0, 0.2, 0.1])
        frenet_report(probe, x)
        expected = frenet_query_points(field, x)
        assert len(calls) == len(expected) == 65
        assert np.array(calls).tobytes() == np.array(expected).tobytes()

    def test_a_stencil_past_two_faces_names_its_first_query_outside(self):
        # 1.7 h below the face x = 1.08 and 0.7 h below y = 0.08: the +2h point along
        # axis 0 and the +h and +2h points along axis 1 are outside; axis 0 comes first
        field = TestGridField.helix_grid()
        h = field.step(np.array([1.08, 0.08, 0.02]))
        x = np.array([1.08 - 1.7 * h, 0.08 - 0.7 * h, 0.02])
        points = frenet_query_points(field, x)
        outside = []
        for y in points[:13]:
            try:
                field.at(y)
            except FieldError:
                outside.append(tuple(y.tolist()))
        assert outside == [tuple(points[i].tolist()) for i in (4, 7, 8)]
        with pytest.raises(FieldError, match=re.escape(f"point {outside[0]} lies outside")):
            frenet_report(field, x)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150)),
                    min_size=6, max_size=6))
    def test_cross_equals_np_cross(self, entries):
        a, b = np.array(entries[:3]), np.array(entries[3:])
        assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
