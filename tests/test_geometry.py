import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from pelical import (
    CGRParams,
    CameraIntrinsics,
    DegenerateLine,
    Extrinsics,
    Line2D,
    NearSingularRotation,
    PluckerLine,
    RankDeficient,
    cgr_to_rotation,
    line_projection_matrix,
    plucker_from_points,
    project_so3,
    rotation_angle,
    rotation_to_cgr,
    transform_line,
)
from pelical.geometry import cross3, cross_rows, line_2d_fault, skew, so3_distance

from helpers import LINE2D_BOUNDARY_ROWS, rand_rotation, rand_truth


class TestSmallVectorForms:
    """The written-out and stacked forms round exactly like numpy's."""

    def test_cross3_matches_np_cross(self, rng):
        for _ in range(2000):
            a, b = rng.normal(size=(2, 3)) * rng.uniform(1e-3, 1e3, size=(2, 1))
            assert np.array_equal(cross3(a, b), np.cross(a, b))

    def test_cross_rows_of_one_vector_matches_np_cross(self, rng):
        a = rng.normal(size=3)
        b = rng.normal(size=(50, 3)) * rng.uniform(1e-3, 1e3, size=(50, 1))
        assert np.array_equal(cross_rows(a, b), np.cross(a, b))

    def test_stacked_skew_is_each_rows_skew(self, rng):
        v = rng.normal(size=(4, 2, 3))
        stacked = skew(v)
        assert stacked.shape == (4, 2, 3, 3)
        for i in range(4):
            for j in range(2):
                assert stacked[i, j].tobytes() == skew(v[i, j]).tobytes()


class TestPluckerConstruction:
    def test_unit_offset_segment(self):
        line = plucker_from_points(np.array([1.0, 0, 0]), np.array([1.0, 1, 0]))
        assert_allclose(line.d, [0, 1, 0], atol=1e-15)
        assert_allclose(line.m, [0, 0, 1], atol=1e-15)

    def test_line_through_origin_has_zero_moment(self):
        line = plucker_from_points(np.zeros(3), np.array([0.0, 0, 1]))
        assert_allclose(line.d, [0, 0, 1], atol=1e-15)
        assert_allclose(line.m, np.zeros(3), atol=1e-15)

    def test_coincident_points_degenerate(self):
        with pytest.raises(DegenerateLine):
            plucker_from_points(np.ones(3), np.ones(3))

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p1, p2 = rng.normal(size=(2, 3)) * 3.0
            if np.linalg.norm(p2 - p1) < 1e-6:
                continue
            line = plucker_from_points(p1, p2)
            assert abs(np.linalg.norm(line.d) - 1.0) < 1e-12
            assert abs(line.d @ line.m) < 1e-9
            # both generators lie on the line
            for p in (p1, p2):
                assert line.distance_to_point(p) < 1e-9

    def test_distance_to_point_matches_numpy_formula(self, rng):
        for _ in range(500):
            p1, p2, p = rng.normal(size=(3, 3)) * 3.0
            line = plucker_from_points(p1, p2)
            want = float(np.linalg.norm(np.cross(line.d, p) + line.m))
            assert line.distance_to_point(p) == pytest.approx(want, rel=1e-15, abs=1e-15)

    def test_moment_is_point_cross_direction(self, rng):
        p1, p2 = rng.normal(size=(2, 3))
        line = plucker_from_points(p1, p2)
        assert_allclose(line.m, np.cross(p1, line.d), atol=1e-12)


class TestTransformLine:
    def test_pure_translation_moment(self):
        line = PluckerLine(np.array([0.0, 0, 1]), np.zeros(3))
        T = Extrinsics(np.eye(3), np.array([1.0, 0, 0]))
        out = transform_line(line, T)
        assert_allclose(out.d, [0, 0, 1], atol=1e-15)
        assert_allclose(out.m, [0, -1, 0], atol=1e-15)

    def test_identity_is_noop(self, rng):
        line = plucker_from_points(*rng.normal(size=(2, 3)))
        out = transform_line(line, Extrinsics.identity())
        assert_allclose(out.d, line.d, atol=1e-15)
        assert_allclose(out.m, line.m, atol=1e-15)

    def test_rotation_preserves_zero_moment(self):
        line = PluckerLine(np.array([1.0, 0, 0]), np.zeros(3))
        Rz = Rotation.from_euler("z", 90, degrees=True).as_matrix()
        out = transform_line(line, Extrinsics(Rz, np.zeros(3)))
        assert_allclose(out.d, [0, 1, 0], atol=1e-12)
        assert_allclose(out.m, np.zeros(3), atol=1e-12)

    def test_round_trip_and_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            line = plucker_from_points(*(rng.normal(size=(2, 3)) * 2.0))
            T = rand_truth(rng, max_deg=179.0, max_t=3.0)
            fwd = transform_line(line, T)
            assert abs(np.linalg.norm(fwd.d) - 1.0) < 1e-9
            assert abs(fwd.d @ fwd.m) < 1e-9
            back = transform_line(fwd, T.inverse())
            assert_allclose(back.d, line.d, atol=1e-9)
            assert_allclose(back.m, line.m, atol=1e-9)

    def test_transform_tracks_points(self, rng):
        p1, p2 = rng.normal(size=(2, 3))
        T = rand_truth(rng)
        moved = transform_line(plucker_from_points(p1, p2), T)
        expected = plucker_from_points(T.transform_point(p1), T.transform_point(p2))
        assert_allclose(moved.d, expected.d, atol=1e-12)
        assert_allclose(moved.m, expected.m, atol=1e-12)


class TestCGR:
    def test_zero_is_identity(self):
        assert_allclose(cgr_to_rotation(CGRParams(np.zeros(3))), np.eye(3), atol=1e-15)

    def test_unit_x_is_quarter_turn(self):
        R = cgr_to_rotation(CGRParams(np.array([1.0, 0, 0])))
        assert_allclose(R, [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-15)

    def test_always_special_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            s = rng.uniform(-10, 10, size=3)
            R = cgr_to_rotation(CGRParams(s))
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-10
            assert abs(np.linalg.det(R) - 1.0) < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            s = rng.uniform(-10, 10, size=3)
            back = rotation_to_cgr(cgr_to_rotation(CGRParams(s)))
            assert_allclose(back.s, s, atol=1e-8, rtol=1e-8)

    def test_matches_axis_angle(self, rng):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = 1.1
        R = cgr_to_rotation(CGRParams(np.tan(theta / 2) * axis))
        assert_allclose(R, Rotation.from_rotvec(theta * axis).as_matrix(), atol=1e-12)

    def test_inverse_examples(self):
        assert_allclose(rotation_to_cgr(np.eye(3)).s, np.zeros(3), atol=1e-15)
        Rx = Rotation.from_euler("x", 90, degrees=True).as_matrix()
        assert_allclose(rotation_to_cgr(Rx).s, [1, 0, 0], atol=1e-12)

    def test_matches_quaternion_reference(self):
        # angles from below 1e-6 rad up to 179.8 deg, about random axes
        rng = np.random.default_rng(12)
        angles = np.concatenate(
            [10.0 ** rng.uniform(-9, -6, 100), rng.uniform(0.0, np.deg2rad(179.8), 899),
             [np.deg2rad(179.8)]]
        )
        axes = rng.normal(size=(len(angles), 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        for R in Rotation.from_rotvec(angles[:, None] * axes).as_matrix():
            q = Rotation.from_matrix(R).as_quat()  # (x, y, z, w), w >= 0
            reference = q[:3] / q[3]
            s = rotation_to_cgr(R).s
            assert np.linalg.norm(s - reference) <= 1e-9 * np.linalg.norm(reference)

    def test_near_singular_rejected(self):
        R = Rotation.from_euler("x", 179.999, degrees=True).as_matrix()
        with pytest.raises(NearSingularRotation):
            rotation_to_cgr(R)

    def test_rotation_angle(self):
        R = Rotation.from_euler("y", 37.0, degrees=True).as_matrix()
        assert abs(np.rad2deg(rotation_angle(R)) - 37.0) < 1e-10


class TestLineProjection:
    def test_normalized_camera_is_identity(self):
        K = CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=2, height=2)
        assert_allclose(line_projection_matrix(K), np.eye(3), atol=1e-15)

    def test_projected_line_through_pixel_images(self):
        K = CameraIntrinsics(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
        line = plucker_from_points(np.array([0.0, 0, 1]), np.array([1.0, 0, 1]))
        l = line_projection_matrix(K) @ line.m
        for uv in ([50, 50], [150, 50]):
            assert abs(l @ np.array([*uv, 1.0])) < 1e-9

    def test_linear_in_moment(self, rng, intrinsics):
        m = rng.normal(size=3)
        P = line_projection_matrix(intrinsics)
        assert_allclose(P @ (2.5 * m), 2.5 * (P @ m), atol=1e-12)

    def test_projection_consistency_random(self, intrinsics):
        # any pixel projection of a point on the line lies on the image line
        rng = np.random.default_rng(5)
        P = line_projection_matrix(intrinsics)
        for _ in range(200):
            p = rng.normal(size=3) + np.array([0, 0, 4.0])
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            line = plucker_from_points(p, p + d)
            l = P @ line.m
            X = p + rng.normal() * d
            if X[2] < 0.1:
                continue
            uv = intrinsics.project(X)
            val = l @ np.array([uv[0], uv[1], 1.0])
            assert abs(val) / np.linalg.norm(l[:2]) < 1e-6


class TestProjectSO3:
    def test_fixed_point_on_rotations(self, rng):
        R = rand_rotation(rng)
        R2, sigma, sigma_t = project_so3(R)
        assert_allclose(R2, R, atol=1e-12)
        assert_allclose(sigma, np.ones(3), atol=1e-12)

    def test_scale_invariance(self):
        R, sigma, _ = project_so3(2.0 * np.eye(3))
        assert_allclose(R, np.eye(3), atol=1e-12)
        assert_allclose(sigma, [2, 2, 2], atol=1e-12)

    def test_reflection_gets_positive_det(self):
        R, _, sigma_t = project_so3(np.diag([1.0, 1.0, -1.0]))
        assert np.linalg.det(R) > 0.999
        assert sigma_t[2] == -1.0

    def test_rank_deficient(self):
        M = np.zeros((3, 3))
        M[0, 0] = 1.0
        with pytest.raises(RankDeficient):
            project_so3(M)

    def test_distance_examples(self):
        assert so3_distance(np.ones(3), np.ones(3)) == 0.0
        assert abs(so3_distance(np.array([2.0, 2, 2]), np.ones(3)) - np.sqrt(3)) < 1e-12
        assert (
            abs(so3_distance(np.array([1.1, 1.0, 0.9]), np.ones(3)) - np.sqrt(0.02))
            < 1e-12
        )

    def test_projects_noisy_rotation_close(self, rng):
        R = rand_rotation(rng)
        M = R + rng.normal(size=(3, 3)) * 1e-3
        R2, _, _ = project_so3(M)
        assert np.max(np.abs(R2.T @ R2 - np.eye(3))) < 1e-12
        assert np.max(np.abs(R2 - R)) < 5e-3


class TestSmallTypes:
    def test_skew_matches_cross(self, rng):
        a, b = rng.normal(size=(2, 3))
        assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-15)

    def test_extrinsics_validates_rotation(self):
        with pytest.raises(ValueError):
            Extrinsics(np.eye(3) * 2.0, np.zeros(3))

    def test_extrinsics_inverse(self, rng):
        T = rand_truth(rng)
        p = rng.normal(size=3)
        assert_allclose(T.inverse().transform_point(T.transform_point(p)), p, atol=1e-12)

    def test_plucker_validates_unit_direction(self):
        with pytest.raises(ValueError):
            PluckerLine(np.array([0.0, 0, 2.0]), np.zeros(3))

    def test_plucker_validates_orthogonality(self):
        with pytest.raises(ValueError):
            PluckerLine(np.array([0.0, 0, 1.0]), np.array([0.0, 0, 1.0]))

    def test_line2d_normalization(self):
        line = Line2D.from_endpoints(np.array([0.0, 0.0]), np.array([10.0, 0.0]))
        assert abs(np.hypot(line.coeffs[0], line.coeffs[1]) - 1.0) < 1e-12
        # both endpoints on the line
        for uv in line.endpoints:
            assert abs(line.coeffs @ np.array([*uv, 1.0])) < 1e-9

    def test_line2d_rejects_off_line_endpoints(self):
        with pytest.raises(ValueError):
            Line2D(np.array([1.0, 0.0, 0.0]), np.array([[5.0, 0.0], [5.0, 1.0]]))

    # Comparisons such as ``x > tol`` are False for NaN, so each invariant
    # check must be written to fail on it.
    @pytest.mark.parametrize(
        "rotation, translation, message",
        [
            (np.full((3, 3), np.nan), np.zeros(3), "orthonormal"),
            (np.diag([1.0, np.inf, 1.0]), np.zeros(3), "orthonormal"),
            (np.eye(3), [np.inf, 0.0, 0.0], "translation must be finite"),
            (np.eye(3), [0.0, np.nan, 0.0], "translation must be finite"),
        ],
        ids=["nan-rotation", "inf-rotation", "inf-translation", "nan-translation"],
    )
    def test_extrinsics_rejects_non_finite(self, rotation, translation, message):
        with pytest.raises(ValueError, match=message):
            Extrinsics(rotation, translation)

    @pytest.mark.parametrize(
        "d, m, message",
        [
            ([np.nan] * 3, [0.0, 0.0, 0.0], "unit length"),
            ([1.0, 0.0, 0.0], [0.0, np.nan, 0.0], "moment must be finite"),
            ([1.0, 0.0, 0.0], [0.0, np.inf, 0.0], "moment must be finite"),
        ],
        ids=["nan-direction", "nan-moment", "inf-moment"],
    )
    def test_plucker_rejects_non_finite(self, d, m, message):
        with pytest.raises(ValueError, match=message):
            PluckerLine(d, m)

    @pytest.mark.parametrize(
        "coeffs, endpoints, message",
        [
            ([np.nan] * 3, [[0.0, 0.0], [1.0, 1.0]], "degenerate"),
            ([np.inf, 0.0, 0.0], [[0.0, 0.0], [0.0, 1.0]], "normalized"),
            ([1.0, 0.0, np.nan], [[0.0, 0.0], [0.0, 1.0]], "on the line"),
            ([1.0, 0.0, 0.0], [[0.0, np.nan], [0.0, 1.0]], "on the line"),
        ],
        ids=["nan-coeffs", "inf-coeff", "nan-offset", "nan-endpoint"],
    )
    def test_line2d_rejects_non_finite(self, coeffs, endpoints, message):
        with pytest.raises(ValueError, match=message):
            Line2D(coeffs, endpoints)

    @pytest.mark.parametrize("row", sorted(LINE2D_BOUNDARY_ROWS))
    def test_bulk_line_rules_give_each_line_its_verdict(self, row):
        coeffs, endpoints, message = LINE2D_BOUNDARY_ROWS[row]
        if message is None:
            Line2D(coeffs, endpoints)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Line2D(coeffs, endpoints)
        # mapped over a file's lines, as the bulk reader maps it, each line
        # gets the message Line2D raises for it
        good = Line2D.from_endpoints(np.array([1.0, 2.0]), np.array([30.0, 4.0]))
        lines = [(good.coeffs.tolist(), good.endpoints.tolist()), (coeffs, endpoints)]
        for rows in ([1], [0, 1], [0, 1, 0]):
            faults = list(map(line_2d_fault, *zip(*[lines[i] for i in rows])))
            assert faults == [message if i else None for i in rows]

    def test_plucker_stores_read_only_copies(self):
        d, m = np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.0])
        line = PluckerLine(d, m)
        d[0], m[0] = 1.0, 9.0
        assert line.d.tolist() == [0.0, 0.0, 1.0] and line.m.tolist() == [0.5, 0.0, 0.0]
        for array in (line.d, line.m):
            with pytest.raises(ValueError):
                array.setflags(write=True)

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("fx", np.inf, ValueError, "fx must be finite"),
            ("cy", np.nan, ValueError, "cy must be finite"),
            ("fy", 2e6, ValueError, "fy must be at most 1e\\+06 in magnitude"),
            ("width", 640.5, TypeError, "width must be an integer, got 640.5"),
            ("height", True, TypeError, "height must be an integer, got True"),
            ("cx", "320", TypeError, "cx must be a number, got '320'"),
        ],
        ids=["inf-fx", "nan-cy", "huge-fy", "fractional-width", "bool-height", "string-cx"],
    )
    def test_intrinsics_check_each_field(self, field, value, error, message):
        fields = dict(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
        with pytest.raises(error, match=f"^{message}$"):
            CameraIntrinsics(**{**fields, field: value})

    def test_intrinsics_project(self, intrinsics):
        uv = intrinsics.project(np.array([0.0, 0.0, 2.0]))
        assert_allclose(uv, [intrinsics.cx, intrinsics.cy], atol=1e-12)

    def test_arrays_read_only(self, rng):
        line = plucker_from_points(*rng.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            line.d[0] = 5.0
