import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from pelical import (
    EmptyInput,
    Extrinsics,
    IllConditionedPlane,
    PlaneMergeInput,
    fit_plane,
    plane_merge_metrics,
    pose_variation_errors,
    rotation_about_y,
    rotation_step_errors,
    square_size_error_mm,
    translation_step_errors,
)
from pelical.metrics import _euler_xyz_deg


def board_points(rng, normal, offset, n=60, extent=0.5, noise=0.0):
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    seed = np.zeros(3)
    seed[np.argmin(np.abs(normal))] = 1.0
    e1 = np.cross(normal, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    ab = rng.uniform(-extent, extent, size=(n, 2))
    pts = offset * normal + ab[:, :1] * e1 + ab[:, 1:] * e2
    if noise:
        pts = pts + rng.normal(size=pts.shape) * noise
    return pts


class TestFitPlane:
    def test_recovers_exact_plane(self, rng):
        n_true = np.array([0.2, -0.4, 0.89])
        n_true /= np.linalg.norm(n_true)
        pts = board_points(rng, n_true, 1.3)
        n, d = fit_plane(pts)
        assert abs(abs(n @ n_true) - 1.0) < 1e-12
        assert abs(d - 1.3) < 1e-12

    def test_offset_is_canonical_nonnegative(self, rng):
        pts = board_points(rng, [0.0, 0.0, -1.0], 0.8)
        n, d = fit_plane(pts)
        assert d >= 0.0
        # every point satisfies the plane equation with the returned sign
        assert np.max(np.abs(pts @ n - d)) < 1e-12

    def test_collinear_points_rejected(self):
        ts = np.linspace(0.0, 1.0, 50)[:, None]
        pts = ts * np.array([1.0, 2.0, 0.5])
        with pytest.raises(IllConditionedPlane):
            fit_plane(pts)

    def test_noisy_blob_rejected(self, rng):
        pts = rng.normal(size=(80, 3))  # isotropic: no dominant plane
        with pytest.raises(IllConditionedPlane):
            fit_plane(pts)

    def test_too_few_points(self):
        with pytest.raises(EmptyInput):
            fit_plane(np.zeros((2, 3)))

    def test_memory_is_linear_in_points(self, rng):
        pts = board_points(rng, [0.1, 0.3, -1.0], 1.2, n=5000, noise=0.001)
        tracemalloc.start()
        try:
            fit_plane(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestPlaneMerge:
    def board_pair(self, rng, truth, offset=1.5):
        normal_t = np.array([0.1, 0.05, 1.0])
        normal_t /= np.linalg.norm(normal_t)
        target_pts = board_points(rng, normal_t, offset)
        source_pts = truth.inverse().transform_points(target_pts)
        return target_pts, source_pts

    def test_truth_pose_merges_exactly(self, rng):
        truth = Extrinsics(rotation_about_y(25.0), np.array([0.3, -0.1, 0.05]))
        target_pts, source_pts = self.board_pair(rng, truth)
        m = plane_merge_metrics(
            PlaneMergeInput(target_points=target_pts, source_points=source_pts),
            truth,
        )
        assert m.offset_gap_mm < 1e-6
        assert m.normal_angle_deg < 1e-6
        assert m.square_size_error_mm is None

    def test_one_degree_error_shows_as_one_degree(self, rng):
        truth = Extrinsics(rotation_about_y(25.0), np.array([0.3, -0.1, 0.05]))
        target_pts, source_pts = self.board_pair(rng, truth)
        # perturbation axis chosen in the board plane so the full tilt shows
        n_t, _ = fit_plane(target_pts)
        seed = np.zeros(3)
        seed[np.argmin(np.abs(n_t))] = 1.0
        axis = np.cross(n_t, seed)
        axis /= np.linalg.norm(axis)
        wobble = Rotation.from_rotvec(np.deg2rad(1.0) * axis).as_matrix()
        off = Extrinsics(wobble @ truth.rotation, truth.translation)
        m = plane_merge_metrics(
            PlaneMergeInput(target_points=target_pts, source_points=source_pts), off
        )
        assert abs(m.normal_angle_deg - 1.0) < 0.05

    def test_square_metric_requires_corner_data(self, rng):
        truth = Extrinsics(rotation_about_y(10.0), np.array([0.2, 0.0, 0.0]))
        target_pts, source_pts = self.board_pair(rng, truth)
        corners_t = np.array([[0.0, 0.0, 1.5], [0.648, 0.0, 1.5]])
        corners_s = truth.inverse().transform_points(corners_t)
        m = plane_merge_metrics(
            PlaneMergeInput(
                target_points=target_pts,
                source_points=source_pts,
                target_corners=corners_t,
                source_corners=corners_s,
                squares_per_row=6,
            ),
            truth,
        )
        assert m.square_size_error_mm == pytest.approx(0.0, abs=1e-9)


class TestSquareSize:
    def test_exact_board_has_zero_error(self):
        # 648 mm corner span across 6 squares of a 108 mm board
        a = np.array([[0.0, 0.0, 2.0], [0.648, 0.0, 2.0]])
        assert square_size_error_mm(a, a, 6) == pytest.approx(0.0)

    def test_scale_error_is_reported_in_mm(self):
        a = np.array([[0.0, 0.0, 2.0], [0.648, 0.0, 2.0]])
        b = np.array([[0.0, 0.0, 2.0], [0.660, 0.0, 2.0]])
        # spans 648 and 660 -> mean 654 -> per square 109 -> off by 1
        assert square_size_error_mm(a, b, 6) == pytest.approx(1.0)


class TestStepErrors:
    def yaw_series(self, steps, step_deg=20.0):
        return [
            Extrinsics(rotation_about_y(step_deg * k), np.array([0.3, 0.0, 0.0]))
            for k in range(steps)
        ]

    def test_exact_rotation_steps_have_zero_error(self):
        errs = rotation_step_errors(self.yaw_series(4), step_deg=20.0)
        assert len(errs) == 3
        assert max(errs) < 1e-9

    def test_step_size_mismatch_is_measured(self):
        errs = rotation_step_errors(self.yaw_series(4, step_deg=25.0), step_deg=20.0)
        assert_allclose(errs, [5.0, 5.0, 5.0], atol=1e-9)

    def test_euler_angles_match_reference(self):
        # every pitch on a 0.5 deg grid over [-85, 85], random yaw and roll
        rng = np.random.default_rng(7)
        pitch = np.linspace(-85.0, 85.0, 341)
        angles = np.column_stack(
            [rng.uniform(-180, 180, len(pitch)), pitch, rng.uniform(-180, 180, len(pitch))]
        )
        for R in Rotation.from_euler("XYZ", angles, degrees=True).as_matrix():
            reference = Rotation.from_matrix(R).as_euler("XYZ", degrees=True)
            wrapped = (_euler_xyz_deg(R) - reference + 180.0) % 360.0 - 180.0
            assert np.abs(wrapped).max() <= 1e-9

    def test_near_singular_pitch_warns(self):
        poses = [
            Extrinsics(rotation_about_y(0.0), np.zeros(3)),
            Extrinsics(rotation_about_y(88.0), np.zeros(3)),
        ]
        with pytest.warns(UserWarning):
            rotation_step_errors(poses)

    def test_single_pose_rejected(self):
        with pytest.raises(EmptyInput):
            rotation_step_errors(self.yaw_series(1))

    def test_exact_translation_steps(self):
        poses = [
            Extrinsics(np.eye(3), np.array([0.05 * k, 0.0, 0.0])) for k in range(4)
        ]
        errs = translation_step_errors(poses, step_cm=5.0)
        assert max(errs) < 1e-9

    def test_translation_step_mismatch(self):
        poses = [
            Extrinsics(np.eye(3), np.array([0.06 * k, 0.0, 0.0])) for k in range(3)
        ]
        errs = translation_step_errors(poses, step_cm=5.0)
        assert_allclose(errs, [1.0, 1.0], atol=1e-9)


class TestPoseVariationTable:
    def test_rows_flatten_both_kinds(self):
        rot_poses = [
            Extrinsics(rotation_about_y(20.0 * k), np.array([0.3, 0.0, 0.0]))
            for k in range(3)
        ]
        trans_poses = [
            Extrinsics(np.eye(3), np.array([0.05 * k, 0.0, 0.0])) for k in range(3)
        ]
        rows = pose_variation_errors(
            [
                {"name": "yaw", "vary": "rotation", "poses": rot_poses},
                {"name": "slide", "vary": "translation", "poses": trans_poses},
            ]
        )
        assert len(rows) == 4
        assert [r["group"] for r in rows] == ["yaw", "yaw", "slide", "slide"]
        assert [r["step_index"] for r in rows] == [0, 1, 0, 1]
        assert all(r["error"] < 1e-9 for r in rows)

    def test_unknown_vary_kind_rejected(self):
        with pytest.raises(ValueError):
            pose_variation_errors([{"name": "x", "vary": "scale", "poses": []}])
