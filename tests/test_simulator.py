import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pelical import (
    CameraIntrinsics,
    Extrinsics,
    InfeasibleSpec,
    PipelineConfig,
    RigSpec,
    cell_seed,
    generate,
    pose_errors,
    rotation_about_y,
    sweep,
    transform_line,
)

from helpers import DEFAULT_K


def easy_spec(**kw):
    base = dict(
        truth=Extrinsics(rotation_about_y(20.0), np.array([0.30, 0.0, 0.0])),
        target_intrinsics=DEFAULT_K,
        source_intrinsics=DEFAULT_K,
        n_lines=12,
        rng_seed=0,
    )
    base.update(kw)
    return RigSpec(**base)


INFEASIBLE = dict(
    truth=Extrinsics(rotation_about_y(170.0), np.array([500.0, 0.0, 0.0])),
    scene_depth_m=(0.8, 1.0),
)


class TestSpecValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            easy_spec(n_lines=0)
        with pytest.raises(ValueError):
            easy_spec(samples_per_line=1)
        with pytest.raises(ValueError):
            easy_spec(line_length_m=(3.0, 0.5))
        with pytest.raises(ValueError):
            easy_spec(outlier_fraction=1.5)
        with pytest.raises(ValueError):
            easy_spec(pixel_noise_sigma=-0.1)
        with pytest.raises(ValueError):
            easy_spec(depth_noise_model="banana")

    @pytest.mark.parametrize(
        "name", ["pixel_noise_sigma", "depth_noise_sigma", "outlier_fraction", "pnl_fraction"]
    )
    @pytest.mark.parametrize(
        "value, error",
        [
            (math.nan, ValueError),
            (math.inf, ValueError),
            (-math.inf, ValueError),
            (True, TypeError),
            ("0.5", TypeError),
            (2e6, ValueError),
        ],
        ids=["nan", "inf", "-inf", "bool", "string", "huge"],
    )
    def test_rejects_bad_number_naming_the_field(self, name, value, error):
        # NaN fails every comparison, so sign checks alone let it through
        with pytest.raises(error, match=name):
            easy_spec(**{name: value})

    @pytest.mark.parametrize("name", ["line_length_m", "scene_depth_m"])
    @pytest.mark.parametrize(
        "value, error",
        [((0.5, math.inf), ValueError), (5, TypeError), ([0.5, "x"], TypeError)],
        ids=["inf", "scalar", "string"],
    )
    def test_rejects_bad_range_naming_the_field(self, name, value, error):
        with pytest.raises(error, match=name):
            easy_spec(**{name: value})

    def test_list_range_is_stored_as_a_float_tuple(self):
        spec = easy_spec(line_length_m=[1, 2.5])
        assert spec.line_length_m == (1.0, 2.5)
        assert list(map(type, spec.line_length_m)) == [float, float]

    def test_axial_noise_model_accepted(self):
        obs, _ = generate(
            easy_spec(depth_noise_sigma=0.001, depth_noise_model="axial_z2")
        )
        assert len(obs) == 12


class TestGenerate:
    def test_bit_identical_reruns(self):
        spec = easy_spec(pixel_noise_sigma=0.5, depth_noise_sigma=0.003,
                         outlier_fraction=0.3, pnl_fraction=0.25)
        a_obs, a_rec = generate(spec)
        b_obs, b_rec = generate(spec)
        assert [o.obs_id for o in a_obs] == [o.obs_id for o in b_obs]
        for x, y in zip(a_obs, b_obs):
            assert np.array_equal(x.source_samples, y.source_samples)
            if x.target_samples is None:
                assert y.target_samples is None
            else:
                assert np.array_equal(x.target_samples, y.target_samples)
            assert np.array_equal(x.target_2d.coeffs, y.target_2d.coeffs)
        for r, s in zip(a_rec, b_rec):
            assert r.obs_id == s.obs_id
            assert r.is_outlier == s.is_outlier
            assert r.is_pnl == s.is_pnl
            assert np.array_equal(r.source_line.d, s.source_line.d)
            assert np.array_equal(r.target_line.m, s.target_line.m)

    def test_exact_population_counts(self):
        spec = easy_spec(n_lines=12, pnl_fraction=0.25, outlier_fraction=0.3)
        obs, recs = generate(spec)
        assert len(obs) == 12
        assert sum(r.is_pnl for r in recs) == 3  # floor(0.25 * 12)
        assert sum(r.is_outlier for r in recs) == 3  # floor(0.3 * 12)
        assert sum(o.target_samples is None for o in obs) == 3

    def test_stream_is_shuffled_permutation(self):
        obs, recs = generate(easy_spec())
        ids = [o.obs_id for o in obs]
        assert sorted(ids) == list(range(12))
        assert [r.obs_id for r in recs] == ids

    def test_noiseless_samples_lie_on_truth_lines(self):
        spec = easy_spec()
        obs, recs = generate(spec)
        for o, r in zip(obs, recs):
            d, m = r.source_line.d, r.source_line.m
            for p in o.source_samples[::13]:
                assert np.linalg.norm(np.cross(p, d) - m) < 1e-9

    def test_noiseless_2d_lines_are_exact(self):
        spec = easy_spec(pnl_fraction=0.25)
        obs, recs = generate(spec)
        K = spec.target_intrinsics
        for o, r in zip(obs, recs):
            pts = (
                o.target_samples
                if o.target_samples is not None
                else spec.truth.transform_points(o.source_samples)
            )
            l = o.target_2d.coeffs
            for p in pts[:: max(1, len(pts) // 4)]:
                uv = K.project(p)
                assert abs(l @ np.array([uv[0], uv[1], 1.0])) < 1e-9

    def test_records_are_pose_consistent(self):
        spec = easy_spec(outlier_fraction=0.3)
        _, recs = generate(spec)
        for r in recs:
            moved = transform_line(r.source_line, spec.truth)
            gap = max(
                np.max(np.abs(moved.d - r.target_line.d)),
                np.max(np.abs(moved.m - r.target_line.m)),
            )
            if r.is_outlier:
                assert gap > 1e-6
            else:
                assert gap < 1e-9

    def test_noise_perturbs_but_preserves_shape(self):
        spec = easy_spec(pixel_noise_sigma=0.5, depth_noise_sigma=0.003)
        obs, recs = generate(spec)
        clean_obs, _ = generate(easy_spec())
        assert obs[0].source_samples.shape == (40, 3)
        moved = np.linalg.norm(obs[0].source_samples - np.mean(obs[0].source_samples, axis=0), axis=1)
        assert moved.std() > 0

    def test_high_yaw_low_overlap_rig_is_feasible(self):
        spec = easy_spec(
            truth=Extrinsics(rotation_about_y(80.0), np.array([0.45, 0.0, 0.0]))
        )
        obs, _ = generate(spec)
        assert len(obs) == 12

    def test_impossible_rig_raises(self):
        with pytest.raises(InfeasibleSpec):
            generate(easy_spec(**INFEASIBLE))


class TestPoseHelpers:
    def test_rotation_about_y_matrix(self):
        assert_allclose(
            rotation_about_y(90.0),
            np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]),
            atol=1e-12,
        )

    def test_pose_errors_units(self):
        truth = Extrinsics(rotation_about_y(20.0), np.array([0.3, 0.0, 0.0]))
        same = pose_errors(truth, truth)
        assert same == (0.0, 0.0)
        rot_off = Extrinsics(rotation_about_y(22.0), np.array([0.3, 0.0, 0.0]))
        r, t = pose_errors(rot_off, truth)
        assert abs(r - 2.0) < 1e-9 and t < 1e-9
        t_off = Extrinsics(rotation_about_y(20.0), np.array([0.301, 0.0, 0.0]))
        r, t = pose_errors(t_off, truth)
        assert r < 1e-9 and abs(t - 1.0) < 1e-9


class TestSweep:
    def test_cell_seed_is_stable_and_distinct(self):
        assert cell_seed(7, 0, 0, 0) == cell_seed(7, 0, 0, 0)
        seeds = {cell_seed(7, i, j, k) for i in range(3) for j in range(3) for k in range(2)}
        assert len(seeds) == 18
        assert cell_seed(7, 0, 1) != cell_seed(8, 0, 1)

    def test_grid_rows_cover_each_cell(self):
        base = easy_spec(n_lines=12, pnl_fraction=0.25)
        rows = sweep(base, [10.0, 20.0], [0.2, 0.3], n_seeds=1)
        assert [(r["rotation_deg"], r["baseline_m"], r["seed"]) for r in rows] == [
            (10.0, 0.2, 0), (10.0, 0.3, 0), (20.0, 0.2, 0), (20.0, 0.3, 0)
        ]
        for row in rows:
            assert set(row) == {
                "rotation_deg", "baseline_m", "seed",
                "rot_err_deg", "trans_err_mm", "converged",
            }
            assert row["converged"] is True
            assert row["rot_err_deg"] < 1e-4
            assert row["trans_err_mm"] < 1e-2

    def test_infeasible_cell_yields_nan_row(self):
        base = easy_spec(n_lines=4, **INFEASIBLE)
        rows = sweep(base, [170.0], [500.0], n_seeds=1)
        assert len(rows) == 1
        assert math.isnan(rows[0]["rot_err_deg"])
        assert math.isnan(rows[0]["trans_err_mm"])
        assert rows[0]["converged"] is False

    def test_sweep_is_deterministic(self):
        base = easy_spec(n_lines=10, pixel_noise_sigma=0.5, depth_noise_sigma=0.003,
                         pnl_fraction=0.25)
        cfg = PipelineConfig(cost_threshold=30.0)
        rows_a = sweep(base, [20.0], [0.3], n_seeds=2, pipeline_cfg=cfg)
        rows_b = sweep(base, [20.0], [0.3], n_seeds=2, pipeline_cfg=cfg)
        assert rows_a == rows_b
