"""End-to-end acceptance checks for the calibration package.

Each test exercises one release criterion at its stated tolerance and prints
a single PASS/FAIL line (bypassing capture) so a full run yields a compact
scoreboard.  Tolerances live here and nowhere else; the per-module suites
probe behavior, these probe the contract.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from pelical import (
    Extrinsics,
    InsufficientLines,
    PipelineConfig,
    PlaneMergeInput,
    RigSpec,
    TerminationReason,
    candidate_from_full3d,
    candidate_from_pnl,
    cgr_to_rotation,
    convergence_voting,
    fit_plane,
    generate,
    ingest,
    plane_merge_metrics,
    pose_errors,
    project_so3,
    rotation_about_y,
    rotation_to_cgr,
    run,
    solve_quadratic_system,
    sweep,
    transform_line,
)
from pelical.constraints import CaseKind
from pelical.fileio import SWEEP_COLUMNS, dumps_csv, write_calibration_file
from pelical.pipeline import PipelineState, _candidate_lines
from pelical.simulator import GroundTruthRecord

from helpers import (
    DEFAULT_K,
    brute_force_roots,
    consistent_correspondences,
    consistent_system,
    full3d_inputs,
    jacobian_check,
    make_correspondence,
    point_line_distance,
    rand_rotation,
    rand_segment,
    rand_truth,
)


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _reference_rig(seed: int, **overrides) -> RigSpec:
    """The 20 degree / 0.30 m benchmark rig used by the noise criteria."""
    base = dict(
        truth=Extrinsics(rotation_about_y(20.0), np.array([0.3, 0.0, 0.0])),
        target_intrinsics=DEFAULT_K,
        source_intrinsics=DEFAULT_K,
        n_lines=20,
        pixel_noise_sigma=0.5,
        depth_noise_sigma=0.003,
        pnl_fraction=0.25,
        rng_seed=seed,
    )
    base.update(overrides)
    return RigSpec(**base)


def _outlier_ids(records: list[GroundTruthRecord]) -> set[int]:
    return {r.obs_id for r in records if r.is_outlier}


class TestAcceptance:
    def test_01_noiseless_exactness(self, capsys):
        worst_rot = worst_trans_m = worst_time = 0.0
        converged = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            truth = rand_truth(rng)  # rotation <= 80 deg, baseline <= 0.6 m
            spec = RigSpec(
                truth=truth,
                target_intrinsics=DEFAULT_K,
                source_intrinsics=DEFAULT_K,
                n_lines=10,
                pnl_fraction=0.3,
                rng_seed=seed,
            )
            observations, _ = generate(spec)
            t0 = time.perf_counter()
            report = run(observations, PipelineConfig(), DEFAULT_K)
            worst_time = max(worst_time, time.perf_counter() - t0)
            converged += report.termination is TerminationReason.CONVERGED
            rot_deg, trans_mm = pose_errors(report.extrinsics, truth)
            worst_rot = max(worst_rot, rot_deg)
            worst_trans_m = max(worst_trans_m, trans_mm / 1000.0)
        ok = (
            converged == 100
            and worst_rot < 1e-5
            and worst_trans_m < 1e-6
            and worst_time < 1.0
        )
        _verdict(
            capsys,
            "criterion 1 noiseless exactness",
            ok,
            f"converged {converged}/100, worst rot {worst_rot:.3g} deg, "
            f"worst trans {worst_trans_m:.3g} m, worst time {worst_time:.3f} s",
        )

    def test_02_noise_robustness(self, capsys):
        cfg = PipelineConfig(cost_threshold=30.0)
        rot_errs, trans_errs = [], []
        converged = 0
        for seed in range(100):
            spec = _reference_rig(seed)
            observations, _ = generate(spec)
            report = run(observations, cfg, DEFAULT_K)
            converged += report.termination is TerminationReason.CONVERGED
            rot_deg, trans_mm = pose_errors(report.extrinsics, spec.truth)
            rot_errs.append(rot_deg)
            trans_errs.append(trans_mm)
        med_rot = float(np.median(rot_errs))
        med_trans = float(np.median(trans_errs))
        ok = med_rot < 0.5 and med_trans < 15.0
        _verdict(
            capsys,
            "criterion 2 noise robustness",
            ok,
            f"median rot {med_rot:.4f} deg, median trans {med_trans:.3f} mm, "
            f"converged {converged}/100",
        )

    def test_03_outlier_rejection(self, capsys):
        cfg = PipelineConfig(cost_threshold=30.0)
        clean = 0
        rot_errs, trans_errs = [], []
        for seed in range(100):
            spec = _reference_rig(seed, outlier_fraction=0.3)
            observations, records = generate(spec)
            report = run(observations, cfg, DEFAULT_K)
            leaked = set(report.voting_inlier_ids) & _outlier_ids(records)
            if report.termination is TerminationReason.CONVERGED and not leaked:
                clean += 1
            rot_deg, trans_mm = pose_errors(report.extrinsics, spec.truth)
            rot_errs.append(rot_deg)
            trans_errs.append(trans_mm)
        med_rot = float(np.median(rot_errs))
        med_trans = float(np.median(trans_errs))
        ok = clean >= 95 and med_rot < 0.5 and med_trans < 15.0
        _verdict(
            capsys,
            "criterion 3 outlier rejection",
            ok,
            f"clean voting sets {clean}/100, median rot {med_rot:.4f} deg, "
            f"median trans {med_trans:.3f} mm",
        )

    def test_04_divergence_detection(self, capsys):
        cfg = PipelineConfig()
        not_converged = 0
        for seed in range(100):
            spec = _reference_rig(
                seed, n_lines=12, pixel_noise_sigma=0.0, depth_noise_sigma=0.0
            )
            observations, _ = generate(spec)
            state = PipelineState.fresh(cfg, DEFAULT_K)
            for obs in observations:
                ingest(obs, state, cfg)
            axis_rng = np.random.default_rng(10_000 + seed)
            axis = axis_rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            poison = Rotation.from_rotvec(np.deg2rad(5.0) * axis).as_matrix()
            R_bad = poison @ spec.truth.rotation
            p0, u, _ = _candidate_lines(state.gate, R_bad, DEFAULT_K)
            threshold = max(4, math.ceil(0.6 * len(p0)))
            try:
                vote = convergence_voting(p0, u, 0.02, threshold)
                diverged = not vote.converged
            except InsufficientLines:
                diverged = True
            not_converged += diverged
        ok = not_converged >= 95
        _verdict(
            capsys,
            "criterion 4 divergence detection",
            ok,
            f"5 deg poison flagged not-converged {not_converged}/100 at eps_d 0.02 m",
        )

    def test_05_solver_oracle_equivalence(self, capsys):
        t0 = time.perf_counter()
        worst_gap = 0.0
        for seed in range(50):
            rng = np.random.default_rng(200 + seed)
            truth = rand_truth(rng)
            system, _ = consistent_system(rng, truth)
            sol = solve_quadratic_system(system)
            roots = brute_force_roots(system)
            gap = float(np.max(np.abs(sol.s.s - roots[0][0])))
            worst_gap = max(worst_gap, gap)
        elapsed = time.perf_counter() - t0
        ok = worst_gap <= 1e-4 and elapsed < 60.0
        _verdict(
            capsys,
            "criterion 5 solver-oracle equivalence",
            ok,
            f"worst |s - s_oracle| {worst_gap:.3g} over 50 systems in {elapsed:.1f} s",
        )

    def test_06_property_suites(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)

        plucker_bad = 0
        for _ in range(1000):
            line, _ = rand_segment(rng)
            T = rand_truth(rng)
            back = transform_line(transform_line(line, T), T.inverse())
            if (
                abs(float(line.d @ line.m)) > 1e-9
                or abs(np.linalg.norm(line.d) - 1.0) > 1e-12
                or not np.allclose(back.d, line.d, atol=1e-9)
                or not np.allclose(back.m, line.m, atol=1e-9)
            ):
                plucker_bad += 1

        cgr_bad = 0
        for _ in range(1000):
            s = rng.normal(size=3) * 2.0
            R = cgr_to_rotation(s)
            if (
                np.linalg.norm(R.T @ R - np.eye(3)) > 1e-12
                or not np.allclose(rotation_to_cgr(R).s, s, atol=1e-9)
            ):
                cgr_bad += 1

        so3_bad = 0
        for _ in range(200):
            R = rand_rotation(rng, 179.0)
            fixed, *_ = project_so3(R)
            scaled, *_ = project_so3(3.7 * R)
            if not (np.allclose(fixed, R, atol=1e-12) and np.allclose(scaled, R, atol=1e-12)):
                so3_bad += 1

        worst_containment = 0.0
        for i in range(1000):
            truth = rand_truth(rng)
            kind = CaseKind.FULL3D if i % 2 == 0 else CaseKind.PNL
            c = make_correspondence(rng, truth, kind)
            if kind is CaseKind.FULL3D:
                p0, u = (a[0] for a in candidate_from_full3d(*full3d_inputs([c]), truth.rotation))
            else:
                p0, u = candidate_from_pnl(c, truth.rotation, DEFAULT_K)
            worst_containment = max(
                worst_containment, point_line_distance(p0, u, truth.translation)
            )

        worst_jacobian = 0.0
        for seed in range(5):
            jac_rng = np.random.default_rng(400 + seed)
            truth = rand_truth(jac_rng)
            cs = consistent_correspondences(jac_rng, truth, 4, 2)
            worst_jacobian = max(worst_jacobian, jacobian_check(cs, DEFAULT_K, truth))

        elapsed = time.perf_counter() - t0
        ok = (
            plucker_bad == 0
            and cgr_bad == 0
            and so3_bad == 0
            and worst_containment < 1e-9
            and worst_jacobian < 1e-5
            and elapsed < 30.0
        )
        _verdict(
            capsys,
            "criterion 6 property suites",
            ok,
            f"plucker {1000 - plucker_bad}/1000, cgr {1000 - cgr_bad}/1000, "
            f"so3 {200 - so3_bad}/200, containment max {worst_containment:.3g} m, "
            f"jacobian max {worst_jacobian:.3g}, {elapsed:.1f} s",
        )

    def test_07_plane_merge_sanity(self, capsys):
        rng = np.random.default_rng(5)
        truth = Extrinsics(rotation_about_y(15.0), np.array([0.25, -0.05, 0.1]))
        uv = rng.uniform(-0.5, 0.5, size=(80, 2))
        target_pts = np.column_stack([uv, np.full(80, 1.5)])
        corners_t = np.array([[0.0, 0.0, 1.5], [0.648, 0.0, 1.5]])
        inv = truth.inverse()
        inp = PlaneMergeInput(
            target_points=target_pts,
            source_points=inv.transform_points(target_pts),
            target_corners=corners_t,
            source_corners=inv.transform_points(corners_t),
            squares_per_row=6,
        )
        exact = plane_merge_metrics(inp, truth)

        n_t, _ = fit_plane(target_pts)
        seed_vec = np.zeros(3)
        seed_vec[np.argmin(np.abs(n_t))] = 1.0
        axis = np.cross(n_t, seed_vec)
        axis /= np.linalg.norm(axis)
        wobble = Rotation.from_rotvec(np.deg2rad(1.0) * axis).as_matrix()
        tilted = plane_merge_metrics(
            inp, Extrinsics(wobble @ truth.rotation, truth.translation)
        )

        ok = (
            exact.offset_gap_mm < 1e-6
            and exact.normal_angle_deg < 1e-6
            and abs(exact.square_size_error_mm) < 1e-6
            and abs(tilted.normal_angle_deg - 1.0) < 0.05
        )
        _verdict(
            capsys,
            "criterion 7 plane-merge sanity",
            ok,
            f"gap {exact.offset_gap_mm:.3g} mm, angle {exact.normal_angle_deg:.3g} deg, "
            f"square {exact.square_size_error_mm:.3g} mm, "
            f"1 deg tilt reads {tilted.normal_angle_deg:.4f} deg",
        )

    def test_08_determinism(self, capsys, tmp_path):
        cfg = PipelineConfig(cost_threshold=30.0)
        spec = _reference_rig(3)
        calib_a, calib_b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (calib_a, calib_b):
            observations, _ = generate(spec)
            write_calibration_file(path, run(observations, cfg, DEFAULT_K))
        calib_same = calib_a.read_bytes() == calib_b.read_bytes()

        base = _reference_rig(0, pixel_noise_sigma=0.0, depth_noise_sigma=0.0, n_lines=12)
        csvs = []
        for _ in range(2):
            rows = sweep(base, [10.0, 20.0], [0.2, 0.3])
            csvs.append(dumps_csv(SWEEP_COLUMNS, rows))
        sweep_same = csvs[0] == csvs[1]

        ok = calib_same and sweep_same
        _verdict(
            capsys,
            "criterion 8 determinism",
            ok,
            f"calibration files identical: {calib_same}, sweep CSVs identical: {sweep_same}",
        )
