from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pelical import (
    CameraIntrinsics,
    EmptyInput,
    Extrinsics,
    WrongKind,
    assemble,
    cgr_to_rotation,
    full3d_rows,
    monomial_vector,
    pnl_rows,
    rbar_coefficients,
    rotation_to_cgr,
)
from pelical import CGRParams
from pelical.constraints import (
    MONOMIALS,
    ONE_PLUS_STS,
    CaseKind,
    Correspondence,
    monomial_jacobian,
)

from helpers import (
    DEFAULT_K,
    consistent_correspondences,
    consistent_system,
    line_reprojection_residual,
    make_correspondence,
    point_to_line_residual,
    rand_truth,
    stack_residuals,
)


def true_r_tau(truth: Extrinsics) -> tuple[np.ndarray, np.ndarray]:
    s = rotation_to_cgr(truth.rotation).s
    r = monomial_vector(s)
    tau = (1.0 + s @ s) * truth.translation
    return r, tau


class TestMonomials:
    def test_order(self):
        assert MONOMIALS == (
            "s1^2", "s2^2", "s3^2", "s1*s2", "s1*s3", "s2*s3", "s1", "s2", "s3", "1",
        )

    def test_values(self):
        r = monomial_vector(np.array([2.0, 3.0, 5.0]))
        assert_allclose(r, [4, 9, 25, 6, 10, 15, 2, 3, 5, 1], atol=1e-15)

    def test_one_plus_sts_row(self, rng):
        s = rng.normal(size=3)
        assert abs(ONE_PLUS_STS @ monomial_vector(s) - (1 + s @ s)) < 1e-12

    def test_jacobian_matches_finite_differences(self, rng):
        s = rng.normal(size=3)
        J = monomial_jacobian(s)
        eps = 1e-7
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = eps
            fd = (monomial_vector(s + dp) - monomial_vector(s - dp)) / (2 * eps)
            assert_allclose(J[:, k], fd, atol=1e-7)

    def test_rbar_reproduces_cgr_numerator(self, rng):
        # rbar_coefficients(X) @ r(s) must equal (1+s's) R(s) X for any X, s
        for _ in range(200):
            s = rng.normal(size=3) * 2.0
            X = rng.normal(size=3) * 3.0
            R = cgr_to_rotation(CGRParams(s))
            lhs = rbar_coefficients(X) @ monomial_vector(s)
            assert_allclose(lhs, (1 + s @ s) * (R @ X), atol=1e-9)

    def test_rbar_linear_in_point(self, rng):
        X = rng.normal(size=3)
        assert_allclose(rbar_coefficients(2 * X), 2 * rbar_coefficients(X), atol=1e-15)


class TestClassify:
    def test_both_high_is_full3d(self):
        assert classify_is(0.9, 0.9, CaseKind.FULL3D)

    def test_target_low_is_pnl(self):
        assert classify_is(0.9, 0.3, CaseKind.PNL)

    def test_source_low_is_reject(self):
        assert classify_is(0.3, 0.9, CaseKind.REJECT)

    def test_threshold_boundary_inclusive(self):
        assert classify_is(0.8, 0.8, CaseKind.FULL3D)
        assert classify_is(0.8, 0.79, CaseKind.PNL)


def classify_is(src, tgt, expected):
    from pelical import classify

    return classify(src, tgt, 0.8) is expected


class TestCorrespondenceValidation:
    def test_full3d_requires_target_line(self, rng):
        truth = rand_truth(rng)
        c = make_correspondence(rng, truth, CaseKind.FULL3D)
        with pytest.raises(ValueError):
            Correspondence(
                kind=CaseKind.FULL3D,
                source_line=c.source_line,
                source_endpoints=c.source_endpoints,
                target_line_2d=c.target_line_2d,
            )

    def test_pnl_forbids_target_line(self, rng):
        truth = rand_truth(rng)
        c = make_correspondence(rng, truth, CaseKind.FULL3D)
        with pytest.raises(ValueError):
            Correspondence(
                kind=CaseKind.PNL,
                source_line=c.source_line,
                source_endpoints=c.source_endpoints,
                target_line_2d=c.target_line_2d,
                target_line_3d=c.target_line_3d,
            )

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_endpoint_check_trips_between_half_and_two_micrometres(self, rng, side):
        c = make_correspondence(rng, rand_truth(rng), CaseKind.FULL3D)
        line = getattr(c, "source_line" if side == "source" else "target_line_3d")
        normal = np.cross(line.d, [1.0, 0, 0])
        normal /= np.linalg.norm(normal)
        for offset, ok in ((5e-7, True), (2e-6, False)):
            ends = np.array(getattr(c, f"{side}_endpoints"))
            ends[1] += offset * normal
            assert line.distance_to_point(ends[1]) == pytest.approx(offset, rel=1e-6)
            refused = pytest.raises(ValueError, match=f"{side} endpoints must lie")
            with nullcontext() if ok else refused:
                replace(c, **{f"{side}_endpoints": ends})

    def test_endpoints_must_lie_on_line(self, rng):
        truth = rand_truth(rng)
        c = make_correspondence(rng, truth, CaseKind.PNL)
        bad = np.array(c.source_endpoints)
        bad[0] += np.cross(c.source_line.d, [1.0, 0, 0]) * 0.01
        with pytest.raises(ValueError):
            Correspondence(
                kind=CaseKind.PNL,
                source_line=c.source_line,
                source_endpoints=bad,
                target_line_2d=c.target_line_2d,
            )


class TestRowAssembly:
    def test_full3d_identity_truth_vanishes(self, rng):
        c = make_correspondence(rng, Extrinsics.identity(), CaseKind.FULL3D)
        A, B = full3d_rows(c)
        assert A.shape == (8, 10) and B.shape == (8, 3)
        r = monomial_vector(np.zeros(3))
        assert np.max(np.abs(A @ r)) < 1e-9

    def test_full3d_rows_vanish_at_truth(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            truth = rand_truth(rng)
            r, tau = true_r_tau(truth)
            c = make_correspondence(rng, truth, CaseKind.FULL3D)
            A, B = full3d_rows(c)
            assert np.max(np.abs(A @ r + B @ tau)) < 1e-8

    def test_full3d_detects_perturbed_target(self, rng):
        truth = rand_truth(rng)
        r, tau = true_r_tau(truth)
        c = make_correspondence(rng, truth, CaseKind.FULL3D)
        d_t = c.target_line_3d.d
        delta = np.cross(d_t, [1.0, 0, 0])
        delta = 0.01 * delta / np.linalg.norm(delta)  # moment shift, keeps d.m == 0
        from pelical import PluckerLine

        bad = Correspondence(
            kind=c.kind,
            source_line=c.source_line,
            source_endpoints=c.source_endpoints,
            target_line_2d=c.target_line_2d,
            target_line_3d=PluckerLine(c.target_line_3d.d, c.target_line_3d.m + delta),
            target_endpoints=c.target_endpoints + np.cross(d_t, delta),
        )
        A, B = full3d_rows(bad)
        assert np.max(np.abs(A @ r + B @ tau)) > 1e-4

    def test_pnl_rows_vanish_at_truth(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            truth = rand_truth(rng)
            r, tau = true_r_tau(truth)
            c = make_correspondence(rng, truth, CaseKind.PNL)
            A, B = pnl_rows(c, DEFAULT_K)
            assert A.shape == (2, 10) and B.shape == (2, 3)
            assert np.max(np.abs(A @ r + B @ tau)) < 1e-6

    def test_rows_reject_wrong_kind(self, rng):
        truth = rand_truth(rng)
        full = make_correspondence(rng, truth, CaseKind.FULL3D)
        pnl = make_correspondence(rng, truth, CaseKind.PNL)
        with pytest.raises(WrongKind):
            full3d_rows(pnl)
        with pytest.raises(WrongKind):
            pnl_rows(full, DEFAULT_K)

    def test_assemble_row_counts(self, rng):
        truth = rand_truth(rng)
        system, _ = consistent_system(rng, truth, n_full3d=2, n_pnl=3)
        assert system.rows == 8 * 2 + 2 * 3
        assert system.A.shape == (22, 10)
        assert system.B.shape == (22, 3)
        assert (system.n_full3d, system.n_pnl) == (2, 3)

    def test_assemble_single_full3d(self, rng):
        truth = rand_truth(rng)
        system, _ = consistent_system(rng, truth, n_full3d=1, n_pnl=0)
        assert system.A.shape == (8, 10)

    def test_assemble_empty_raises(self):
        with pytest.raises(EmptyInput):
            assemble([], DEFAULT_K)

    def test_assemble_preserves_insertion_order(self, rng):
        truth = rand_truth(rng)
        cs = [
            make_correspondence(rng, truth, CaseKind.PNL),
            make_correspondence(rng, truth, CaseKind.FULL3D),
        ]
        system = assemble(cs, DEFAULT_K)
        A_pnl, _ = pnl_rows(cs[0], DEFAULT_K)
        A_full, _ = full3d_rows(cs[1])
        assert_allclose(system.A[:2], A_pnl, atol=1e-15)
        assert_allclose(system.A[2:], A_full, atol=1e-15)

    def test_consistency_sweep(self):
        # the merged system vanishes at the true parameters across many rigs
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(500):
            truth = rand_truth(rng)
            r, tau = true_r_tau(truth)
            system, _ = consistent_system(rng, truth, n_full3d=2, n_pnl=1)
            worst = max(worst, float(np.max(np.abs(system.A @ r + system.B @ tau))))
        assert worst < 1e-8

    def test_quadratic_system_residual_helper(self, rng):
        truth = rand_truth(rng)
        system, _ = consistent_system(rng, truth)
        s = rotation_to_cgr(truth.rotation).s
        tau = (1 + s @ s) * truth.translation
        assert system.residual(s, tau) < 1e-8
        assert system.residual(s + 0.1, tau) > 1e-4


def stacked_residuals(cs, T, K=DEFAULT_K, weights=None):
    """The residual vector ``refine`` minimises, at pose ``T``."""
    w = np.ones(len(cs)) if weights is None else weights
    e, _ = stack_residuals(cs, K, T.rotation, T.translation, w)
    return e


class TestResiduals:
    """``helpers.stack_residuals``: 3 entries per FULL3D endpoint, 1 per PNL one."""

    def test_line_reprojection_zero_at_truth(self, rng):
        truth = rand_truth(rng)
        c = make_correspondence(rng, truth, CaseKind.PNL)
        res = stacked_residuals([c], truth)
        assert res.shape == (2,)
        assert np.max(np.abs(res)) < 1e-6

    def test_line_reprojection_unit_pixel_shift(self):
        # vertical image line at u=100; endpoints shifted 1 px horizontally
        # must land exactly 1 px away in the signed distance.
        K = CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=200, height=200)
        from pelical import Line2D, plucker_from_points

        src = plucker_from_points(np.array([100.0, 0, 1]), np.array([100.0, 1, 1]))
        obs = Line2D.from_endpoints(np.array([101.0, 0.0]), np.array([101.0, 1.0]))
        c = Correspondence(
            kind=CaseKind.PNL,
            source_line=src,
            source_endpoints=np.array([[100.0, 0, 1], [100.0, 1, 1]]),
            target_line_2d=obs,
        )
        res = stacked_residuals([c], Extrinsics.identity(), K)
        assert_allclose(np.abs(res), [1.0, 1.0], atol=1e-9)

    def test_point_to_line_zero_at_truth(self, rng):
        truth = rand_truth(rng)
        c = make_correspondence(rng, truth, CaseKind.FULL3D)
        res = stacked_residuals([c], truth)
        assert res.shape == (6,)
        assert np.max(np.abs(res)) < 1e-9

    def test_point_to_line_kills_along_component(self, rng):
        truth = rand_truth(rng)
        c = make_correspondence(rng, truth, CaseKind.FULL3D)
        # slide the anchor endpoints along the target line: residual unchanged
        moved = Correspondence(
            kind=c.kind,
            source_line=c.source_line,
            source_endpoints=c.source_endpoints,
            target_line_2d=c.target_line_2d,
            target_line_3d=c.target_line_3d,
            target_endpoints=c.target_endpoints + 0.7 * c.target_line_3d.d,
        )
        T_off = Extrinsics(truth.rotation, truth.translation + np.array([0.01, 0, 0]))
        assert_allclose(
            stacked_residuals([c], T_off), stacked_residuals([moved], T_off), atol=1e-12
        )

    def test_point_to_line_projects_gap(self):
        # gap of 1 cm along x with a z-directed target line survives unchanged
        d = np.array([0.0, 0, 1.0])
        src = np.array([[0.0, 0, 1.0], [0.0, 0, 2.0]])
        from pelical import plucker_from_points

        line_s = plucker_from_points(src[0], src[1])
        c = Correspondence(
            kind=CaseKind.FULL3D,
            source_line=line_s,
            source_endpoints=src,
            target_line_2d=__import__("pelical").Line2D.from_endpoints(
                np.array([0.0, 0.0]), np.array([0.0, 1.0])
            ),
            target_line_3d=plucker_from_points(
                np.array([-0.01, 0, 1.0]), np.array([-0.01, 0, 2.0])
            ),
            target_endpoints=np.array([[-0.01, 0, 1.0], [-0.01, 0, 2.0]]),
        )
        res = stacked_residuals([c], Extrinsics.identity()).reshape(2, 3)
        assert_allclose(res, [[0.01, 0, 0], [0.01, 0, 0]], atol=1e-12)
        assert d @ res[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_reference_formulas(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            truth = rand_truth(rng)
            cs = consistent_correspondences(rng, truth, 3, 3)
            cs = [cs[i] for i in rng.permutation(len(cs))]
            T = rand_truth(rng)  # away from the optimum
            w = rng.uniform(0.5, 2.0, size=len(cs))
            expected = np.concatenate([
                wi * point_to_line_residual(c, T).ravel()
                if c.kind is CaseKind.FULL3D
                else line_reprojection_residual(c, T, DEFAULT_K)
                for c, wi in zip(cs, w)
            ])
            got = stacked_residuals(cs, T, weights=w)
            assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
