import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pelical import (
    CGRParams,
    DegenerateTranslation,
    Extrinsics,
    PipelineConfig,
    RigSpec,
    assemble,
    cgr_to_rotation,
    eliminate_translation,
    generate,
    refine,
    rotation_about_y,
    rotation_angle,
    rotation_to_cgr,
    run,
    solve_quadratic_system,
)
from pelical import pipeline, solver
from pelical.constraints import CaseKind, monomial_vector
from pelical.errors import NoRealSolution
from pelical.solver import PoseSolution, SolverConfig

from helpers import (
    DEFAULT_K,
    brute_force_roots,
    consistent_correspondences,
    consistent_system,
    jacobian_check,
    make_correspondence,
    noisy_correspondences,
    rand_truth,
)


def true_r_tau(truth):
    s = rotation_to_cgr(truth.rotation).s
    return monomial_vector(s), (1 + s @ s) * truth.translation, s


class TestEliminateTranslation:
    def test_reduction_identity(self):
        # G r == A r + B (tau_map r) for random r, many systems
        rng = np.random.default_rng(10)
        for _ in range(200):
            truth = rand_truth(rng)
            system, _ = consistent_system(rng, truth, n_full3d=3, n_pnl=1)
            G, tau_map = eliminate_translation(system)
            r = rng.normal(size=10)
            lhs = system.A @ r + system.B @ (tau_map @ r)
            assert np.max(np.abs(lhs - G @ r)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))

    def test_consistent_system_annihilates_truth(self, rng):
        truth = rand_truth(rng)
        system, _ = consistent_system(rng, truth)
        G, tau_map = eliminate_translation(system)
        r, tau, _ = true_r_tau(truth)
        assert np.max(np.abs(G @ r)) < 1e-9 * max(1.0, np.max(np.abs(system.A)))
        assert_allclose(tau_map @ r, tau, atol=1e-8)

    def test_identity_truth_zero_tau(self, rng):
        system, _ = consistent_system(rng, Extrinsics.identity())
        _, tau_map = eliminate_translation(system)
        assert np.max(np.abs(tau_map @ monomial_vector(np.zeros(3)))) < 1e-9

    def test_parallel_lines_degenerate(self, rng):
        # two Full3D pairs of identical direction: B columns lose rank
        truth = Extrinsics.identity()
        base = make_correspondence(rng, truth, CaseKind.FULL3D)
        from pelical.constraints import Correspondence

        shifted = Correspondence(
            kind=CaseKind.FULL3D,
            source_line=base.source_line,
            source_endpoints=base.source_endpoints,
            target_line_2d=base.target_line_2d,
            target_line_3d=base.target_line_3d,
            target_endpoints=base.target_endpoints,
        )
        system = assemble([base, shifted], DEFAULT_K)
        with pytest.raises(DegenerateTranslation):
            eliminate_translation(system)


class TestSolve:
    def test_reference_pose(self, rng):
        s_true = np.array([0.2, -0.1, 0.05])
        truth = Extrinsics(
            cgr_to_rotation(CGRParams(s_true)), np.array([0.45, 0.0, 0.0])
        )
        system, _ = consistent_system(rng, truth)
        sol = solve_quadratic_system(system)
        assert_allclose(sol.s.s, s_true, atol=1e-6)
        assert_allclose(sol.extrinsics.translation, truth.translation, atol=1e-6)
        assert sol.algebraic_residual < 1e-6

    def test_identity_truth(self, rng):
        system, _ = consistent_system(rng, Extrinsics.identity())
        sol = solve_quadratic_system(system)
        assert_allclose(sol.s.s, np.zeros(3), atol=1e-8)
        assert_allclose(sol.extrinsics.translation, np.zeros(3), atol=1e-8)

    def test_noiseless_recovery_sweep(self):
        rng = np.random.default_rng(11)
        cfg = SolverConfig()
        for _ in range(100):
            truth = rand_truth(rng)
            cs = consistent_correspondences(rng, truth, 4, 2)
            system = assemble(cs, DEFAULT_K)
            sol = solve_quadratic_system(system)
            refined = refine(sol, cs, DEFAULT_K, cfg)
            rot_err = rotation_angle(refined.extrinsics.rotation.T @ truth.rotation)
            assert np.degrees(rot_err) < 1e-5
            assert (
                np.linalg.norm(refined.extrinsics.translation - truth.translation)
                < 1e-6
            )

    def test_order_invariance(self, rng):
        truth = rand_truth(rng)
        cs = consistent_correspondences(rng, truth, 4, 2)
        a = solve_quadratic_system(assemble(cs, DEFAULT_K))
        b = solve_quadratic_system(assemble(cs[::-1], DEFAULT_K))
        assert_allclose(a.extrinsics.rotation, b.extrinsics.rotation, atol=1e-9)
        assert_allclose(a.extrinsics.translation, b.extrinsics.translation, atol=1e-9)

    def test_candidates_include_selected(self, rng):
        truth = rand_truth(rng)
        system, _ = consistent_system(rng, truth)
        sol = solve_quadratic_system(system)
        gaps = [np.linalg.norm(s - sol.s.s) for s, _ in sol.all_candidates]
        assert min(gaps) < 1e-12


def full_lattice_search(system):
    """The solver's pick over its null-vector starts plus the 27 starts of
    the lattice {-1, 0, 1}^3: the candidates it ranks, winner first, or
    NoRealSolution."""
    G, tau_map = eliminate_translation(system)
    G_reduced = np.linalg.qr(G, mode="r")
    _, sing, Vt = np.linalg.svd(G_reduced)
    starts = [v[6:9] / v[9] for v in Vt[-3:][::-1] if abs(v[9]) > 1e-6 * np.linalg.norm(v)]
    starts += [np.array(p) for p in itertools.product((-1.0, 0.0, 1.0), repeat=3)]
    polished = [solver._polish_root(G_reduced, s0) for s0 in starts]
    scale = float(np.linalg.norm(G_reduced)) or 1.0
    return solver._select(system, tau_map, polished, sing[-1], scale)


@pytest.fixture()
def polish_calls(monkeypatch):
    """Counts the solver's ``_polish_root`` calls (reset it between solves)."""
    calls = [0]
    polish = solver._polish_root

    def counting(*args, **kwargs):
        calls[0] += 1
        return polish(*args, **kwargs)

    monkeypatch.setattr(solver, "_polish_root", counting)
    return calls


class TestNullVectorStarts:
    def test_noisy_solve_polishes_only_null_vector_starts(self, polish_calls):
        rng = np.random.default_rng(15)
        for _ in range(4):
            truth = rand_truth(rng, max_deg=60.0)
            cs = noisy_correspondences(rng, consistent_correspondences(rng, truth, 4, 2))
            system = assemble(cs, DEFAULT_K)
            polish_calls[0] = 0
            sol = solve_quadratic_system(system)
            assert polish_calls[0] <= 3
            # The noise is real: the residual is far above round-off.
            G, _ = eliminate_translation(system)
            assert sol.algebraic_residual > 1e-8 * np.linalg.norm(G)
            res, _, s_ref, _ = full_lattice_search(system)[0]
            assert np.array_equal(sol.s.s, s_ref)
            assert sol.algebraic_residual == res
            roots = brute_force_roots(system)
            assert roots[0][1] <= sol.algebraic_residual + 1e-9
            assert min(np.linalg.norm(s - sol.s.s) for s, _ in roots) < 1e-4

    def test_rank_deficient_system_fails_the_floor(self, polish_calls):
        # Two FULL3D and two PnL pairs leave G rank deficient (sigma_min at
        # round-off), so under noise no null-vector root passes the floor,
        # and no start of the full lattice would either.
        rng = np.random.default_rng(16)
        truth = rand_truth(rng)
        cs = noisy_correspondences(rng, consistent_correspondences(rng, truth, 2, 2))
        system = assemble(cs, DEFAULT_K)
        G, _ = eliminate_translation(system)
        sing = np.linalg.svd(G, compute_uv=False)
        assert sing[-1] < 1e-9 * sing[0]
        with pytest.raises(NoRealSolution, match="exceeds sanity bound"):
            solve_quadratic_system(system)
        assert polish_calls[0] <= 3
        with pytest.raises(NoRealSolution, match="exceeds sanity bound"):
            full_lattice_search(system)


#: Streams of the perfbench rigs (60 lines, 20 deg yaw, 0.30 m baseline,
#: 0.5 px / 3 mm noise) whose finalize systems make the regression set:
#: ``(outlier_fraction, pnl_fraction)`` of the mixed and PnL-heavy mixes.
REGRESSION_MIXES = ((0.2, 0.25), (0.0, 0.5))
REGRESSION_SEEDS = range(1, 31)


@pytest.fixture(scope="module")
def finalize_systems():
    """Every ``(stream, system)`` that ``try_finalize`` assembles on the
    regression streams."""
    truth = Extrinsics(rotation_about_y(20.0), np.array([0.30, 0.0, 0.0]))
    systems = []
    with pytest.MonkeyPatch.context() as mp:
        for mix in REGRESSION_MIXES:
            for seed in REGRESSION_SEEDS:

                def recording(cs, K, stream=(*mix, seed)):
                    systems.append((stream, assemble(cs, K)))
                    return systems[-1][1]

                mp.setattr(pipeline, "assemble", recording)
                spec = RigSpec(
                    truth=truth,
                    target_intrinsics=DEFAULT_K,
                    source_intrinsics=DEFAULT_K,
                    n_lines=60,
                    pixel_noise_sigma=0.5,
                    depth_noise_sigma=0.003,
                    outlier_fraction=mix[0],
                    pnl_fraction=mix[1],
                    rng_seed=seed,
                )
                run(generate(spec)[0], PipelineConfig(cost_threshold=30.0), DEFAULT_K)
    return systems


def test_regression_set_has_underdetermined_sets(finalize_systems):
    deficient = []
    for _, system in finalize_systems:
        G, _ = eliminate_translation(system)
        sing = np.linalg.svd(G, compute_uv=False)
        if sing[-1] < 1e-9 * sing[0]:
            deficient.append((system.n_full3d, system.n_pnl))
    assert len(finalize_systems) > 50
    assert (2, 2) in deficient


def test_null_vector_starts_match_full_lattice(finalize_systems):
    """Every system the null-vector starts fail, the full lattice search
    fails too, with the same message, so a lattice fallback would rescue
    nothing.  Elsewhere both pick the same winner, bit for bit, on all but
    one stream."""
    differing = []
    for stream, system in finalize_systems:
        try:
            reference = full_lattice_search(system)[0]
        except NoRealSolution as exc:
            with pytest.raises(NoRealSolution) as got:
                solve_quadratic_system(system)
            assert (system.n_full3d, system.n_pnl) == (2, 2)
            assert str(got.value) == str(exc)
            continue
        sol = solve_quadratic_system(system)
        if not np.array_equal(sol.s.s, reference[2]):
            # a lower algebraic residual elsewhere, which the lattice finds
            assert reference[0] < sol.algebraic_residual
            differing.append(stream)
    # On this stream's 3 FULL3D + 3 PnL vote the null-vector root is 1.0 deg
    # from the truth at residual 2.78; the lattice finds 2.04 at 10.0 deg.
    # The run converges from the null-vector root.
    assert differing == [(0.0, 0.5, 15)]


class TestOracle:
    def test_matches_solver_on_random_systems(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            truth = rand_truth(rng, max_deg=60.0)
            system, _ = consistent_system(rng, truth)
            sol = solve_quadratic_system(system)
            roots = brute_force_roots(system)
            assert roots[0][1] <= sol.algebraic_residual + 1e-9
            gap = min(np.linalg.norm(s - sol.s.s) for s, _ in roots)
            assert gap < 1e-4

    def test_oracle_residuals_sorted(self, rng):
        truth = rand_truth(rng, max_deg=50.0)
        system, _ = consistent_system(rng, truth)
        roots = brute_force_roots(system)
        res = [r for _, r in roots]
        assert res == sorted(res)


class TestRefine:
    def test_truth_start_is_fixed_point(self, rng):
        truth = rand_truth(rng)
        cs = consistent_correspondences(rng, truth, 4, 2)
        s = rotation_to_cgr(truth.rotation).s
        start = PoseSolution(
            extrinsics=truth, s=CGRParams(s), algebraic_residual=0.0
        )
        out = refine(start, cs, DEFAULT_K, SolverConfig())
        assert out.refined_cost < 1e-16
        assert_allclose(out.extrinsics.rotation, truth.rotation, atol=1e-9)

    def test_recovers_from_small_perturbation(self, rng):
        from scipy.spatial.transform import Rotation

        truth = rand_truth(rng)
        cs = consistent_correspondences(rng, truth, 5, 2)
        R0 = (
            Rotation.from_rotvec(np.deg2rad(2.0) * np.array([0, 1, 0])).as_matrix()
            @ truth.rotation
        )
        t0 = truth.translation + np.array([0.02, 0, 0])
        start = PoseSolution(
            extrinsics=Extrinsics(R0, t0),
            s=CGRParams(rotation_to_cgr(R0).s),
            algebraic_residual=np.nan,
        )
        out = refine(start, cs, DEFAULT_K, SolverConfig())
        assert np.degrees(rotation_angle(out.extrinsics.rotation.T @ truth.rotation)) < 1e-5
        assert np.linalg.norm(out.extrinsics.translation - truth.translation) < 1e-6
        assert out.lm_converged

    def test_overflowing_damping_keeps_the_start(self, rng):
        # each trial step is negligible until the damping overflows, so no
        # step is taken and refine returns the start instead of raising
        truth = rand_truth(rng)
        cs = consistent_correspondences(rng, truth, 4, 2)
        start = PoseSolution(
            extrinsics=Extrinsics(truth.rotation, truth.translation + 0.05),
            s=CGRParams(rotation_to_cgr(truth.rotation).s),
            algebraic_residual=np.nan,
        )
        with np.errstate(all="ignore"):
            out = refine(start, cs, DEFAULT_K, SolverConfig(lm_initial_damping=1e300))
        assert np.array_equal(out.extrinsics.rotation, start.extrinsics.rotation)
        assert np.array_equal(out.extrinsics.translation, start.extrinsics.translation)

    def test_never_increases_cost_on_noisy_data(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            truth = rand_truth(rng)
            cs = consistent_correspondences(rng, truth, 5, 2)
            # corrupt endpoints slightly to emulate measurement noise
            noisy = []
            from pelical.constraints import Correspondence
            from pelical import plucker_from_points

            for c in cs:
                if c.kind is CaseKind.FULL3D:
                    tep = c.target_endpoints + rng.normal(size=(2, 3)) * 0.002
                    line = plucker_from_points(tep[0], tep[1])
                    noisy.append(
                        Correspondence(
                            kind=c.kind,
                            source_line=c.source_line,
                            source_endpoints=c.source_endpoints,
                            target_line_2d=c.target_line_2d,
                            target_line_3d=line,
                            target_endpoints=tep,
                        )
                    )
                else:
                    noisy.append(c)
            system = assemble(noisy, DEFAULT_K)
            sol = solve_quadratic_system(system)
            out = refine(sol, noisy, DEFAULT_K, SolverConfig())
            if sol.refined_cost is not None:
                assert out.refined_cost <= sol.refined_cost + 1e-15
            assert out.refined_cost is not None

    def test_weights_scale_residuals(self, rng):
        truth = rand_truth(rng)
        cs = consistent_correspondences(rng, truth, 3, 1)
        s = rotation_to_cgr(truth.rotation).s
        start = PoseSolution(extrinsics=truth, s=CGRParams(s), algebraic_residual=0.0)
        w = np.array([2.0, 2.0, 2.0, 1.0])
        out = refine(start, cs, DEFAULT_K, SolverConfig(), weights=w)
        assert out.refined_cost < 1e-15

    def test_iteration_cap_flags_nonconvergence(self, rng):
        truth = rand_truth(rng)
        cs = consistent_correspondences(rng, truth, 4, 2)
        from scipy.spatial.transform import Rotation

        R0 = (
            Rotation.from_rotvec(np.array([0.05, 0.02, -0.04])).as_matrix()
            @ truth.rotation
        )
        start = PoseSolution(
            extrinsics=Extrinsics(R0, truth.translation + 0.05),
            s=CGRParams(rotation_to_cgr(R0).s),
            algebraic_residual=np.nan,
        )
        out = refine(start, cs, DEFAULT_K, SolverConfig(max_lm_iterations=1))
        assert not out.lm_converged

    def test_rotation_stays_orthonormal(self, rng):
        truth = rand_truth(rng)
        cs = consistent_correspondences(rng, truth, 4, 2)
        system = assemble(cs, DEFAULT_K)
        sol = solve_quadratic_system(system)
        out = refine(sol, cs, DEFAULT_K, SolverConfig())
        R = out.extrinsics.rotation
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9


class TestJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            truth = rand_truth(rng)
            cs = consistent_correspondences(rng, truth, 3, 2)
            T = rand_truth(rng)  # evaluate away from the optimum
            assert jacobian_check(cs, DEFAULT_K, T) < 1e-5

    def test_full_rank_at_truth(self, rng):
        truth = rand_truth(rng)
        cs = consistent_correspondences(rng, truth, 3, 2)
        from pelical.solver import _stack_residuals

        _, J = _stack_residuals(
            cs,
            DEFAULT_K,
            truth.rotation,
            truth.translation,
            np.ones(len(cs)),
            with_jacobian=True,
        )
        assert np.linalg.matrix_rank(J) == 6
