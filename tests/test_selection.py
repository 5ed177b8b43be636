import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pelical import (
    Extrinsics,
    InsufficientLines,
    Line2D,
    ParallelPlanes,
    PluckerLine,
    WrongKind,
    candidate_from_full3d,
    candidate_from_pnl,
    convergence_voting,
    gate_rotation,
    plucker_from_points,
    rotation_rows,
)
from pelical.constraints import CaseKind, Correspondence
from pelical import selection
from pelical.selection import VOTE_CHUNK_BYTES, RotationGateState

from helpers import (
    DEFAULT_K,
    assert_gate_holds_store_rows,
    equidistant_point,
    full3d_inputs,
    make_correspondence,
    noisy_correspondences,
    point_line_distance,
    rand_rotation,
    rand_truth,
    reference_convergence_voting,
    reference_gate_solve,
)


@pytest.fixture()
def linalg_calls(monkeypatch):
    """Counts ``np.linalg.lstsq`` and ``np.linalg.svd`` calls by name."""
    calls = {"lstsq": 0, "svd": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def feed(correspondences):
    state = RotationGateState.empty()
    flags = []
    for c in correspondences:
        ok, state = gate_rotation(state, c, rotation_rows(c, DEFAULT_K))
        flags.append(ok)
    return flags, state


class TestRotationRows:
    def test_truth_satisfies_full3d_rows(self, rng):
        truth = rand_truth(rng)
        c = make_correspondence(rng, truth, CaseKind.FULL3D)
        C, b = rotation_rows(c, DEFAULT_K)
        assert C.shape == (3, 9)
        assert_allclose(C @ truth.rotation.reshape(-1), b, atol=1e-12)

    def test_truth_satisfies_pnl_row(self, rng):
        truth = rand_truth(rng)
        c = make_correspondence(rng, truth, CaseKind.PNL)
        C, b = rotation_rows(c, DEFAULT_K)
        assert C.shape == (1, 9)
        assert b == pytest.approx(0.0)
        assert abs(float((C @ truth.rotation.reshape(-1))[0])) < 1e-9

    def test_pnl_row_is_unit_scaled(self, rng):
        truth = rand_truth(rng)
        c = make_correspondence(rng, truth, CaseKind.PNL)
        C, _ = rotation_rows(c, DEFAULT_K)
        # row = kron(unit normal, unit direction) so its norm is one
        assert np.linalg.norm(C) == pytest.approx(1.0, abs=1e-9)

    def test_parallel_directions_add_no_rank(self, rng):
        # the rows depend only on d_s, so a second pair with the same
        # direction (translated source segment) contributes nothing new
        truth = rand_truth(rng)
        a = make_correspondence(rng, truth, CaseKind.FULL3D)
        Ca, _ = rotation_rows(a, DEFAULT_K)
        stacked = np.vstack([Ca, Ca])
        assert np.linalg.matrix_rank(Ca) == 3
        assert np.linalg.matrix_rank(stacked) == 3

    def test_distinct_directions_accumulate_rank(self, rng):
        truth = rand_truth(rng)
        rows = [
            rotation_rows(make_correspondence(rng, truth, CaseKind.FULL3D), DEFAULT_K)[0]
            for _ in range(3)
        ]
        assert np.linalg.matrix_rank(np.vstack(rows)) == 9


class TestGateRotation:
    def test_bootstrap_accepts_unconditionally(self, rng):
        truth = rand_truth(rng)
        outlier_truth = rand_truth(rng)
        # even a mismatched pair passes while under nine rows
        cs = [
            make_correspondence(rng, truth, CaseKind.FULL3D),
            make_correspondence(rng, outlier_truth, CaseKind.FULL3D),
        ]
        flags, state = feed(cs)
        assert flags == [True, True]
        assert state.row_count == 6
        assert state.row_count < 9

    def test_noiseless_stream_all_accepted(self, rng):
        truth = rand_truth(rng)
        cs = [make_correspondence(rng, truth, CaseKind.FULL3D) for _ in range(6)]
        cs += [make_correspondence(rng, truth, CaseKind.PNL) for _ in range(4)]
        flags, state = feed(cs)
        assert all(flags)
        assert state.pairs == tuple(cs)
        assert_gate_holds_store_rows(state)
        assert state.distance < 1e-9
        assert_allclose(state.rotation, truth.rotation, atol=1e-9)

    def test_outlier_rejected_and_state_untouched(self, rng):
        truth = rand_truth(rng)
        cs = [make_correspondence(rng, truth, CaseKind.FULL3D) for _ in range(5)]
        _, state = feed(cs)
        bad = make_correspondence(rng, rand_truth(rng), CaseKind.FULL3D)
        ok, after = gate_rotation(state, bad, rotation_rows(bad, DEFAULT_K))
        assert not ok
        assert after is state
        assert_gate_holds_store_rows(after)

    def test_growth_budget_still_rejects_gross_outliers(self, rng):
        # on a noisy store the budget doubles a distance far above round-off
        truth = rand_truth(rng)
        cs = [make_correspondence(rng, truth, CaseKind.FULL3D) for _ in range(5)]
        _, state = feed(noisy_correspondences(rng, cs))
        assert state.distance > 1e-6
        bad = make_correspondence(rng, rand_truth(rng), CaseKind.FULL3D)
        ok, _ = gate_rotation(state, bad, rotation_rows(bad, DEFAULT_K))
        assert not ok


    @pytest.mark.parametrize("repeats", [3, 4, 9, 10, 30])
    def test_degenerate_store_matches_row_lstsq(self, rng, repeats):
        # G is singular up to round-off when every pair repeats one (FULL3D:
        # rank 3, PNL: rank 1) or two (rank 6) source directions; the gate
        # must give the minimum-norm answer the rows' own lstsq gives: no
        # rotation for one direction, the exact rotation for two
        truth = rand_truth(rng)
        full = [make_correspondence(rng, truth, CaseKind.FULL3D) for _ in range(2)]
        pnl = make_correspondence(rng, truth, CaseKind.PNL)
        for cs in ([full[0]] * repeats, [pnl] * repeats, [full[i % 2] for i in range(repeats)]):
            _, state = feed(cs)
            R, distance = reference_gate_solve(state.C, state.b)
            if R is None:
                assert state.rotation is None and state.distance == np.inf
            else:
                assert_allclose(state.rotation, R, atol=1e-9)
                assert_allclose(state.rotation, truth.rotation, atol=1e-9)
                assert state.distance == pytest.approx(distance, abs=1e-9)


class TestCandidateLines:
    def test_axis_aligned_example(self):
        # source z-axis, target shifted by t = (1, 0, 0) under identity rotation
        src = PluckerLine(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        tgt = PluckerLine(np.array([0.0, 0.0, 1.0]), np.array([0.0, -1.0, 0.0]))
        c = Correspondence(
            kind=CaseKind.FULL3D,
            source_line=src,
            source_endpoints=np.array([[0.0, 0, 0], [0, 0, 1]]),
            target_line_2d=Line2D.from_endpoints([320, 240], [320, 250]),
            target_line_3d=tgt,
            target_endpoints=np.array([[1.0, 0, 0], [1, 0, 1]]),
        )
        p0, u = candidate_from_full3d(*full3d_inputs([c]), np.eye(3))
        assert p0.shape == u.shape == (1, 3)
        assert_allclose(p0[0], [1.0, 0.0, 0.0], atol=1e-12)
        assert_allclose(np.abs(u[0]), [0.0, 0.0, 1.0], atol=1e-12)
        assert point_line_distance(p0[0], u[0], np.array([1.0, 0.0, 0.0])) < 1e-12

    def test_zero_translation_passes_through_origin(self, rng):
        truth = Extrinsics(rand_rotation(rng), np.zeros(3))
        c = make_correspondence(rng, truth, CaseKind.FULL3D)
        p0, u = candidate_from_full3d(*full3d_inputs([c]), truth.rotation)
        assert point_line_distance(p0[0], u[0], np.zeros(3)) < 1e-9

    def test_full3d_contains_truth_sweep(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            truth = rand_truth(rng)
            c = make_correspondence(rng, truth, CaseKind.FULL3D)
            p0, u = candidate_from_full3d(*full3d_inputs([c]), truth.rotation)
            assert point_line_distance(p0[0], u[0], truth.translation) < 1e-9

    def test_pnl_contains_truth_sweep(self):
        rng = np.random.default_rng(22)
        skipped = 0
        for _ in range(1000):
            truth = rand_truth(rng)
            c = make_correspondence(rng, truth, CaseKind.PNL)
            try:
                p0, u = candidate_from_pnl(c, truth.rotation, DEFAULT_K)
            except ParallelPlanes:
                skipped += 1  # near-degenerate endpoint geometry, must be rare
                continue
            assert point_line_distance(p0, u, truth.translation) < 1e-9
        assert skipped < 10

    def test_pnl_endpoints_listed_in_reverse(self, linalg_calls):
        # the image segment may list its endpoints in the opposite order of
        # the source segment; only the swapped endpoint match recovers it,
        # after the first ordering was solved and found behind the camera
        rng = np.random.default_rng(23)
        for _ in range(100):
            truth = rand_truth(rng)
            c = make_correspondence(rng, truth, CaseKind.PNL)
            ep = c.target_line_2d.endpoints
            flipped = replace(c, target_line_2d=Line2D.from_endpoints(ep[1], ep[0]))
            linalg_calls.update(lstsq=0, svd=0)
            p0, u = candidate_from_pnl(flipped, truth.rotation, DEFAULT_K)
            assert linalg_calls == {"lstsq": 2, "svd": 0}
            assert point_line_distance(p0, u, truth.translation) < 1e-9

    def test_pnl_solves_once_when_first_ordering_is_in_front(self, linalg_calls):
        rng = np.random.default_rng(24)
        for _ in range(20):
            truth = rand_truth(rng)
            c = make_correspondence(rng, truth, CaseKind.PNL)
            linalg_calls.update(lstsq=0, svd=0)
            p0, u = candidate_from_pnl(c, truth.rotation, DEFAULT_K)
            assert linalg_calls == {"lstsq": 1, "svd": 0}
            assert point_line_distance(p0, u, truth.translation) < 1e-9

    def test_pnl_segment_across_the_camera_plane_raises(self, linalg_calls):
        # One endpoint in front of the camera and one behind it: whichever
        # way the endpoints are matched, one transfers behind the camera.
        rng = np.random.default_rng(25)
        for _ in range(20):
            truth = rand_truth(rng)
            Y = np.array([[0.2, 0.1, 2.0], [-0.3, 0.2, -1.5]]) + rng.normal(0, 0.1, (2, 3))
            X = (Y - truth.translation) @ truth.rotation
            c = Correspondence(
                kind=CaseKind.PNL,
                source_line=plucker_from_points(X[0], X[1]),
                source_endpoints=X,
                target_line_2d=Line2D.from_endpoints(*DEFAULT_K.project(Y)),
            )
            linalg_calls.update(lstsq=0, svd=0)
            with pytest.raises(ParallelPlanes, match="degenerate"):
                candidate_from_pnl(c, truth.rotation, DEFAULT_K)
            assert linalg_calls == {"lstsq": 2, "svd": 0}

    # a pair of the wrong kind is a caller's error, not the degenerate
    # geometry (ParallelPlanes) that _candidate_lines drops silently
    def test_pnl_kind_mismatch_raises(self, rng):
        full = make_correspondence(rng, rand_truth(rng), CaseKind.FULL3D)
        with pytest.raises(WrongKind, match="candidate_from_pnl needs a PNL pair"):
            candidate_from_pnl(full, np.eye(3), DEFAULT_K)

    def test_coincident_endpoints_raise(self, rng):
        truth = rand_truth(rng)
        c = make_correspondence(rng, truth, CaseKind.PNL)
        ep = c.target_line_2d.endpoints
        squashed = Line2D(c.target_line_2d.coeffs, np.stack([ep[0], ep[0]]))
        degenerate = Correspondence(
            kind=CaseKind.PNL,
            source_line=c.source_line,
            source_endpoints=c.source_endpoints,
            target_line_2d=squashed,
        )
        with pytest.raises(ParallelPlanes):
            candidate_from_pnl(degenerate, truth.rotation, DEFAULT_K)


class TestEquidistantPoint:
    """Two-line votes: the only proposal is the common-perpendicular midpoint."""

    def test_intersecting_lines_meet_at_point(self, rng):
        p = np.array([1.0, 2.0, 3.0])
        res = convergence_voting(np.stack([p, p]), np.eye(3)[:2], 1e-9, 2)
        assert res.converged
        assert_allclose(res.convergence_point, p, atol=1e-12)

    def test_skew_lines_midpoint(self):
        p0 = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        u = np.array([[0.0, 0, 1], [0.0, 1, 0]])
        res = convergence_voting(p0, u, 0.6, 2)
        assert res.inlier_indices == (0, 1)
        assert_allclose(res.convergence_point, [0.5, 0.0, 0.0], atol=1e-12)
        # each line sits half the gap away, outside a smaller radius
        assert convergence_voting(p0, u, 0.4, 2).inlier_indices == ()

    def test_parallel_lines_raise(self):
        p0 = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        u = np.array([[0.0, 0, 1], [0.0, 0, 1]])
        with pytest.raises(InsufficientLines):
            convergence_voting(p0, u, 0.01, 2)


def lines_through(point, directions):
    """Candidate lines ``(p0, u)`` through ``point`` with base points spread
    along them."""
    u = np.asarray(directions, dtype=float)
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    return point + np.linspace(-2.0, 2.0, len(u))[:, None] * u, u


class TestConvergenceVoting:
    def test_four_concurrent_lines_converge(self):
        p = np.array([0.3, -0.2, 0.5])
        dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        res = convergence_voting(*lines_through(p, dirs), 1e-6, 4)
        assert res.converged
        assert res.inlier_indices == (0, 1, 2, 3)
        assert_allclose(res.convergence_point, p, atol=1e-9)

    def test_outliers_excluded_from_winning_set(self):
        p = np.array([0.1, 0.4, -0.3])
        dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        p0, u = lines_through(p, dirs)
        p0 = np.vstack([p0, [[5.0, 5, 5], [-4.0, 6, 1]]])
        u = np.vstack([u, np.array([[1.0, -1, 0], [0.0, 1, 1]]) / np.sqrt(2.0)])
        res = convergence_voting(p0, u, 1e-6, 5)
        assert res.converged
        assert res.inlier_indices == (0, 1, 2, 3, 4, 5)

    def test_wrong_rotation_defeats_vote(self):
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(23)
        truth = rand_truth(rng)
        cs = [make_correspondence(rng, truth, CaseKind.FULL3D) for _ in range(10)]
        wrong = (
            Rotation.from_rotvec(np.deg2rad(5.0) * np.array([0, 1, 0])).as_matrix()
            @ truth.rotation
        )
        inputs = full3d_inputs(cs)
        good = convergence_voting(*candidate_from_full3d(*inputs, truth.rotation), 0.02, 6)
        bad = convergence_voting(*candidate_from_full3d(*inputs, wrong), 0.02, 6)
        assert good.converged
        assert not bad.converged

    def test_order_invariant_winner(self):
        p = np.array([0.2, 0.1, 0.9])
        dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 0), (0, 1, 2)]
        p0, u = lines_through(p, dirs)
        a = convergence_voting(p0, u, 1e-6, 4)
        b = convergence_voting(p0[::-1], u[::-1], 1e-6, 4)
        assert a.converged and b.converged
        assert_allclose(a.convergence_point, b.convergence_point, atol=1e-9)

    def test_batched_midpoints_match_scalar_formula(self):
        # voting computes all-pairs midpoints in a batched form; the winning
        # point must agree with the pairwise reference computation
        rng = np.random.default_rng(25)
        p = np.array([0.5, -0.1, 0.3])
        p0, u = lines_through(p, [rng.normal(size=3) for _ in range(5)])
        res = convergence_voting(p0, u, 1e-6, 4)
        scalar_pts = [
            equidistant_point(p0, u, i, j)
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        gaps = [np.linalg.norm(res.convergence_point - q) for q in scalar_pts]
        assert min(gaps) < 1e-12

    def test_too_few_lines_raise(self):
        with pytest.raises(InsufficientLines):
            convergence_voting(np.zeros((1, 3)), np.array([[1.0, 0, 0]]), 0.01, 2)

    def test_all_parallel_lines_raise(self):
        p0 = np.array([[0.0, y, 0] for y in (0.0, 1.0, 2.0)])
        u = np.tile([1.0, 0, 0], (3, 1))
        with pytest.raises(InsufficientLines):
            convergence_voting(p0, u, 0.01, 2)

    def test_sixty_four_lines_fast(self):
        rng = np.random.default_rng(24)
        p = np.array([0.5, 0.1, 0.2])
        p0, u = lines_through(p, [rng.normal(size=3) for _ in range(64)])
        start = time.perf_counter()
        res = convergence_voting(p0, u, 1e-6, 40)
        elapsed = time.perf_counter() - start
        assert res.converged
        assert elapsed < 0.05

    @staticmethod
    def random_lines(n, seed):
        """``n`` lines: random ones, then ``n // 3`` through one point,
        whose proposals come last, in the last chunk."""
        rng = np.random.default_rng(seed)
        p0, u = lines_through(np.array([0.2, -0.1, 0.4]), rng.normal(size=(n // 3, 3)))
        rest = rng.normal(size=(n - len(p0), 3))
        return (
            np.vstack([rng.normal(size=(len(rest), 3)), p0]),
            np.vstack([rest / np.linalg.norm(rest, axis=1, keepdims=True), u]),
        )

    def test_chunked_scoring_matches_unchunked_reference(self):
        # 150 lines: 11175 proposals, scored in five chunks
        p0, u = self.random_lines(150, 26)
        assert 150 * 149 // 2 * 150 * 3 * 8 > 4 * VOTE_CHUNK_BYTES
        for eps in (1e-6, 0.05, 0.5):
            got = convergence_voting(p0, u, eps, 40)
            ref = reference_convergence_voting(p0, u, eps, 40)
            assert got.inlier_indices == ref.inlier_indices
            assert got.converged == ref.converged
            assert np.array_equal(got.convergence_point, ref.convergence_point)

    @pytest.mark.parametrize("parallel", [False, True], ids=["skew", "parallel"])
    @pytest.mark.parametrize("n", [2, 3, 13, 89, 90, 120])
    def test_matches_reference_bit_for_bit(self, n, parallel):
        # up to 89 lines every proposal is scored in one chunk, from 90 in
        # several; with parallel pairs, each random line 4k + 1 runs along
        # line 4k (both of n = 2, so no proposal is left)
        p0, u = self.random_lines(n, 40 + n)
        tensor_bytes = n * (n - 1) // 2 * n * 3 * 8
        assert (tensor_bytes <= VOTE_CHUNK_BYTES) == (n <= 89)
        if parallel:
            k = n - n // 3
            u[1:k:4] = u[0:k:4][: len(u[1:k:4])]
        for eps in (1e-6, 0.05, 0.5):
            try:
                ref = reference_convergence_voting(p0, u, eps, 4)
            except InsufficientLines:
                assert n == 2 and parallel
                with pytest.raises(InsufficientLines):
                    convergence_voting(p0, u, eps, 4)
                continue
            got = convergence_voting(p0, u, eps, 4)
            assert got.inlier_indices == ref.inlier_indices
            assert got.converged == ref.converged
            assert got.convergence_point.tobytes() == ref.convergence_point.tobytes()

    @pytest.mark.parametrize("chunk_bytes", [VOTE_CHUNK_BYTES, 4 * 3 * 8])
    def test_exact_tie_goes_to_the_earlier_proposal(self, monkeypatch, chunk_bytes):
        # Two crossings, at the origin and at (0, 0, 1), each hold two of the
        # four lines at distance 0: the vote ties on count and sum, and the
        # first proposal wins, also when every proposal is its own chunk.
        monkeypatch.setattr(selection, "VOTE_CHUNK_BYTES", chunk_bytes)
        p0 = np.array([[0.0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 1]])
        u = np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0]])
        res = convergence_voting(p0, u, 0.4, 2)
        assert res.inlier_indices == (0, 1)
        assert res.convergence_point.tolist() == [0.0, 0.0, 0.0]
        ref = reference_convergence_voting(p0, u, 0.4, 2)
        assert ref.inlier_indices == res.inlier_indices
        assert ref.convergence_point.tobytes() == res.convergence_point.tobytes()

    def test_memory_bounded_at_300_lines(self):
        # unchunked, one vote over 300 lines peaked at about 1.3 GB
        p0, u = self.random_lines(300, 27)
        tracemalloc.start()
        try:
            res = convergence_voting(p0, u, 1e-6, 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.inlier_indices == tuple(range(200, 300))
        assert peak < 64e6
