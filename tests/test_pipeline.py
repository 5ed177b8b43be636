import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pelical import (
    DegenerateLine,
    Extrinsics,
    Line2D,
    LineObservation,
    PipelineConfig,
    RigSpec,
    TerminationReason,
    TooFewSamples,
    assemble,
    generate,
    ingest,
    pose_errors,
    ransac_fit_line,
    refine,
    rotation_about_y,
    rotation_angle,
    run,
    solve_quadratic_system,
    try_finalize,
)
from pelical import fileio, pipeline, simulator
from pelical.checks import MAX_SAMPLES
from pelical.constraints import CaseKind
from pelical.pipeline import (
    RANSAC_DISTANCE_M,
    RANSAC_FIRST_SLICE,
    FinalizeAttempt,
    PipelineState,
    RoundStatus,
    _candidate_lines,
    _hypothesis_products,
    _inlier_masks,
)
from pelical.selection import (
    GATE_SLACK,
    ROTATION_ROW_COUNT,
    VOTE_MIN_COUNT,
    _pair_residuals,
    evict,
    vote_threshold,
)

from helpers import (
    DEFAULT_K,
    assert_gate_holds_store_rows,
    make_correspondence,
    make_observation,
    rand_rotation,
    rand_truth,
    reference_candidate_lines,
    reference_evict,
    reference_gate,
    reference_inlier_masks,
    reference_pair_residuals,
    reference_ransac_fit_line,
)


def segment_samples(rng, n=100, noise=0.0, outliers=0):
    p = np.array([0.4, -0.2, 2.0])
    d = np.array([2.0, 1.0, 0.5])
    d = d / np.linalg.norm(d)
    ts = np.linspace(-1.0, 1.0, n)
    pts = p + ts[:, None] * d
    if noise > 0.0:
        pts = pts + rng.normal(size=pts.shape) * noise
    if outliers:
        junk = p + rng.normal(size=(outliers, 3)) * 1.5
        pts = np.vstack([pts, junk])
    return pts, p, d


def good_stream(rng, truth, n_full3d, n_pnl, start_id=0):
    obs = []
    for i in range(n_full3d + n_pnl):
        kind = CaseKind.FULL3D if i < n_full3d else CaseKind.PNL
        obs.append(make_observation(rng, truth, kind, obs_id=start_id + i))
    return obs


class TestRansacFitLine:
    def test_exact_samples_full_consensus(self, rng):
        pts, p, d = segment_samples(rng)
        line, ratio, endpoints = ransac_fit_line(pts, rng)
        assert ratio == 1.0
        assert abs(abs(line.d @ d) - 1.0) < 1e-12
        # endpoints are the extreme sample projections
        assert_allclose(endpoints[0], pts[0], atol=1e-9)
        assert_allclose(endpoints[1], pts[-1], atol=1e-9)
        # all samples lie on the fitted line
        for q in pts[::10]:
            gap = np.cross(q, line.d) - line.m
            assert np.linalg.norm(gap) < 1e-9

    def test_orientation_follows_sample_order(self, rng):
        pts, _, d = segment_samples(rng)
        line_fwd, *_ = ransac_fit_line(pts, rng)
        line_rev, *_ = ransac_fit_line(pts[::-1], rng)
        assert line_fwd.d @ d > 0.99
        assert line_rev.d @ d < -0.99

    def test_outliers_rejected(self, rng):
        pts, _, d = segment_samples(rng, n=80, noise=0.002, outliers=20)
        line, ratio, _ = ransac_fit_line(pts, rng)
        assert 0.7 <= ratio <= 0.9
        angle = np.degrees(np.arccos(min(1.0, abs(line.d @ d))))
        assert angle < 0.5

    def test_too_few_samples(self, rng):
        with pytest.raises(TooFewSamples):
            ransac_fit_line(np.zeros((1, 3)), rng)

    def test_coincident_samples_degenerate(self, rng):
        pts = np.tile(np.array([1.0, 2.0, 3.0]), (10, 1))
        with pytest.raises(DegenerateLine):
            ransac_fit_line(pts, rng)

    def test_deterministic_given_seed(self):
        pts, _, _ = segment_samples(np.random.default_rng(5), n=60, noise=0.003)
        a = ransac_fit_line(pts, np.random.default_rng(7))
        b = ransac_fit_line(pts, np.random.default_rng(7))
        assert np.array_equal(a[0].d, b[0].d)
        assert np.array_equal(a[0].m, b[0].m)
        assert a[1] == b[1]
        assert np.array_equal(a[2], b[2])

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        radius=st.floats(0.0, 10.0),
        length=st.floats(0.05, 5.0),
        noise=st.floats(0.0, 0.005),
        outlier_frac=st.floats(0.0, 0.5),
        n=st.integers(2, 200),
    )
    def test_scoring_matches_reference(self, seed, radius, length, noise, outlier_frac, n):
        rng = np.random.default_rng(seed)
        unit = rng.normal(size=(2, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        centre, d = radius * unit[0], unit[1]
        pts = centre + rng.uniform(-0.5, 0.5, size=(n, 1)) * length * d
        pts += rng.normal(size=pts.shape) * noise
        bad = rng.random(n) < outlier_frac
        pts[bad] = centre + rng.uniform(-length, length, size=(int(bad.sum()), 3))
        # the hypothesis draws of ransac_fit_line
        ii = rng.integers(0, n, size=200)
        jj = rng.integers(0, n - 1, size=200)
        jj = jj + (jj >= ii)
        dirs = pts[jj] - pts[ii]
        norms = np.linalg.norm(dirs, axis=1)
        keep = norms > 1e-9
        ii, dirs = ii[keep], dirs[keep] / norms[keep, None]

        threshold = RANSAC_DISTANCE_M
        ref, dist = reference_inlier_masks(pts, ii, dirs, threshold)
        q = pts - pts.mean(axis=0)
        sq = np.einsum("nj,nj->n", q, q)
        new = _inlier_masks(sq, ii, *_hypothesis_products(q, ii, dirs), threshold)
        # both round the same real distance: only a sample on the threshold may flip
        decided = np.abs(dist - threshold) > 1e-9
        assert np.array_equal(new[decided], ref[decided])

    def test_memory_is_linear_in_samples(self):
        pts, _, _ = segment_samples(np.random.default_rng(3), n=5000, noise=0.003)
        tracemalloc.start()
        try:
            ransac_fit_line(pts, np.random.default_rng(4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6


def assert_same_fit(got, want) -> None:
    """Two ``ransac_fit_line`` results hold the same bits."""
    (line, ratio, ends), (ref_line, ref_ratio, ref_ends) = got, want
    assert line.d.tobytes() == ref_line.d.tobytes()
    assert line.m.tobytes() == ref_line.m.tobytes()
    assert ratio == ref_ratio
    assert ends.tobytes() == ref_ends.tobytes()


def stream_samples(model: str, sigma: float, seed: int) -> list[np.ndarray]:
    """Every sample list of one 60-line stream of the rig's mixed mix."""
    spec = RigSpec(
        truth=Extrinsics(rotation_about_y(20.0), np.array([0.30, 0.0, 0.0])),
        target_intrinsics=DEFAULT_K,
        source_intrinsics=DEFAULT_K,
        n_lines=60,
        pixel_noise_sigma=0.5,
        depth_noise_sigma=sigma,
        depth_noise_model=model,
        outlier_fraction=0.2,
        pnl_fraction=0.25,
        rng_seed=seed,
    )
    observations, _ = generate(spec)
    return [
        pts
        for obs in observations
        for pts in (obs.source_samples, obs.target_samples)
        if pts is not None
    ]


class TestRansacEarlyStop:
    """Scoring stops once a hypothesis holds every sample, and the result is
    that of scoring all of them in one call."""

    @pytest.mark.parametrize(
        "model, sigma", [("isotropic", 0.003), ("axial_z2", 0.0015), ("axial_z2", 0.003)]
    )
    def test_fit_matches_one_call_reference(self, model, sigma):
        full = 0
        fits = 0
        for seed in (1, 2):
            for i, pts in enumerate(stream_samples(model, sigma, seed)):
                if i % 2:  # also in an order whose column sums round differently
                    pts = np.asfortranarray(pts)
                got = ransac_fit_line(pts, np.random.default_rng(i))
                want = reference_ransac_fit_line(pts, np.random.default_rng(i))
                assert_same_fit(got, want)
                full += got[1] == 1.0
                fits += 1
        # both branches ran: fits that stop early and fits that score all
        assert 0 < full < fits

    def test_tie_across_slices_keeps_the_first(self):
        # Two 10-sample segments, far apart: a hypothesis on either holds 10
        # samples.  With seed 0 the first slice's best lies on one segment
        # and the second slice's first best on the other.
        t = np.linspace(0.0, 1.0, 10)[:, None]
        pts = np.vstack([t * [1.0, 0.0, 0.0] + [0.0, 0.0, 2.0],
                         t * [0.0, 1.0, 0.0] + [0.5, 0.5, 2.0]])
        rng = np.random.default_rng(0)
        ii = rng.integers(0, 20, size=200)
        jj = rng.integers(0, 19, size=200)
        jj = jj + (jj >= ii)
        on_first = (ii < 10) & (jj < 10)
        on_second = (ii >= 10) & (jj >= 10)
        k = RANSAC_FIRST_SLICE
        first_best = int(np.argmax(on_first | on_second))
        second_best = k + int(np.argmax((on_first | on_second)[k:]))
        assert first_best < k and on_first[first_best] and on_second[second_best]

        fit = ransac_fit_line(pts, np.random.default_rng(0))
        assert fit[1] == 0.5
        assert abs(fit[0].d @ [1.0, 0.0, 0.0]) == pytest.approx(1.0)
        assert_same_fit(fit, reference_ransac_fit_line(pts, np.random.default_rng(0)))

    def test_full_consensus_in_the_first_slice_scores_only_it(self, monkeypatch):
        rows = []

        def counting(sq, ii, along, gram, threshold):
            rows.append(len(ii))
            return _inlier_masks(sq, ii, along, gram, threshold)

        monkeypatch.setattr(pipeline, "_inlier_masks", counting)
        pts, _, _ = segment_samples(np.random.default_rng(3), n=40)
        assert ransac_fit_line(pts, np.random.default_rng(4))[1] == 1.0
        assert rows == [RANSAC_FIRST_SLICE]
        # with no full consensus every hypothesis is scored
        rows.clear()
        pts, _, _ = segment_samples(np.random.default_rng(3), n=40, outliers=5)
        assert ransac_fit_line(pts, np.random.default_rng(4))[1] < 1.0
        assert sum(rows) == 200


class TestLineObservation:
    @pytest.mark.parametrize("side", ["source_samples", "target_samples"])
    def test_non_finite_samples_rejected(self, rng, side):
        obs = make_observation(rng, rand_truth(rng), CaseKind.FULL3D)
        samples = getattr(obs, side).copy()
        samples[3, 1] = np.nan
        with pytest.raises(ValueError, match=f"{side} must be finite"):
            replace(obs, **{side: samples})

    @pytest.mark.parametrize("side", ["source_samples", "target_samples"])
    def test_sample_count_is_bounded(self, rng, side):
        # the line fit keeps several (iterations, n) temporaries
        obs = make_observation(rng, rand_truth(rng), CaseKind.FULL3D)
        samples = getattr(obs, side)
        replace(obs, **{side: np.resize(samples, (MAX_SAMPLES, 3))})
        with pytest.raises(ValueError, match=f"{side} must hold at most 10000 points"):
            replace(obs, **{side: np.resize(samples, (MAX_SAMPLES + 1, 3))})

    @staticmethod
    def assert_edits_miss(observations, made):
        """Editing every sample array in ``made`` after construction leaves
        ``observations`` as they were, and their own arrays refuse edits."""
        sides = ("source_samples", "target_samples")
        before = [[getattr(o, s).copy() for s in sides if getattr(o, s) is not None]
                  for o in observations]
        assert made
        for pts in made:
            pts[...] = 99.0
        for obs, kept in zip(observations, before):
            stored = [getattr(obs, s) for s in sides if getattr(obs, s) is not None]
            for got, want in zip(stored, kept, strict=True):
                assert not got.flags.writeable
                assert got.tobytes() == want.tobytes()

    def test_simulator_samples_are_copied(self, monkeypatch):
        made = []
        noisy_view = simulator._noisy_view

        def recording(*args):
            pts, line = noisy_view(*args)
            made.append(pts)
            return pts, line

        monkeypatch.setattr(simulator, "_noisy_view", recording)
        spec = RigSpec(
            truth=ENVELOPE_TRUTH,
            target_intrinsics=DEFAULT_K,
            source_intrinsics=DEFAULT_K,
            n_lines=8,
            pnl_fraction=0.25,
            rng_seed=5,
        )
        observations, _ = generate(spec)
        self.assert_edits_miss(observations, made)

    def test_walked_samples_are_copied(self, rng, monkeypatch):
        made = []
        samples = fileio._samples

        def recording(*args):
            pts = samples(*args)
            if pts is not None:
                made.append(pts)
            return pts

        stream = good_stream(rng, rand_truth(rng), 3, 1)
        raw = json.loads(fileio.dumps_canonical(
            fileio.observation_file_dict(DEFAULT_K, DEFAULT_K, stream)
        ))["observations"]
        monkeypatch.setattr(fileio, "_samples", recording)
        walked = [fileio._observation_from_dict(e, f"observations[{i}]")
                  for i, e in enumerate(raw)]
        self.assert_edits_miss(walked, made)


class TestIngest:
    def test_full3d_accepted_and_stored(self, rng):
        truth = rand_truth(rng)
        cfg = PipelineConfig()
        state = PipelineState.fresh(cfg, DEFAULT_K)
        out = ingest(make_observation(rng, truth, CaseKind.FULL3D, obs_id=3), state, cfg)
        assert out.status is RoundStatus.ACCEPTED
        assert len(state.gate.pairs) == 1
        stored = state.gate.pairs[0]
        assert stored.kind is CaseKind.FULL3D
        assert stored.obs_id == 3
        assert stored.target_line_3d is not None

    def test_missing_target_depth_becomes_pnl(self, rng):
        truth = rand_truth(rng)
        cfg = PipelineConfig()
        state = PipelineState.fresh(cfg, DEFAULT_K)
        out = ingest(make_observation(rng, truth, CaseKind.PNL), state, cfg)
        assert out.status is RoundStatus.ACCEPTED
        assert state.gate.pairs[0].kind is CaseKind.PNL
        assert state.gate.pairs[0].target_line_3d is None

    def test_structureless_samples_rejected(self, rng):
        truth = rand_truth(rng)
        cfg = PipelineConfig()
        state = PipelineState.fresh(cfg, DEFAULT_K)
        good = make_observation(rng, truth, CaseKind.FULL3D)
        cloud = rng.normal(size=(12, 3)) * 1.5 + np.array([0, 0, 2.5])
        obs = LineObservation(
            obs_id=0,
            source_samples=cloud,
            target_samples=good.target_samples,
            source_2d=good.source_2d,
            target_2d=good.target_2d,
        )
        out = ingest(obs, state, cfg)
        assert out.status is RoundStatus.REJECTED
        assert not state.gate.pairs

    @pytest.mark.parametrize("side, kind", [("source", CaseKind.PNL), ("target", CaseKind.FULL3D)])
    def test_fit_with_exactly_the_minimum_inliers_is_kept(self, rng, side, kind):
        # 8 of 49 samples meet RANSAC_MIN_INLIERS, although the inlier ratio
        # times the sample count rounds below 8
        assert (8 / 49) * 49 < 8
        good = make_observation(rng, rand_truth(rng), CaseKind.FULL3D, n_samples=49)
        line = getattr(good, f"{side}_samples")
        scatter = line.mean(axis=0) + np.random.default_rng(3).uniform(-1.0, 1.0, (41, 3))
        samples = {"source_samples": good.source_samples, "target_samples": None}
        samples[f"{side}_samples"] = np.vstack([line[:48:6], scatter])
        obs = replace(good, **samples)
        cfg = PipelineConfig(inlier_ratio_threshold=0.1)
        state = PipelineState.fresh(cfg, DEFAULT_K)
        out = ingest(obs, state, cfg)
        assert out.status is RoundStatus.ACCEPTED
        assert state.gate.pairs[0].kind is kind

    def test_mismatch_gate_rejected_once_determined(self, rng):
        truth = rand_truth(rng)
        cfg = PipelineConfig()
        state = PipelineState.fresh(cfg, DEFAULT_K)
        for i, obs in enumerate(good_stream(rng, truth, 4, 0)):
            assert ingest(obs, state, cfg).status is RoundStatus.ACCEPTED
        gate = state.gate
        bad = make_observation(rng, rand_truth(rng), CaseKind.FULL3D, obs_id=99)
        out = ingest(bad, state, cfg)
        assert out.status is RoundStatus.GATE_REJECTED
        assert state.gate is gate
        assert len(state.gate.pairs) == 4
        assert_gate_holds_store_rows(state.gate)


def poisoned_store(rng):
    """A store that took two mismatched pairs while the gate was still
    underdetermined, then honest FULL3D and PNL pairs."""
    truth = rand_truth(rng)
    cfg = PipelineConfig()
    state = PipelineState.fresh(cfg, DEFAULT_K)
    poison = [
        make_observation(rng, rand_truth(rng), CaseKind.FULL3D, obs_id=100 + i)
        for i in range(2)
    ]
    for obs in poison + good_stream(rng, truth, 8, 2):
        ingest(obs, state, cfg)
        assert_gate_holds_store_rows(state.gate)
    return state


class TestEviction:
    def test_noop_on_honest_store(self, rng):
        truth = rand_truth(rng)
        cfg = PipelineConfig()
        state = PipelineState.fresh(cfg, DEFAULT_K)
        for obs in good_stream(rng, truth, 6, 0):
            ingest(obs, state, cfg)
        evicted, gate = evict(state.gate)
        assert evicted == []
        assert gate is state.gate
        assert_gate_holds_store_rows(gate)

    def test_noop_at_gate_slack(self, rng):
        # a distance at GATE_SLACK counts as round-off, even on a store
        # that eviction would otherwise clean
        gate = poisoned_store(rng).gate
        assert evict(gate)[0]
        at_slack = replace(gate, distance=GATE_SLACK)
        evicted, kept = evict(at_slack)
        assert evicted == []
        assert kept is at_slack

    def test_removes_early_poison(self, rng):
        gate = poisoned_store(rng).gate
        assert any(c.obs_id in (100, 101) for c in gate.pairs)
        assert any(c.kind is CaseKind.PNL for c in gate.pairs)
        evicted, gate = evict(gate)
        assert set(evicted) == {100, 101}
        assert all(c.obs_id not in (100, 101) for c in gate.pairs)
        assert gate.distance < 1e-9
        assert_gate_holds_store_rows(gate)


class TestRunConverged:
    def test_noiseless_stream_converges_to_truth(self, rng):
        truth = rand_truth(rng)
        stream = good_stream(rng, truth, 6, 2)
        report = run(stream, PipelineConfig(), DEFAULT_K)
        assert report.termination is TerminationReason.CONVERGED
        # converges as soon as the vote can carry, so possibly before the
        # stream is exhausted
        assert VOTE_MIN_COUNT <= report.accepted_pairs <= 8
        assert np.degrees(
            rotation_angle(report.extrinsics.rotation.T @ truth.rotation)
        ) < 1e-5
        assert np.linalg.norm(report.extrinsics.translation - truth.translation) < 1e-6
        assert report.final_cost < PipelineConfig().cost_threshold
        assert set(report.voting_inlier_ids) <= set(range(8))
        assert len(report.voting_inlier_ids) >= VOTE_MIN_COUNT

    def test_early_poison_is_excluded(self, rng):
        truth = rand_truth(rng)
        poison = [
            make_observation(rng, rand_truth(rng), CaseKind.FULL3D, obs_id=100 + i)
            for i in range(2)
        ]
        stream = poison + good_stream(rng, truth, 8, 2)
        report = run(stream, PipelineConfig(), DEFAULT_K)
        assert report.termination is TerminationReason.CONVERGED
        assert not (set(report.voting_inlier_ids) & {100, 101})
        assert np.degrees(
            rotation_angle(report.extrinsics.rotation.T @ truth.rotation)
        ) < 1e-5

    def test_end_of_stream_revote_recovers_short_stream(self):
        # The poison is evicted only after the last observation; the
        # re-vote at the end of the stream then converges on six
        # observations, where finalizing after each ingest needs seven.
        rng = np.random.default_rng(0)
        truth = rand_truth(rng)
        poison = [
            make_observation(rng, rand_truth(rng), CaseKind.FULL3D, obs_id=100 + i)
            for i in range(2)
        ]
        stream = (poison + good_stream(rng, truth, 8, 2))[:6]
        report = run(stream, PipelineConfig(), DEFAULT_K)
        assert report.termination is TerminationReason.CONVERGED
        assert not (set(report.voting_inlier_ids) & {100, 101})

    def test_replay_refine_reproduces_pose(self, rng):
        truth = rand_truth(rng)
        report = run(good_stream(rng, truth, 6, 2), PipelineConfig(), DEFAULT_K)
        assert report.termination is TerminationReason.CONVERGED
        system = assemble(report.inlier_correspondences, DEFAULT_K)
        solution = solve_quadratic_system(system)
        replay = refine(solution, report.inlier_correspondences, DEFAULT_K)
        assert np.max(
            np.abs(replay.extrinsics.rotation - report.extrinsics.rotation)
        ) < 1e-12
        assert np.max(
            np.abs(replay.extrinsics.translation - report.extrinsics.translation)
        ) < 1e-12

    def test_trace_records_finalize_attempts(self, rng):
        truth = rand_truth(rng)
        report = run(good_stream(rng, truth, 6, 2), PipelineConfig(), DEFAULT_K)
        assert report.trace
        assert all(isinstance(entry, FinalizeAttempt) for entry in report.trace)
        last = report.trace[-1]
        assert last.vote_converged is True
        assert last.mean_cost == report.final_cost
        assert last.note is None and last.evicted == []

    def test_bit_identical_reruns(self, rng):
        truth = rand_truth(rng)
        stream = good_stream(rng, truth, 6, 2)
        a = run(stream, PipelineConfig(), DEFAULT_K)
        b = run(stream, PipelineConfig(), DEFAULT_K)
        assert np.array_equal(a.extrinsics.rotation, b.extrinsics.rotation)
        assert np.array_equal(a.extrinsics.translation, b.extrinsics.translation)
        assert a.final_cost == b.final_cost
        assert a.voting_inlier_ids == b.voting_inlier_ids
        assert a.trace == b.trace


ENVELOPE_TRUTH = Extrinsics(rotation_about_y(20.0), np.array([0.30, 0.0, 0.0]))


class TestRobustnessEnvelope:
    """Streams of the robustness envelope (60 lines at 0.5 px / 3 mm noise,
    ``cost_threshold=30``) that each kept heuristic decides."""

    @pytest.mark.parametrize(
        "outlier_fraction, seed",
        [(0.6, 1007), (0.5, 1012), (0.4, 1009)],
        # without the heuristic: converges wrong; does not converge (poor-cost
        # eviction) or converges wrong (weights); does not converge
        ids=["vote-sums-tie-break", "poor-cost-eviction-and-full3d-weights", "gate-growth"],
    )
    def test_converges_correct(self, outlier_fraction, seed):
        spec = RigSpec(
            truth=ENVELOPE_TRUTH,
            target_intrinsics=DEFAULT_K,
            source_intrinsics=DEFAULT_K,
            n_lines=60,
            pixel_noise_sigma=0.5,
            depth_noise_sigma=0.003,
            outlier_fraction=outlier_fraction,
            rng_seed=seed,
        )
        observations, _ = generate(spec)
        report = run(observations, PipelineConfig(cost_threshold=30.0), DEFAULT_K)
        assert report.termination is TerminationReason.CONVERGED
        rot_deg, trans_mm = pose_errors(report.extrinsics, ENVELOPE_TRUTH)
        assert rot_deg <= 0.5 and trans_mm <= 15.0


def seeded_store(seed, outlier_fraction, pnl_fraction, n_lines=60):
    """The store after ingesting a whole envelope stream (60 lines unless
    ``n_lines`` says otherwise), with no finalize attempt (so nothing is
    evicted)."""
    spec = RigSpec(
        truth=ENVELOPE_TRUTH,
        target_intrinsics=DEFAULT_K,
        source_intrinsics=DEFAULT_K,
        n_lines=n_lines,
        pixel_noise_sigma=0.5,
        depth_noise_sigma=0.003,
        outlier_fraction=outlier_fraction,
        pnl_fraction=pnl_fraction,
        rng_seed=seed,
    )
    cfg = PipelineConfig()
    state = PipelineState.fresh(cfg, DEFAULT_K)
    for obs in generate(spec)[0]:
        ingest(obs, state, cfg)
    return state


STORES = [(1001, 0.2, 0.25), (1002, 0.5, 0.5), (1003, 0.6, 0.1), (1004, 0.0, 0.75)]


class TestBatchedFinalize:
    """The stacked candidate lines have the bits of the one-pair formulas,
    and the eviction residuals match them to round-off."""

    @pytest.mark.parametrize("seed, outlier_fraction, pnl_fraction", STORES)
    def test_candidate_lines_match_per_pair_reference(
        self, seed, outlier_fraction, pnl_fraction
    ):
        state = seeded_store(seed, outlier_fraction, pnl_fraction)
        cs = list(state.gate.pairs)
        assert {c.kind for c in cs} == {CaseKind.FULL3D, CaseKind.PNL}
        # a PNL pair with coincident image endpoints is dropped in place
        pnl = next(c for c in cs if c.kind is CaseKind.PNL)
        ep = pnl.target_line_2d.endpoints
        squashed = Line2D(pnl.target_line_2d.coeffs, np.stack([ep[0], ep[0]]))
        bad = replace(pnl, target_line_2d=squashed)
        cs.insert(len(cs) // 2, bad)
        rng = np.random.default_rng(seed)
        for R in (state.gate.rotation, rand_rotation(rng)):
            p0, u, members = _candidate_lines(reference_gate(cs), R, DEFAULT_K)
            ref_p0, ref_u, ref_members = reference_candidate_lines(cs, R, DEFAULT_K)
            assert np.array_equal(p0, ref_p0)
            assert np.array_equal(u, ref_u)
            assert members == ref_members
            assert all(c is not bad for c in members)

    @pytest.mark.parametrize("seed, outlier_fraction, pnl_fraction", STORES)
    def test_pair_residuals_match_per_pair_reference(
        self, seed, outlier_fraction, pnl_fraction
    ):
        state = seeded_store(seed, outlier_fraction, pnl_fraction)
        cs = state.gate.pairs
        sizes = np.array([ROTATION_ROW_COUNT[c.kind] for c in cs])
        starts = np.cumsum(sizes) - sizes
        rng = np.random.default_rng(seed)
        for R in (state.gate.rotation, rand_rotation(rng)):
            vec = R.reshape(-1)
            got = _pair_residuals(state.gate.C, state.gate.b, starts, vec)
            ref = reference_pair_residuals(state.gate.C, state.gate.b, cs, vec)
            assert_allclose(got, ref, rtol=1e-12)
            # eviction peels the worst pair: both pick the same one
            assert np.argmax(got) == np.argmax(ref)

    def test_store_without_full3d_pairs(self, rng):
        truth = rand_truth(rng)
        cfg = PipelineConfig()
        state = PipelineState.fresh(cfg, DEFAULT_K)
        for obs in good_stream(rng, truth, 0, 6):
            ingest(obs, state, cfg)
        p0, u, members = _candidate_lines(state.gate, truth.rotation, DEFAULT_K)
        assert p0.shape == u.shape == (len(members), 3)
        assert all(c.kind is CaseKind.PNL for c in members)


class TestNormalEquations:
    """The gate and eviction solve 9x9 normal equations and decide as the
    row-wise ``lstsq`` did."""

    @pytest.mark.parametrize("seed, outlier_fraction, pnl_fraction", STORES)
    def test_downdates_evict_like_lstsq_reference(
        self, seed, outlier_fraction, pnl_fraction
    ):
        gate = seeded_store(seed, outlier_fraction, pnl_fraction).gate
        assert_gate_holds_store_rows(gate)
        expected = reference_evict(gate)
        evicted, gate = evict(gate)
        assert evicted == expected
        assert_gate_holds_store_rows(gate)

    def test_gate_and_eviction_solve_only_9x9_systems(self, monkeypatch):
        shapes = []
        for name in ("solve", "lstsq"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        state = seeded_store(1001, 0.0, 0.25, n_lines=100)
        assert len(state.gate.pairs) > 90
        assert len(shapes) >= len(state.gate.pairs)
        shapes.clear()
        evict(state.gate)
        assert shapes
        assert set(shapes) == {(9, 9)}


class TestRunDegenerate:
    def test_pure_mismatch_stream_never_converges(self, rng):
        stream = [
            make_observation(rng, rand_truth(rng), CaseKind.FULL3D, obs_id=i)
            for i in range(30)
        ]
        report = run(stream, PipelineConfig(), DEFAULT_K)
        assert report.termination is not TerminationReason.CONVERGED

    def test_single_repeated_pair_never_converges(self, rng):
        truth = rand_truth(rng)
        obs = make_observation(rng, truth, CaseKind.FULL3D, obs_id=0)
        report = run([obs] * 30, PipelineConfig(), DEFAULT_K)
        assert report.termination is not TerminationReason.CONVERGED

    def test_end_of_stream_does_not_repeat_the_last_attempt(self, monkeypatch):
        # The vote radius is below the noise floor, so no vote carries, and
        # this stream's last attempt evicts nothing: the store is as that
        # attempt left it, so the end of the stream attempts nothing more.
        spec = RigSpec(
            truth=ENVELOPE_TRUTH,
            target_intrinsics=DEFAULT_K,
            source_intrinsics=DEFAULT_K,
            n_lines=20,
            pixel_noise_sigma=0.5,
            depth_noise_sigma=0.003,
            rng_seed=7,
        )
        calls = {"in stream": 0, "after": 0}
        ended = []

        def stream():
            yield from generate(spec)[0]
            ended.append(True)

        def counting(state, cfg):
            calls["after" if ended else "in stream"] += 1
            return try_finalize(state, cfg)

        monkeypatch.setattr("pelical.pipeline.try_finalize", counting)
        cfg = PipelineConfig(epsilon_d_m=1e-5, cost_threshold=30.0)
        report = run(stream(), cfg, DEFAULT_K)
        assert report.termination is TerminationReason.MAX_PAIRS
        assert not report.trace[-1].evicted
        assert report.trace[-1] != report.trace[-2]
        assert calls == {"in stream": len(report.trace), "after": 0}

    def test_empty_stream_aborts(self):
        report = run([], PipelineConfig(), DEFAULT_K)
        assert report.termination is TerminationReason.ABORTED
        assert report.accepted_pairs == 0
        assert report.final_cost == np.inf

    def test_max_pairs_caps_ingestion(self, rng):
        # No cost is below a negative threshold, so the run cannot converge
        # and only the cap ends it, after finalize attempts at 4 and 5 pairs.
        truth = rand_truth(rng)
        pulled = []

        def stream():
            for obs in good_stream(rng, truth, 10, 0):
                pulled.append(obs.obs_id)
                yield obs

        cfg = PipelineConfig(max_pairs=5, cost_threshold=-1.0)
        report = run(stream(), cfg, DEFAULT_K)
        assert report.termination is TerminationReason.MAX_PAIRS
        assert pulled == [0, 1, 2, 3, 4]
        assert len(report.trace) == 2

    def test_max_pairs_reads_no_further(self, rng):
        truth = rand_truth(rng)
        pulled = []

        def stream():
            for obs in good_stream(rng, truth, 10, 0):
                pulled.append(obs.obs_id)
                yield obs

        run(stream(), PipelineConfig(max_pairs=3), DEFAULT_K)
        assert pulled == [0, 1, 2]


class TestConfig:
    @pytest.mark.parametrize(
        "data, error, field",
        [
            ({"epsilon_d_m": -1}, ValueError, "epsilon_d_m"),
            ({"epsilon_d_m": float("nan")}, ValueError, "epsilon_d_m"),
            ({"inlier_ratio_threshold": 0}, ValueError, "inlier_ratio_threshold"),
            ({"max_pairs": 0}, ValueError, "max_pairs"),
            ({"cost_threshold": True}, TypeError, "cost_threshold"),
            ({"rng_seed": -1}, ValueError, "rng_seed"),
            ({"cost_threshold": float("nan")}, ValueError, "cost_threshold"),
            ({"max_pairs": 10**20}, ValueError, "max_pairs"),
        ],
    )
    def test_rejects_bad_fields(self, data, error, field):
        with pytest.raises(error, match=f"^{field}"):
            PipelineConfig(**data)

    def test_vote_threshold_floor_and_fraction(self):
        assert vote_threshold(2) == 4
        assert vote_threshold(10) == 6
        assert vote_threshold(20) == 12

    def test_finalize_waits_for_minimum_population(self, rng):
        truth = rand_truth(rng)
        cfg = PipelineConfig()
        state = PipelineState.fresh(cfg, DEFAULT_K)
        for obs in good_stream(rng, truth, 3, 0):
            ingest(obs, state, cfg)
        assert len(state.gate.pairs) == 3
        # three candidates can never reach the vote floor of four
        assert try_finalize(state, cfg) is None

    def test_failed_vote_notes_why_and_keeps_the_store(self, rng):
        # a single stored pair gives one candidate line, too few to vote on;
        # the attempt ends with a note, before any eviction
        truth = rand_truth(rng)
        gate = replace(
            reference_gate([make_correspondence(rng, truth, CaseKind.FULL3D, obs_id=0)]),
            rotation=truth.rotation,
            distance=0.0,
        )
        cfg = PipelineConfig()
        state = PipelineState.fresh(cfg, DEFAULT_K)
        state.gate = gate
        assert try_finalize(state, cfg) is None
        assert state.gate is gate
        assert state.trace[-1].as_dict() == {
            "pairs": 1,
            "d_so3": 0.0,
            "note": "voting failed: voting needs at least two candidate lines",
        }
