"""The benchmark in ``perfbench/`` times pelical by wrapping functions at the
module attributes the code calls through, and reads counts from the wrapped
calls' arguments.  The test command collects ``tests/`` only, so these
checks keep those hooks working from here."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np

from pelical import (
    Extrinsics,
    PipelineConfig,
    RigSpec,
    cli,
    fileio,
    generate,
    pipeline,
    rotation_about_y,
    run,
)
from pelical.constraints import CaseKind

from helpers import DEFAULT_K, make_observation, rand_truth

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
MODULES = {"cli": cli, "fileio": fileio, "pipeline": pipeline}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve():
    for mod, attr, _ in load_tracer().TRACED:
        assert callable(getattr(MODULES[mod], attr, None)), f"pelical.{mod}.{attr}"


def test_voting_observer_reads_the_line_count(rng):
    # the observer takes len() of convergence_voting's first argument as the
    # number of candidate lines; in a FULL3D-only stream every stored pair
    # gives one line, so that is the trace's pair count of each vote; the
    # vote radius sits below the noise, so every accepted pair votes
    tracer = load_tracer()
    truth = rand_truth(rng)
    stream = [
        make_observation(rng, truth, CaseKind.FULL3D, obs_id=i, noise_3d=0.003)
        for i in range(8)
    ]
    with tracer.Tracer(MODULES) as traced:
        report = run(stream, PipelineConfig(epsilon_d_m=1e-9), DEFAULT_K)
    votes = [entry["pairs"] for entry in report.trace if "vote_size" in entry]
    assert len(votes) >= 2
    assert traced.layer_totals()["selection.convergence_voting"][0] == len(votes)
    assert traced.counts["voting_lines_max"] == max(votes)


def test_solve_observer_counts_one_candidate_per_returned_solve():
    # candidates_mean is solve_candidates over the solves that returned; the
    # solver returns one root, so it reads 1.0.  Streams 4 and 5 of the
    # half-PnL rig each fail one solve (at the sanity floor) and then
    # converge, stream 1 converges at its first solve.
    tracer = load_tracer()
    truth = Extrinsics(rotation_about_y(20.0), np.array([0.30, 0.0, 0.0]))
    with tracer.Tracer(MODULES) as traced:
        for seed in (1, 4, 5):
            spec = RigSpec(
                truth=truth,
                target_intrinsics=DEFAULT_K,
                source_intrinsics=DEFAULT_K,
                n_lines=60,
                pixel_noise_sigma=0.5,
                depth_noise_sigma=0.003,
                pnl_fraction=0.5,
                rng_seed=seed,
            )
            report = run(generate(spec)[0], PipelineConfig(cost_threshold=30.0), DEFAULT_K)
            assert report.termination.value == "converged"
    solves = traced.layer_totals()["solver.solve_quadratic_system"][0]
    failed = traced.counts["solve_failed"]
    assert failed == 2 and solves == 5
    assert traced.counts["solve_candidates"] == solves - failed


def test_eviction_rebuilds_no_rows_through_the_traced_name():
    # rotation_rows is traced per ingested pair; eviction keeps the rows the
    # gate stacked, so the two counts stay equal on a stream that evicts
    tracer = load_tracer()
    truth = Extrinsics(rotation_about_y(20.0), np.array([0.30, 0.0, 0.0]))
    spec = RigSpec(
        truth=truth,
        target_intrinsics=DEFAULT_K,
        source_intrinsics=DEFAULT_K,
        n_lines=20,
        pixel_noise_sigma=0.5,
        depth_noise_sigma=0.003,
        rng_seed=1,
    )
    with tracer.Tracer(MODULES) as traced:
        report = run(generate(spec)[0], PipelineConfig(epsilon_d_m=1e-5), DEFAULT_K)
    assert any("evicted" in entry for entry in report.trace)
    totals = traced.layer_totals()
    assert totals["selection.rotation_rows"][0] == totals["selection.gate_rotation"][0]


def test_smoke_pass_counts_one_fit_per_fit_and_one_read_per_file(tmp_path, monkeypatch):
    # A traced smoke pass of the benchmark: the per-layer counts stay
    # comparable across changes that reshape a layer's insides, as long as
    # each fit and each file read is one call of the traced name.  A fit is
    # counted here from each ingested observation: its source side always,
    # its target side when it has depth and the source fit was kept.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness

    outcomes = []
    ingest = pipeline.ingest

    @functools.wraps(ingest)
    def recording(obs, state, cfg):
        outcome = ingest(obs, state, cfg)
        outcomes.append((obs, outcome))
        return outcome

    monkeypatch.setattr(pipeline, "ingest", recording)
    workload = harness.WORKLOADS["calibrate60_mixed"]
    bench = harness.Bench("calibrate60_mixed", workload, 1, harness.SMOKE_FILES, 1, tmp_path)
    bench.setup(0)
    with harness.Tracer(MODULES) as traced:
        results = bench.run_pass(0, whole_cycles=True, cycles=1)
    assert [r.problem for r in results] == [None] * harness.SMOKE_FILES
    source_refused = ("source fit failed", "too few source fit inliers")
    fits = sum(
        1 + (obs.target_samples is not None
             and not (outcome.reason or "").startswith(source_refused))
        for obs, outcome in outcomes
    )
    totals = traced.layer_totals()
    assert totals["pipeline.ransac_fit_line"][0] == fits > 0
    assert totals["pipeline.ingest"][0] == len(outcomes)
    assert totals["fileio.read_observation_file"][0] == harness.SMOKE_FILES == 2
