"""End-to-end command line tests driving main() and the console entry point."""

import argparse
import ast
import contextlib
import csv
import dataclasses
import functools
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pelical
from pelical import (
    Extrinsics,
    Line2D,
    LineObservation,
    PipelineConfig,
    RigSpec,
    TerminationReason,
    generate,
    pose_errors,
    rotation_about_y,
)
from pelical.cli import _pipeline_config, build_parser, main
from pelical.fileio import (
    SWEEP_COLUMNS,
    extrinsics_to_dict,
    observation_file_dict,
    read_calibration_file,
    read_observation_file,
    rig_spec_to_dict,
    write_json,
    write_observation_file,
)

from helpers import DEFAULT_K, mutated, odd_rig_spec


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("PELICAL_SEED", raising=False)


def easy_spec(**overrides) -> RigSpec:
    base = dict(
        truth=Extrinsics(rotation_about_y(20.0), np.array([0.3, 0.0, 0.0])),
        target_intrinsics=DEFAULT_K,
        source_intrinsics=DEFAULT_K,
        n_lines=12,
        rng_seed=0,
    )
    base.update(overrides)
    return RigSpec(**base)


def write_spec(path, spec: RigSpec) -> None:
    write_json(path, rig_spec_to_dict(spec))


def observation_file(tmp_path) -> Path:
    """A short simulated observation file."""
    spec_path, obs_path = tmp_path / "rig.json", tmp_path / "obs.json"
    write_spec(spec_path, easy_spec(n_lines=8))
    assert main(["simulate", "--spec", str(spec_path), "--output", str(obs_path)]) == 0
    return obs_path


@functools.lru_cache(maxsize=None)
def base_documents() -> str:
    """A valid observation file (12 simulated lines, which converge) and a
    valid config object, as one JSON text."""
    observations, _ = generate(easy_spec())
    obs = observation_file_dict(DEFAULT_K, DEFAULT_K, observations)
    return json.dumps({"observations": obs, "config": dataclasses.asdict(PipelineConfig())})


def calibrate_edited(tmp_path, path, value) -> int:
    """Exit code of ``calibrate`` on the observation file of
    :func:`base_documents` with the field at ``path`` set to ``value``."""
    doc = json.loads(base_documents())["observations"]
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    obs_path = tmp_path / "obs.json"
    obs_path.write_text(json.dumps(doc))
    return main(["calibrate", "--input", str(obs_path), "--output", str(tmp_path / "c.json")])


def run_fuzzed(docs: dict, argv) -> tuple[int, str, list[str]]:
    """Write each document to ``<name>.json`` in a fresh directory and run
    ``main(argv(paths, directory))``.  Returns the exit code, stderr and the
    RuntimeWarnings raised, which the CLI would print to stderr."""
    stderr = io.StringIO()
    with (
        tempfile.TemporaryDirectory() as tmp,
        contextlib.redirect_stderr(stderr),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        paths = {name: Path(tmp) / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            paths[name].write_text(json.dumps(doc))
        code = main(argv(paths, Path(tmp)))
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, stderr.getvalue(), runtime


def assert_clean_exit(code: int, err: str) -> None:
    """Exit 0, 1 or 2, and exit 1 only with a one-line ``error:``."""
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


def fuzzed_spec(doc: dict):
    """Rig-spec fuzz documents: half break the reader, and half hold odd
    values it accepts, so the simulator runs on them."""
    return st.one_of(mutated(doc), odd_rig_spec(doc))


INFEASIBLE = dict(
    truth=Extrinsics(rotation_about_y(170.0), np.array([500.0, 0.0, 0.0])),
    scene_depth_m=(0.8, 1.0),
)


class TestSimulate:
    def test_writes_observations_and_truth(self, tmp_path):
        spec_path, obs_path, truth_path = (
            tmp_path / "rig.json",
            tmp_path / "obs.json",
            tmp_path / "truth.json",
        )
        write_spec(spec_path, easy_spec())
        code = main(
            [
                "simulate",
                "--spec",
                str(spec_path),
                "--output",
                str(obs_path),
                "--truth",
                str(truth_path),
            ]
        )
        assert code == 0
        _, _, observations = read_observation_file(obs_path)
        assert len(observations) == 12
        assert truth_path.exists()

    def test_infeasible_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "rig.json"
        write_spec(spec_path, easy_spec(**INFEASIBLE))
        code = main(
            ["simulate", "--spec", str(spec_path), "--output", str(tmp_path / "o.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_env_seed_overrides_spec_seed(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "rig.json"
        write_spec(spec_path, easy_spec(rng_seed=0))
        base, seeded, matching = (
            tmp_path / "base.json",
            tmp_path / "seeded.json",
            tmp_path / "matching.json",
        )
        assert main(["simulate", "--spec", str(spec_path), "--output", str(base)]) == 0
        monkeypatch.setenv("PELICAL_SEED", "5")
        assert main(["simulate", "--spec", str(spec_path), "--output", str(seeded)]) == 0
        assert base.read_bytes() != seeded.read_bytes()
        monkeypatch.setenv("PELICAL_SEED", "0")
        assert main(["simulate", "--spec", str(spec_path), "--output", str(matching)]) == 0
        assert base.read_bytes() == matching.read_bytes()

    def test_invalid_env_seed_exits_1(self, tmp_path, monkeypatch, capsys):
        spec_path = tmp_path / "rig.json"
        write_spec(spec_path, easy_spec())
        monkeypatch.setenv("PELICAL_SEED", "abc")
        code = main(
            ["simulate", "--spec", str(spec_path), "--output", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert "PELICAL_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rng_seed", -1, "rng_seed must be non-negative"),
            ("samples_per_line", 1e12, "samples_per_line must be an integer, got 1000000000000.0"),
            ("samples_per_line", 10**12, "samples_per_line must lie in [2, 10000]"),
            ("n_lines", 2.5, "n_lines must be an integer, got 2.5"),
            ("rng_seed", 1.5, "rng_seed must be an integer, got 1.5"),
            # 10000 lines of 40 samples each: 400000 points per camera
            ("n_lines", 10_000, "n_lines x samples_per_line must be at most 100000"),
            ("pixel_noise_sigma", 2e6, "pixel_noise_sigma must lie in [0, 1e+06]"),
            ("scene_depth_m", [0.5, "x"], "scene_depth_m must be a number, got 'x'"),
            # a misspelt key once left its field at the default and exited 0
            ("pixel_noise_sigm", 0.5,
             "RigSpec.__init__() got an unexpected keyword argument 'pixel_noise_sigm'"),
        ],
        ids=["negative-seed", "huge-float-samples", "huge-samples", "fractional-lines",
             "fractional-seed", "huge-stream", "huge-sigma", "string-depth", "unknown-key"],
    )
    def test_bad_spec_field_exits_1(self, tmp_path, capsys, field, value, message):
        spec_path = tmp_path / "rig.json"
        spec_path.write_text(json.dumps({**rig_spec_to_dict(easy_spec()), field: value}))
        code = main(["simulate", "--spec", str(spec_path), "--output", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: rig spec: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_negative_env_seed_exits_1(self, tmp_path, capsys, monkeypatch, command):
        spec_path, out = tmp_path / "rig.json", str(tmp_path / "out")
        write_spec(spec_path, easy_spec())
        monkeypatch.setenv("PELICAL_SEED", "-1")
        argv = [command, "--spec", str(spec_path), "--output", out]
        if command == "sweep":
            argv += ["--rotations", "20", "--baselines", "0.3"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: PELICAL_SEED: rng_seed must be non-negative\n"

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_spec_never_tracebacks(self, data):
        doc = data.draw(fuzzed_spec(rig_spec_to_dict(easy_spec(n_lines=6))))
        code, err, runtime = run_fuzzed({"spec": doc}, lambda paths, tmp: [
            "simulate", "--spec", str(paths["spec"]), "--output", str(tmp / "o.json")])
        assert_clean_exit(code, err)
        assert runtime == []

    def test_missing_spec_file_exits_1(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--spec",
                str(tmp_path / "nope.json"),
                "--output",
                str(tmp_path / "o.json"),
            ]
        )
        assert code == 1
        assert "cannot read" in capsys.readouterr().err


class TestCalibrate:
    def test_simulate_then_calibrate_recovers_truth(self, tmp_path):
        spec = easy_spec()
        spec_path, obs_path, calib_path = (
            tmp_path / "rig.json",
            tmp_path / "obs.json",
            tmp_path / "calib.json",
        )
        write_spec(spec_path, spec)
        assert main(["simulate", "--spec", str(spec_path), "--output", str(obs_path)]) == 0
        code = main(["calibrate", "--input", str(obs_path), "--output", str(calib_path)])
        assert code == 0
        out = read_calibration_file(calib_path)
        assert out["termination"] == "converged"
        rot_deg, trans_mm = pose_errors(out["extrinsics"], spec.truth)
        assert rot_deg < 1e-4
        assert trans_mm < 1e-2

    def test_truncated_input_exits_1_with_offset(self, tmp_path, capsys):
        obs_path = tmp_path / "obs.json"
        obs_path.write_text('{"target_intrinsics": {"fx": 600.0,')
        code = main(
            ["calibrate", "--input", str(obs_path), "--output", str(tmp_path / "c.json")]
        )
        assert code == 1
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe", "invalid UTF-8 at byte offset 0: invalid start byte"),
            (b"[" * 200_000 + b"]" * 200_000, "invalid JSON: nested too deeply"),
        ],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_unparsable_input_exits_1(self, tmp_path, capsys, content, message):
        obs_path = tmp_path / "obs.json"
        obs_path.write_bytes(content)
        code = main(
            ["calibrate", "--input", str(obs_path), "--output", str(tmp_path / "c.json")]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {obs_path}: {message}\n"

    def test_structureless_stream_exits_2_aborted(self, tmp_path, rng):
        # clouds with no dominant line direction never pass the inlier-ratio
        # screen, so nothing is stored and the run aborts
        observations = []
        for i in range(6):
            blob = rng.normal(scale=0.5, size=(40, 3)) + np.array([0.0, 0.0, 3.0])
            observations.append(
                LineObservation(
                    obs_id=i,
                    source_samples=blob,
                    target_samples=blob + np.array([0.1, 0.0, 0.0]),
                    source_2d=Line2D.from_endpoints(
                        np.array([10.0, 10.0]), np.array([100.0, 80.0])
                    ),
                    target_2d=Line2D.from_endpoints(
                        np.array([20.0, 15.0]), np.array([110.0, 90.0])
                    ),
                )
            )
        obs_path, calib_path = tmp_path / "obs.json", tmp_path / "calib.json"
        write_observation_file(obs_path, DEFAULT_K, DEFAULT_K, observations)
        code = main(["calibrate", "--input", str(obs_path), "--output", str(calib_path)])
        assert code == 2
        out = read_calibration_file(calib_path)
        assert out["termination"] == "aborted"
        assert out["accepted_pairs"] == 0

    def test_config_precedence(self, tmp_path, monkeypatch):
        # defaults < flags < --config file < PELICAL_SEED
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, {"rng_seed": 7, "cost_threshold": 11.0})
        args = argparse.Namespace(
            rng_seed=3, cost_threshold=5.0, config=str(cfg_path),
            epsilon_d_m=None, max_pairs=None, inlier_ratio_threshold=None,
        )
        cfg = _pipeline_config(args)
        assert cfg.rng_seed == 7 and cfg.cost_threshold == 11.0
        monkeypatch.setenv("PELICAL_SEED", "11")
        cfg = _pipeline_config(args)
        assert cfg.rng_seed == 11 and cfg.cost_threshold == 11.0
        args.config = None
        cfg = _pipeline_config(args)
        assert cfg.rng_seed == 11 and cfg.cost_threshold == 5.0
        monkeypatch.delenv("PELICAL_SEED")
        cfg = _pipeline_config(args)
        assert cfg.rng_seed == 3 and cfg.cost_threshold == 5.0

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"cost_threshold": "2"}, "cost_threshold must be a number, got '2'"),
            ({"epsilon_d_m": -1}, "epsilon_d_m must be positive"),
            ({"max_pairs": 10**20}, f"max_pairs must lie in [1, {sys.maxsize}]"),
        ],
    )
    def test_bad_config_field_exits_1(self, tmp_path, capsys, config, message):
        obs_path, cfg_path = observation_file(tmp_path), tmp_path / "cfg.json"
        write_json(cfg_path, config)
        code = main(["calibrate", "--input", str(obs_path), "--output",
                     str(tmp_path / "c.json"), "--config", str(cfg_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"rotation_gate_slack": 1e-10}, "rotation_gate_slack"),
            ({"rotation_gate_growth": 1.0}, "rotation_gate_growth"),
            ({"eviction_factor": 0.5}, "eviction_factor"),
            ({"solver": {"oracle_grid_halfwidth": 2.0}}, "solver"),
            ({"solver": {"oracle_grid_step": 0.05}}, "solver"),
            ({"ransac": {"iterations": 0}}, "ransac"),
            ({"solver": {"max_lm_iterations": 0}}, "solver"),
            ({"vote_min_count": 4}, "vote_min_count"),
            ({"vote_fraction": "0.5"}, "vote_fraction"),
        ],
    )
    def test_removed_config_key_exits_1(self, tmp_path, capsys, config, key):
        obs_path, cfg_path = observation_file(tmp_path), tmp_path / "cfg.json"
        write_json(cfg_path, config)
        code = main(["calibrate", "--input", str(obs_path), "--output",
                     str(tmp_path / "c.json"), "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: ") and err.count("\n") == 1
        assert f"'{key}'" in err

    def test_bad_flag_or_env_seed_exits_1(self, tmp_path, capsys, monkeypatch):
        argv = ["calibrate", "--input", str(observation_file(tmp_path)),
                "--output", str(tmp_path / "c.json")]
        assert main(argv + ["--epsilon-d", "0"]) == 1
        assert capsys.readouterr().err == "error: command line: epsilon_d_m must be positive\n"
        monkeypatch.setenv("PELICAL_SEED", "-1")
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: PELICAL_SEED: rng_seed must be non-negative\n"

    @pytest.mark.parametrize("command", ["calibrate", "sweep"])
    def test_huge_max_pairs_flag_exits_1(self, tmp_path, capsys, command):
        # a cap above sys.maxsize once reached itertools.islice, which raised
        # a ValueError that ended in a traceback
        spec_path = tmp_path / "rig.json"
        write_spec(spec_path, easy_spec())
        files = {
            "calibrate": ["--input", str(observation_file(tmp_path))],
            "sweep": ["--spec", str(spec_path), "--rotations", "20", "--baselines", "0.3"],
        }[command]
        out = tmp_path / "out"
        argv = [command, *files, "--output", str(out), "--max-pairs", str(10**20)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: command line: max_pairs must lie in [1, {sys.maxsize}]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("target_intrinsics", "fx"), 1e300,
             "target_intrinsics: fx must be at most 1e+06 in magnitude"),
            (("observations", 0, "source_samples", 0), [1e300, 0.0, 0.0],
             "observations[0].source_samples[0]: magnitude exceeds 1e+06"),
            (("observations", 3, "target_2d", "endpoints", 1), [-2e6, 0.0],
             "observations[3].target_2d.endpoints[1]: magnitude exceeds 1e+06"),
        ],
        ids=["fx", "sample", "endpoint"],
    )
    def test_absurd_magnitude_exits_1(self, tmp_path, capsys, path, value, message):
        # finite values this large overflow the solver's products, so the
        # reader (or the record it builds) must reject them and name the field
        assert calibrate_edited(tmp_path, path, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("target_intrinsics", "width"), 640.9,
             "target_intrinsics: width must be an integer, got 640.9"),
            (("source_intrinsics", "height"), 480.5,
             "source_intrinsics: height must be an integer, got 480.5"),
            (("observations", 0, "id"), 1.5, "observations[0].id: expected an integer"),
        ],
        ids=["width", "height", "id"],
    )
    def test_fractional_integer_exits_1(self, tmp_path, capsys, path, value, message):
        # these were once truncated by int(), and the run exited 0
        assert calibrate_edited(tmp_path, path, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("count, code", [(10_000, 0), (10_001, 1)])
    def test_sample_count_is_bounded(self, tmp_path, capsys, count, code):
        # the line fit's memory grows with the samples, so a file may hold
        # no more per camera than the simulator writes
        entry = json.loads(base_documents())["observations"]["observations"][0]
        a, b = np.array(entry["source_samples"])[[0, -1]]
        dense = (a + np.linspace(0.0, 1.0, count)[:, None] * (b - a)).tolist()
        assert calibrate_edited(tmp_path, ("observations", 0, "source_samples"), dense) == code
        assert capsys.readouterr().err == ("" if code == 0 else (
            "error: observations[0].source_samples: expected at most 10000 points\n"))

    def test_whole_float_integer_is_read(self, tmp_path):
        assert calibrate_edited(tmp_path, ("target_intrinsics", "width"), 640.0) == 0

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fuzzed_config_and_observations_never_traceback(self, data):
        base = json.loads(base_documents())
        which = data.draw(st.sampled_from(("config", "observations", "both")))
        docs = {
            name: data.draw(mutated(doc)) if which in (name, "both") else doc
            for name, doc in base.items()
        }
        code, err, runtime = run_fuzzed(docs, lambda paths, tmp: [
            "calibrate", "--input", str(paths["observations"]), "--output",
            str(tmp / "c.json"), "--config", str(paths["config"])])
        # A mutation may leave a valid document (a dropped config key keeps
        # its default), so a run may still converge.
        assert_clean_exit(code, err)
        assert runtime == []


class TestSweep:
    def test_grid_shape_and_determinism(self, tmp_path):
        spec_path = tmp_path / "rig.json"
        write_spec(spec_path, easy_spec())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "sweep",
            "--spec",
            str(spec_path),
            "--rotations",
            "10,20",
            "--baselines",
            "0.2,0.3",
            "--seeds",
            "1",
        ]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 4
        assert all(line.endswith("true") for line in lines[1:])

    def test_no_convergence_exits_2(self, tmp_path):
        spec_path = tmp_path / "rig.json"
        write_spec(spec_path, easy_spec(scene_depth_m=(0.8, 1.0)))
        code = main(
            [
                "sweep",
                "--spec",
                str(spec_path),
                "--rotations",
                "170",
                "--baselines",
                "500",
                "--output",
                str(tmp_path / "out.csv"),
            ]
        )
        assert code == 2

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_spec_never_tracebacks(self, data):
        doc = data.draw(fuzzed_spec(rig_spec_to_dict(easy_spec(n_lines=6))))
        code, err, runtime = run_fuzzed({"spec": doc}, lambda paths, tmp: [
            "sweep", "--spec", str(paths["spec"]), "--rotations", "20",
            "--baselines", "0.3", "--output", str(tmp / "sweep.csv")])
        assert_clean_exit(code, err)
        assert runtime == []


class TestEvaluatePlanes:
    @staticmethod
    def board_metrics(tmp_path, rng, *flags) -> dict:
        """``evaluate-planes`` metrics of a wall seen through the true
        transform, with checkerboard corners 6 squares of 108 mm apart."""
        truth = Extrinsics(rotation_about_y(10.0), np.array([0.2, 0.0, 0.0]))
        # wall z = 1.5 in the target frame
        uv = rng.uniform(-0.5, 0.5, size=(60, 2))
        target_points = np.column_stack([uv, np.full(60, 1.5)])
        target_corners = np.array([[0.0, 0.0, 1.5], [0.648, 0.0, 1.5]])
        inv = truth.inverse()
        data = {
            "target_points": target_points.tolist(),
            "source_points": inv.transform_points(target_points).tolist(),
            "target_corners": target_corners.tolist(),
            "source_corners": inv.transform_points(target_corners).tolist(),
            "squares_per_row": 6,
        }
        input_path, out_path = tmp_path / "planes.json", tmp_path / "metrics.json"
        write_json(input_path, data)
        calib_path = tmp_path / "calib.json"
        write_json(
            calib_path,
            {
                "rotation": truth.rotation.tolist(),
                "translation_m": truth.translation.tolist(),
                "termination": "converged",
            },
        )
        code = main(
            [
                "evaluate-planes",
                "--input",
                str(input_path),
                "--transform",
                str(calib_path),
                "--output",
                str(out_path),
                *flags,
            ]
        )
        assert code == 0
        return json.loads(out_path.read_text())

    def test_merged_plane_metrics(self, tmp_path, rng):
        metrics = self.board_metrics(tmp_path, rng)
        assert abs(metrics["offset_gap_mm"]) < 1e-6
        assert abs(metrics["normal_angle_deg"]) < 1e-6
        assert abs(metrics["square_size_error_mm"]) < 1e-6

    def test_square_mm_sets_the_true_edge(self, tmp_path, rng):
        metrics = self.board_metrics(tmp_path, rng, "--square-mm", "100")
        assert abs(metrics["square_size_error_mm"] - 8.0) < 1e-6

    def test_missing_point_list_exits_1(self, tmp_path, capsys):
        input_path, calib_path = tmp_path / "planes.json", tmp_path / "calib.json"
        write_json(input_path, {"target_points": [[0, 0, 1]]})
        write_json(
            calib_path,
            {
                "rotation": np.eye(3).tolist(),
                "translation_m": [0.0, 0.0, 0.0],
                "termination": "converged",
            },
        )
        code = main(
            [
                "evaluate-planes",
                "--input",
                str(input_path),
                "--transform",
                str(calib_path),
                "--output",
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 1
        assert "source_points" in capsys.readouterr().err

    @pytest.mark.parametrize("root", [[1, 2], "abc"], ids=["list", "string"])
    def test_non_object_transform_exits_1(self, tmp_path, capsys, root):
        input_path, calib_path = tmp_path / "planes.json", tmp_path / "calib.json"
        write_json(input_path, {"target_points": [[0, 0, 1]] * 3,
                                "source_points": [[0, 0, 1]] * 3})
        write_json(calib_path, root)
        code = main(["evaluate-planes", "--input", str(input_path), "--transform",
                     str(calib_path), "--output", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {calib_path}: expected a JSON object\n"

    @pytest.mark.parametrize(
        "field, value, where",
        [("translation_m", [-1e300, 0.0, 0.0], "translation_m"),
         ("rotation", [[1e300, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "rotation[0]")],
        ids=["translation", "rotation"],
    )
    def test_huge_transform_exits_1(self, tmp_path, capsys, field, value, where):
        # a translation of 1e300 once overflowed in the metrics with a
        # RuntimeWarning (found by test_fuzzed_plane_documents_never_traceback)
        docs = plane_documents()
        docs["transform"][field] = value
        code, err, runtime = run_fuzzed(docs, lambda paths, tmp: [
            "evaluate-planes", "--input", str(paths["input"]), "--transform",
            str(paths["transform"]), "--output", str(tmp / "m.json")])
        assert (code, err, runtime) == (1, f"error: {where}: magnitude exceeds 1e+06\n", [])


class TestPoseErrors:
    def test_step_error_table(self, tmp_path):
        rot_poses = [
            extrinsics_to_dict(Extrinsics(rotation_about_y(a), np.zeros(3)))
            for a in (0.0, 20.0, 40.0)
        ]
        trans_poses = [
            extrinsics_to_dict(Extrinsics(np.eye(3), np.array([x, 0.0, 0.0])))
            for x in (0.0, 0.05, 0.10)
        ]
        doc = {
            "groups": [
                {"name": "yaw", "vary": "rotation", "poses": rot_poses},
                {"name": "slide", "vary": "translation", "poses": trans_poses},
            ]
        }
        input_path, out_path = tmp_path / "poses.json", tmp_path / "errors.csv"
        write_json(input_path, doc)
        code = main(
            ["pose-errors", "--input", str(input_path), "--output", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "group,vary,step_index,error"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            assert float(line.split(",")[-1]) < 1e-9

    def test_group_name_is_csv_quoted(self, tmp_path):
        name = "left,cam\nx"
        poses = [
            extrinsics_to_dict(Extrinsics(rotation_about_y(a), np.zeros(3))) for a in (0.0, 20.0)
        ]
        input_path, out_path = tmp_path / "poses.json", tmp_path / "errors.csv"
        write_json(input_path, {"groups": [{"name": name, "vary": "rotation", "poses": poses}]})
        code = main(["pose-errors", "--input", str(input_path), "--output", str(out_path)])
        assert code == 0
        with open(out_path, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["group", "vary", "step_index", "error"]
        assert [row[:3] for row in table[1:]] == [[name, "rotation", "0"]]

    def test_unknown_vary_exits_1(self, tmp_path, capsys):
        doc = {"groups": [{"name": "g", "vary": "scale", "poses": []}]}
        input_path = tmp_path / "poses.json"
        write_json(input_path, doc)
        code = main(
            [
                "pose-errors",
                "--input",
                str(input_path),
                "--output",
                str(tmp_path / "e.csv"),
            ]
        )
        assert code == 1
        assert "scale" in capsys.readouterr().err


def board_points(n: int = 10) -> list:
    rng = np.random.default_rng(0)
    return np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), np.full(n, 1.5)]).tolist()


BOARD = {"target_points": board_points(), "source_points": board_points()}
CORNERS = {"target_corners": board_points(2), "source_corners": board_points(2)}
#: The calibration file of ``evaluate-planes`` unless a document names its own.
TRANSFORM = {"rotation": np.eye(3).tolist(), "translation_m": [0.0, 0.0, 0.0],
             "termination": "converged"}


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("evaluate-planes", {**BOARD, "target_points": board_points(9) + [[1, 2, "x"]]},
         "target_points[9]"),
        ("evaluate-planes", {**BOARD, "target_points": board_points(9) + [[1, 2]]},
         "target_points[9]"),
        ("evaluate-planes", {**BOARD, "target_points": [1, 2, 3]}, "target_points[0]"),
        ("evaluate-planes", {**BOARD, "source_points": board_points(9) + [[1, 2, float("nan")]]},
         "source_points[9]"),
        ("evaluate-planes", {**BOARD, "source_points": board_points(2)}, "source_points"),
        ("evaluate-planes", {**BOARD, **CORNERS, "squares_per_row": "x"}, "squares_per_row"),
        ("evaluate-planes", {**BOARD, **CORNERS, "squares_per_row": 2.5},
         "squares_per_row: expected an integer"),
        ("evaluate-planes", {**BOARD, **CORNERS, "target_corners": board_points(3),
                             "squares_per_row": 6}, "target_corners"),
        ("pose-errors", {"groups": [{"name": "g", "vary": "rotation", "poses": []}]}, "groups[0]"),
        ("pose-errors", {"groups": [{"name": "g", "poses": 5}]}, "groups[0]"),
        ("evaluate-planes", {**BOARD, "source_points": board_points(9) + [[1e300, 2, 3]]},
         "source_points[9]: magnitude exceeds 1e+06"),
        ("pose-errors", {"groups": [{"name": "g", "poses": [
            {"rotation": np.eye(3).tolist(), "translation_m": [0.0, 1e300, 0.0]}] * 2}]},
         "groups[0].poses[0].translation_m: magnitude exceeds 1e+06"),
        ("evaluate-planes", {**BOARD, **CORNERS, "squares_per_row": 0},
         "squares_per_row: expected a positive integer"),
        ("evaluate-planes", {**BOARD, **CORNERS, "source_corners": [[0.0, 0.0, 1.5], [1.0]]},
         "source_corners[1]: expected a list of 3 numbers"),
        ("evaluate-planes",
         {**BOARD, "transform": {**TRANSFORM, "translation_m": [0.0, float("nan"), 0.0]}},
         "translation_m: expected a finite number"),
        ("evaluate-planes", {**BOARD, "transform": {**TRANSFORM, "rotation": [[1.0, 0.0, 0.0]]}},
         "rotation: expected 3 rows"),
        ("pose-errors", {"groups": [{"name": "g", "poses": [
            {"rotation": np.eye(3).tolist(), "translation_m": [0.0, 0.0]}] * 2}]},
         "groups[0].poses[0].translation_m: expected a list of 3 numbers"),
    ],
    ids=["string-coordinate", "ragged-point", "flat-list", "nan-point", "two-point-plane",
         "string-squares", "fractional-squares", "three-corners", "no-poses", "poses-not-a-list",
         "huge-point", "huge-translation", "zero-squares", "two-value-corner",
         "nan-calibration-translation", "two-row-calibration-rotation", "two-value-translation"],
)
def test_bad_plane_or_pose_input_exits_1(tmp_path, capsys, command, doc, field):
    input_path, calib_path = tmp_path / "input.json", tmp_path / "calib.json"
    doc = dict(doc)
    # json.dumps keeps NaN as a literal
    calib_path.write_text(json.dumps(doc.pop("transform", TRANSFORM)))
    input_path.write_text(json.dumps(doc))
    argv = [command, "--input", str(input_path), "--output", str(tmp_path / "out")]
    if command == "evaluate-planes":
        argv += ["--transform", str(calib_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and err.count("\n") == 1


def plane_documents() -> dict:
    """Valid ``evaluate-planes`` documents: a plane input with corners and a
    calibration file."""
    T = Extrinsics(rotation_about_y(10.0), np.array([0.2, 0.0, 0.0]))
    return {
        "input": {**BOARD, **CORNERS, "squares_per_row": 6},
        "transform": {**extrinsics_to_dict(T), "termination": "converged"},
    }


def pose_document() -> dict:
    """A valid ``pose-errors`` document with a rotation and a translation series."""
    return {"groups": [
        {"name": "yaw", "vary": "rotation", "poses": [
            extrinsics_to_dict(Extrinsics(rotation_about_y(a), np.zeros(3))) for a in (0, 20, 40)]},
        {"name": "slide", "vary": "translation", "poses": [
            extrinsics_to_dict(Extrinsics(np.eye(3), np.array([x, 0.0, 0.0])))
            for x in (0.0, 0.05)]},
    ]}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_plane_documents_never_traceback(data):
    which = data.draw(st.sampled_from(("input", "transform", "both")))
    docs = {
        name: data.draw(mutated(doc)) if which in (name, "both") else doc
        for name, doc in plane_documents().items()
    }
    code, err, runtime = run_fuzzed(docs, lambda paths, tmp: [
        "evaluate-planes", "--input", str(paths["input"]), "--transform",
        str(paths["transform"]), "--output", str(tmp / "m.json")])
    assert_clean_exit(code, err)
    assert runtime == []


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_pose_document_never_tracebacks(data):
    doc = data.draw(mutated(pose_document()))
    code, err, runtime = run_fuzzed({"poses": doc}, lambda paths, tmp: [
        "pose-errors", "--input", str(paths["poses"]), "--output", str(tmp / "e.csv")])
    assert_clean_exit(code, err)
    assert runtime == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--rotations", "nan", "--baselines", "0.3"],
         "--rotations: expected a finite number"),
        (["sweep", "--rotations", "20", "--baselines", "0.3,inf"],
         "--baselines: expected a finite number"),
        (["sweep", "--rotations", "20", "--baselines", "1e300"],
         "--baselines: magnitude exceeds 1e+06"),
        (["sweep", "--rotations", "", "--baselines", "0.3"],
         "--rotations: expected at least one number"),
        (["sweep", "--rotations", "20", "--baselines", ","],
         "--baselines: expected at least one number"),
        (["sweep", "--rotations", "20", "--baselines", "0.3", "--seeds", "-2"],
         "--seeds: must be at least 1, got -2"),
        (["sweep", "--rotations", "20", "--baselines", "0.3", "--seeds", "0"],
         "--seeds: must be at least 1, got 0"),
        (["pose-errors", "--step-rot-deg", "nan"], "--step-rot-deg: expected a finite number"),
        (["pose-errors", "--step-trans-cm=-inf"], "--step-trans-cm: expected a finite number"),
        (["evaluate-planes", "--square-mm", "nan"], "--square-mm: expected a finite number"),
        (["evaluate-planes", "--square-mm", "-5"], "--square-mm: must be positive"),
    ],
    ids=["nan-rotation", "inf-baseline", "huge-baseline", "empty-rotations", "comma-baselines",
         "negative-seeds", "zero-seeds",
         "nan-step-rot", "inf-step-trans", "nan-square", "negative-square"],
)
def test_bad_numeric_flag_exits_1(tmp_path, capsys, argv, message):
    # these once printed RuntimeWarnings and wrote NaN rows, or a header-only
    # table (also for an empty list), or nan / null errors, and exited 0 or 2
    command, out = argv[0], tmp_path / "out"
    spec_path, input_path, calib_path = (tmp_path / f"{n}.json" for n in ("rig", "in", "calib"))
    write_spec(spec_path, easy_spec())
    planes = plane_documents()
    write_json(input_path, planes["input"] if command == "evaluate-planes" else pose_document())
    write_json(calib_path, planes["transform"])
    files = {
        "sweep": ["--spec", str(spec_path)],
        "pose-errors": ["--input", str(input_path)],
        "evaluate-planes": ["--input", str(input_path), "--transform", str(calib_path)],
    }[command]
    assert main([*argv, *files, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["calibrate", "--output", "x.json"], "the following arguments are required: --input"),
        (["sweep", "--spec", "rig.json", "--rotations", "20", "--baselines", "0.3",
          "--seeds", "x", "--output", "out.csv"], "argument --seeds: invalid int value: 'x'"),
        (["pose-errors", "--input", "poses.json", "--output", "out.csv",
          "--step-trans-cm", "-inf"], "argument --step-trans-cm: expected one argument"),
    ],
    ids=["missing-input", "non-integer-seeds", "flag-read-as-option"],
)
def test_usage_error_exits_1(capsys, argv, message):
    # argparse exits 2 here, the code of a run that did not converge
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["calibrate", "sweep"])
def test_every_config_field_has_a_flag(command):
    # _pipeline_config reads each PipelineConfig field from the flag that
    # stores under its name, so each field needs one
    required = {"calibrate": ["--input", "i", "--output", "o"],
                "sweep": ["--spec", "s", "--rotations", "0", "--baselines", "0",
                          "--output", "o"]}[command]
    dests = vars(build_parser().parse_args([command, *required]))
    assert {f.name for f in dataclasses.fields(PipelineConfig)} <= dests.keys()


@pytest.mark.parametrize("argv", [["-h"], ["sweep", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pelical")


ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> list[str]:
    """The import names of ``[project] dependencies`` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"])
    return sorted(name.lower().replace("-", "_") for name in names)


class TestConsoleScript:
    def test_import_loads_no_scipy(self):
        # The package depends on numpy and orjson only: scipy is a test
        # dependency, and no other new import may slip in.
        # Modules that site loads at start-up (.pth hooks) are not pelical's,
        # and the platform's _sysconfigdata_* module (which orjson's import
        # of uuid loads) is standard library but not in stdlib_module_names.
        package_root = Path(pelical.__file__).resolve().parents[1]
        code = ("import sys; before = set(sys.modules); import pelical, pelical.cli; "
                "print(sorted({m.split('.')[0] for m in set(sys.modules) - before"
                " if not m.startswith('_sysconfigdata_')}"
                " - set(sys.stdlib_module_names) - {'pelical'}))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['numpy', 'orjson']\n"

    def test_every_import_is_declared(self):
        # Also the imports that run only inside a function: each names the
        # standard library, pelical itself or a declared dependency.
        allowed = set(sys.stdlib_module_names) | {"pelical", *declared_dependencies()}
        for path in sorted((ROOT / "src" / "pelical").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno}: {name}"

    def test_module_entry_point(self, tmp_path, monkeypatch):
        spec_path, obs_path = tmp_path / "rig.json", tmp_path / "obs.json"
        write_spec(spec_path, easy_spec())
        # The child gets a minimal environment, so a stray PELICAL_SEED in the
        # caller's shell cannot leak in; PYTHONPATH names the directory of the
        # imported package, so the child runs the same pelical, installed or not.
        package_root = Path(pelical.__file__).resolve().parents[1]
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pelical.cli",
                "simulate",
                "--spec",
                str(spec_path),
                "--output",
                str(obs_path),
            ],
            capture_output=True,
            text=True,
            env={
                "PATH": "/usr/bin:/bin",
                "PELICAL_SEED": "3",
                "PYTHONPATH": str(package_root),
            },
        )
        assert proc.returncode == 0, proc.stderr
        in_process = tmp_path / "in_process.json"
        monkeypatch.setenv("PELICAL_SEED", "3")
        assert main(["simulate", "--spec", str(spec_path), "--output", str(in_process)]) == 0
        assert obs_path.read_bytes() == in_process.read_bytes()
