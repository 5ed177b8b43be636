"""Pinned SHA-256 digests of the files every subcommand writes.

The other determinism tests compare two runs of the same version.  These
compare against recorded digests (CHANGES.md lists each recording), so a
rewrite that moves one byte of an observation, truth or sweep file fails
here.  The three rigs take the simulator through
its outlier, PnL and axial-noise branches; the 80° yaw one also through the
penetrating-segment fallback.  The calibration digests pin a converged mixed
stream, a converged PnL-heavy one, one whose vote never carries, so it
ends after the stream, and one that converges only after a converged vote
with a poor cost evicted a pair; two PnL-heavy streams add a converged
vote of two FULL3D and two PnL pairs, which the closed-form solve could not
take, and the trace's notes on attempts under a rotation the gate cannot
yet determine, followed by failed votes that evict.  Next
to their bytes, each pins a digest of what the run decided (termination,
accepted pairs, voting inliers and the trace without its float digits),
so a change that moves only round-off
shows as a byte change with the same decisions.  The `pose-errors` table
holds a group name that CSV must quote, and the `evaluate-planes` metrics
come from a transform a little off the truth, so none of them is zero.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from pelical import Extrinsics, RigSpec, generate, rotation_about_y
from pelical.cli import main
from pelical.fileio import (
    extrinsics_to_dict,
    rig_spec_to_dict,
    write_json,
    write_observation_file,
)

from helpers import DEFAULT_K


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("PELICAL_SEED", raising=False)


def rig(yaw_deg: float, baseline_m: float = 0.3, **overrides) -> RigSpec:
    fields = dict(
        truth=Extrinsics(rotation_about_y(yaw_deg), np.array([baseline_m, 0.0, 0.0])),
        target_intrinsics=DEFAULT_K,
        source_intrinsics=DEFAULT_K,
        n_lines=16,
        pixel_noise_sigma=0.5,
        depth_noise_sigma=0.003,
        rng_seed=7,
    )
    fields.update(overrides)
    return RigSpec(**fields)


def sha256(*paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def decision_digest(path) -> str:
    """SHA-256 of what a calibration file decided: termination, accepted
    pairs, voting inliers and every trace entry without its float digits
    (``d_so3`` and ``mean_cost``)."""
    doc = json.loads(path.read_text())
    decisions = {
        "termination": doc["termination"],
        "accepted_pairs": doc["accepted_pairs"],
        "voting_inlier_ids": doc["voting_inlier_ids"],
        "trace": [
            {k: v for k, v in entry.items() if k not in ("d_so3", "mean_cost")}
            for entry in doc["trace"]
        ],
    }
    return hashlib.sha256(json.dumps(decisions, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            rig(20.0, outlier_fraction=0.2, pnl_fraction=0.25),
            "42667a9b2bbc05f760b32f0b57b2d396ae069c4b08033b0bcec5919ac7c1ea1f",
        ),
        (
            rig(80.0, 0.45),
            "34f7756c8d7ad50d381bdeb04297ffe89aca80a13654690edf7bae0cf61aa727",
        ),
        (
            rig(20.0, depth_noise_sigma=0.001, depth_noise_model="axial_z2"),
            "0b82c77d06dc4efcfd0493b16e49c196f2a750e2230e79611bdd826191c2f57b",
        ),
    ],
    ids=["mixed-yaw20", "penetrating-yaw80", "axial-noise"],
)
def test_simulate_bytes_are_pinned(tmp_path, spec, expected):
    spec_path, obs, truth = (tmp_path / f"{n}.json" for n in ("rig", "obs", "truth"))
    write_json(spec_path, rig_spec_to_dict(spec))
    argv = ["simulate", "--spec", str(spec_path), "--output", str(obs), "--truth", str(truth)]
    assert main(argv) == 0
    assert sha256(obs, truth) == expected


@pytest.mark.parametrize(
    "spec, flags, expected, decisions",
    [
        (
            rig(20.0, outlier_fraction=0.2, pnl_fraction=0.25),
            [],
            "75c445afa34151ce7142390a9b522759198198699658b1df7c3009864c00a8b9",
            "74c20392fab93f16f04545ed58aac78d7b9dadae343ea67ce6bae88263c3447c",
        ),
        (
            rig(20.0, pnl_fraction=0.6),
            [],
            "7a899992bfedae8c777198b54ac3acd2fd47835acadb5a87a8975229eceb35a2",
            "16432c47e5743fa6a22b0facaa77839148ba733d1af3285fcb1ec07660d0a630",
        ),
        (
            # recorded once the end of the stream stopped repeating the last
            # attempt, whose trace entry the parent digest still held
            rig(20.0, n_lines=20),
            ["--epsilon-d", "1e-5"],
            "ad5113196cc9dcf54bcd486de86eba3fd8f547a967c7a0de42322493996c51fa",
            "5fc2e179ecf283ec719434652acc01f3f13e145c34ce9b787f70edcac51e3635",
        ),
        (
            # a converged vote at mean cost 114 evicts a pair; the next
            # attempt converges
            rig(20.0, outlier_fraction=0.4, rng_seed=12),
            [],
            "0dd62155484da8195c1b2cde215ccc85173a7ff16f88258be160bcda6561098a",
            "eb981d431542f58200f661f79aca75af8825c2c24688eb2422e50cf66a3d2b6d",
        ),
        (
            # a converged vote of 2 FULL3D and 2 PnL pairs, a set the
            # closed-form solve fails at its sanity floor, refines and
            # converges
            rig(20.0, n_lines=60, pnl_fraction=0.75, rng_seed=1013),
            [],
            "948181c4d394a4f6272dbbc6896d27f97f42db42c835f11b8bcdc1b896ea2728",
            "2a07dab61647ca0852da35d254ef4253e54d1c187be87fba10d0490c25356798",
        ),
        (
            # four attempts under an undetermined rotation, then failed
            # votes that evict pairs
            rig(20.0, n_lines=60, pnl_fraction=0.75, rng_seed=1018),
            [],
            "98f8e0bdfafe5266a7bfbde99698fc46bd527363445129db82d741af03e15893",
            "e4f535d3116994b1a6b9f08e61b739bd0629c5290c9df88e00d95ffbfdcafc48",
        ),
    ],
    ids=["converged-mixed", "converged-pnl", "end-of-stream", "cost-eviction",
         "two-plus-two-vote-converges", "undetermined-notes-and-evictions"],
)
def test_calibrate_bytes_are_pinned(tmp_path, spec, flags, expected, decisions):
    obs, calib = tmp_path / "obs.json", tmp_path / "calib.json"
    write_observation_file(obs, DEFAULT_K, DEFAULT_K, generate(spec)[0])
    argv = ["calibrate", "--input", str(obs), "--output", str(calib),
            "--cost-threshold", "30", *flags]
    assert main(argv) == (2 if flags else 0)
    assert decision_digest(calib) == decisions
    assert sha256(calib) == expected


def test_sweep_csv_bytes_are_pinned(tmp_path):
    spec_path, table = tmp_path / "rig.json", tmp_path / "sweep.csv"
    write_json(spec_path, rig_spec_to_dict(rig(20.0, n_lines=12, pnl_fraction=0.25)))
    argv = ["sweep", "--spec", str(spec_path), "--rotations", "10,40",
            "--baselines", "0.2,0.3", "--seeds", "2", "--cost-threshold", "30",
            "--output", str(table)]
    assert main(argv) == 0
    assert len(table.read_text().splitlines()) == 1 + 2 * 2 * 2
    assert sha256(table) == "8c8e4766d6edf06896bb0f72ccff0f61713190b7038790dbbfd41a9b812bd3ac"


def test_pose_errors_csv_bytes_are_pinned(tmp_path):
    # "left, wide" holds the delimiter, so the writer must quote it
    def poses(vary, steps):
        return [
            extrinsics_to_dict(
                Extrinsics(rotation_about_y(s), np.zeros(3)) if vary == "rotation"
                else Extrinsics(np.eye(3), np.array([s, 0.01 * s, 0.0]))
            )
            for s in steps
        ]

    doc = {"groups": [
        {"name": "left, wide", "vary": "rotation", "poses": poses("rotation", (0, 19.5, 41))},
        {"name": "slide", "vary": "translation", "poses": poses("translation", (0, 0.051, 0.1))},
    ]}
    poses_path, table = tmp_path / "poses.json", tmp_path / "errors.csv"
    write_json(poses_path, doc)
    assert main(["pose-errors", "--input", str(poses_path), "--output", str(table)]) == 0
    assert table.read_text().splitlines()[1].startswith('"left, wide",rotation,0,')
    assert sha256(table) == "1a284166f80b96e0698eadb5e8d10e3d2279aedd853a00fce45487f4703b0ac9"


def test_evaluate_planes_json_bytes_are_pinned(tmp_path):
    truth = Extrinsics(rotation_about_y(10.0), np.array([0.2, 0.0, 0.0]))
    rng = np.random.default_rng(3)
    target = np.column_stack([rng.uniform(-0.5, 0.5, (40, 2)), rng.normal(1.5, 0.002, 40)])
    corners = np.array([[0.0, 0.0, 1.5], [0.65, 0.001, 1.5]])
    off = Extrinsics(rotation_about_y(10.5), np.array([0.203, 0.0, 0.0])).inverse()
    planes = {
        "target_points": target.tolist(),
        "source_points": off.transform_points(target).tolist(),
        "target_corners": corners.tolist(),
        "source_corners": off.transform_points(corners).tolist(),
        "squares_per_row": 6,
    }
    planes_path, calib, out = (tmp_path / f"{n}.json" for n in ("planes", "calib", "metrics"))
    write_json(planes_path, planes)
    write_json(calib, {**extrinsics_to_dict(truth), "termination": "converged"})
    argv = ["evaluate-planes", "--input", str(planes_path), "--transform", str(calib),
            "--output", str(out)]
    assert main(argv) == 0
    assert sha256(out) == "5c6188a963f150f735812663c41e1d8d165d6929e1a7ab5e5560f11847be537e"
