"""The scoreboard: converged and wrong runs on fixed cells of streams.

A run is wrong when it converges more than 0.5 deg or 15 mm from the truth
(acceptance criterion 2's bounds, applied to each run).  Each cell asserts
that it converges at least, and is wrong at most, as often as when its
bounds were measured, so a change that adds wrong runs fails here even when
the medians of the acceptance criteria hold.  The cells are the robustness
envelope of the benchmark rig (600 px intrinsics at 640x480, 20 deg yaw,
0.30 m baseline, 0.5 px / 3 mm noise, 60 lines, ``cost_threshold=30``):
20, 40, 50 and 60 % outliers, and 75 % PnL pairs, seeds 1001-1030; two
wide-yaw cells of the rig's mixed mix (20 % outliers, 25 % PnL), seeds
1-30, where the cameras see less of each line; and two back-to-back cells
of that mix at 300 px focal length, yawed 90 and 180 deg, seeds 1-20.  At
180 deg the CGR rotation parameters have no finite value, so these cells
fail a finalize that needs them.  Run alone with ``-s`` to see the table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

from pelical import (
    Extrinsics,
    PipelineConfig,
    RigSpec,
    TerminationReason,
    generate,
    pose_errors,
    rotation_about_y,
    run,
)

from helpers import DEFAULT_K


@dataclass(frozen=True)
class Cell:
    yaw_deg: float
    baseline_m: float
    outlier_fraction: float
    pnl_fraction: float
    seeds: range
    #: the counts measured when the bounds were set
    min_converged: int
    max_wrong: int
    #: focal length fx = fy of both cameras, in pixels
    fx: float = 600.0


ENVELOPE = range(1001, 1031)
CELLS = {
    "outliers-20": Cell(20.0, 0.30, 0.2, 0.0, ENVELOPE, 30, 1),
    "outliers-40": Cell(20.0, 0.30, 0.4, 0.0, ENVELOPE, 30, 0),
    "outliers-50": Cell(20.0, 0.30, 0.5, 0.0, ENVELOPE, 29, 0),
    "outliers-60": Cell(20.0, 0.30, 0.6, 0.0, ENVELOPE, 25, 2),
    "pnl-75": Cell(20.0, 0.30, 0.0, 0.75, ENVELOPE, 19, 0),
    "yaw45-0.5m": Cell(45.0, 0.50, 0.2, 0.25, range(1, 31), 30, 7),
    "yaw60-0.3m": Cell(60.0, 0.30, 0.2, 0.25, range(1, 31), 29, 5),
    "back-to-back-90": Cell(90.0, 0.30, 0.2, 0.25, range(1, 21), 20, 5, fx=300.0),
    "back-to-back-180": Cell(180.0, 0.30, 0.2, 0.25, range(1, 21), 20, 1, fx=300.0),
}


def score(cell: Cell) -> tuple[int, int]:
    """``(converged, wrong)`` runs of ``cell``."""
    truth = Extrinsics(rotation_about_y(cell.yaw_deg), np.array([cell.baseline_m, 0.0, 0.0]))
    K = replace(DEFAULT_K, fx=cell.fx, fy=cell.fx)
    converged = wrong = 0
    for seed in cell.seeds:
        spec = RigSpec(
            truth=truth,
            target_intrinsics=K,
            source_intrinsics=K,
            n_lines=60,
            pixel_noise_sigma=0.5,
            depth_noise_sigma=0.003,
            outlier_fraction=cell.outlier_fraction,
            pnl_fraction=cell.pnl_fraction,
            rng_seed=seed,
        )
        report = run(generate(spec)[0], PipelineConfig(cost_threshold=30.0), K)
        if report.termination is TerminationReason.CONVERGED:
            converged += 1
            rot_deg, trans_mm = pose_errors(report.extrinsics, truth)
            wrong += not (rot_deg <= 0.5 and trans_mm <= 15.0)
    return converged, wrong


@pytest.fixture(scope="module")
def scoreboard() -> dict[str, tuple[int, int]]:
    counts = {name: score(cell) for name, cell in CELLS.items()}
    print("\n[scoreboard] cell              runs  converged (bound)  wrong (bound)")
    for name, (converged, wrong) in counts.items():
        cell = CELLS[name]
        print(
            f"[scoreboard] {name:<16} {len(cell.seeds):>5}  {converged:>9}"
            f" (>= {cell.min_converged:>2})  {wrong:>5} (<= {cell.max_wrong})"
        )
    return counts


@pytest.mark.parametrize("name", CELLS)
def test_cell_keeps_its_counts(scoreboard, name):
    converged, wrong = scoreboard[name]
    cell = CELLS[name]
    assert converged >= cell.min_converged, f"{name}: {converged} converged"
    assert wrong <= cell.max_wrong, f"{name}: {wrong} wrong"
