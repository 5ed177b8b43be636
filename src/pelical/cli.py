"""Command line interface.

Subcommands: simulate, sweep, calibrate, evaluate-planes, pose-errors.
Exit codes: 0 on success/convergence, 1 on I/O, schema or usage errors, 2
when a run finished without converging (or a rig spec was infeasible).

Seeding precedence: built-in defaults < command line flags < --config file
< the PELICAL_SEED environment variable (seed only).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import fileio
from .checks import MAX_MAGNITUDE
from .errors import EmptyInput, IllConditionedPlane, InfeasibleSpec, SchemaError
from .metrics import PlaneMergeInput, plane_merge_metrics, pose_variation_errors
from .pipeline import PipelineConfig, TerminationReason, run as run_pipeline
from .simulator import generate, sweep

_ENV_SEED = "PELICAL_SEED"


def _seeded(record):
    """``record``, a PipelineConfig or RigSpec, with its ``rng_seed`` taken
    from PELICAL_SEED when that is set and not empty."""
    raw = os.environ.get(_ENV_SEED)
    if not raw:
        return record
    try:
        seed = int(raw)
    except ValueError as exc:
        raise SchemaError(f"{_ENV_SEED} must be an integer, got {raw!r}") from exc
    return fileio._checked(_ENV_SEED, replace, record, rng_seed=seed)


def _float_list(text: str, flag: str) -> list[float]:
    """The comma-separated numbers of ``flag``, at least one, each finite and
    of magnitude at most ``MAX_MAGNITUDE``."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise SchemaError(f"{flag}: expected at least one number")
    return fileio._array(values, (None,), flag, MAX_MAGNITUDE).tolist()


def _pipeline_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    # Each field's flag stores under the field's own name.
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(PipelineConfig)
        if getattr(args, f.name, None) is not None
    }
    if overrides:
        cfg = fileio._checked("command line", replace, cfg, **overrides)
    config_path = getattr(args, "config", None)
    if config_path:
        data = fileio.load_json(config_path)
        if not isinstance(data, dict):
            raise SchemaError(f"{config_path}: config must be a JSON object")
        cfg = fileio._checked(config_path, replace, cfg, **data)
    return _seeded(cfg)


def _cmd_simulate(args) -> int:
    spec = _seeded(fileio.read_rig_spec(args.spec))
    try:
        observations, records = generate(spec)
    except InfeasibleSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fileio.write_observation_file(
        args.output, spec.target_intrinsics, spec.source_intrinsics, observations
    )
    if args.truth:
        fileio.write_truth_file(args.truth, spec.truth, records)
    return 0


def _cmd_calibrate(args) -> int:
    target_K, _, observations = fileio.read_observation_file(args.input)
    cfg = _pipeline_config(args)
    report = run_pipeline(observations, cfg, target_K)
    fileio.write_calibration_file(args.output, report)
    return 0 if report.termination is TerminationReason.CONVERGED else 2


def _cmd_sweep(args) -> int:
    rotations = _float_list(args.rotations, "--rotations")
    baselines = _float_list(args.baselines, "--baselines")
    if args.seeds < 1:
        raise SchemaError(f"--seeds: must be at least 1, got {args.seeds}")
    base = _seeded(fileio.read_rig_spec(args.spec))
    cfg = _pipeline_config(args)
    rows = sweep(base, rotations, baselines, n_seeds=args.seeds, pipeline_cfg=cfg)
    fileio.write_csv(args.output, fileio.SWEEP_COLUMNS, rows)
    if rows and not any(row["converged"] for row in rows):
        return 2
    return 0


def _point_list(data: dict, key: str, count: int, exact: bool = False) -> np.ndarray:
    """The ``(n, 3)`` point list ``data[key]``: at least (or, if ``exact``,
    exactly) ``count`` points of 3 finite numbers, or a SchemaError naming it."""
    value = data[key]
    if not isinstance(value, list) or len(value) < count or (exact and len(value) > count):
        raise SchemaError(f"{key}: expected {'' if exact else '>= '}{count} points")
    return fileio._array(value, (None, 3), key, MAX_MAGNITUDE)


def _cmd_evaluate_planes(args) -> int:
    if not fileio._number(args.square_mm, "--square-mm") > 0:
        raise SchemaError("--square-mm: must be positive")
    data = fileio.load_json(args.input)
    calib = fileio.read_calibration_file(args.transform)
    if not isinstance(data, dict):
        raise SchemaError(f"{args.input}: expected a JSON object")
    for key in ("target_points", "source_points"):
        if key not in data or not isinstance(data[key], list):
            raise SchemaError(f"{args.input}: missing point list '{key}'")
    corners = {
        key: None if data.get(key) is None else _point_list(data, key, 2, exact=True)
        for key in ("target_corners", "source_corners")
    }
    squares = data.get("squares_per_row")
    if squares is not None:
        squares = fileio._integer(squares, "squares_per_row")
        if squares < 1:
            raise SchemaError("squares_per_row: expected a positive integer")
    inp = PlaneMergeInput(
        target_points=_point_list(data, "target_points", 3),
        source_points=_point_list(data, "source_points", 3),
        squares_per_row=squares,
        **corners,
    )
    try:
        metrics = plane_merge_metrics(inp, calib["extrinsics"], square_mm=args.square_mm)
    except IllConditionedPlane as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fileio.write_json(args.output, asdict(metrics))
    return 0


def _cmd_pose_errors(args) -> int:
    fileio._number(args.step_rot_deg, "--step-rot-deg")
    fileio._number(args.step_trans_cm, "--step-trans-cm")
    data = fileio.load_json(args.input)
    raw_groups = data.get("groups") if isinstance(data, dict) else None
    if not isinstance(raw_groups, list):
        raise SchemaError(f"{args.input}: expected an object with a 'groups' list")
    rows = []
    for i, g in enumerate(raw_groups):
        where = f"groups[{i}]"
        if not isinstance(g, dict) or not isinstance(g.get("poses"), list):
            raise SchemaError(f"{where}: missing 'poses' list")
        group = {
            "name": str(g.get("name", f"group{i}")),
            "vary": str(g.get("vary", "rotation")),
            "poses": [
                fileio.extrinsics_from_dict(p, f"{where}.poses[{j}]")
                for j, p in enumerate(g["poses"])
            ],
        }
        try:
            rows += pose_variation_errors(
                [group], step_rot_deg=args.step_rot_deg, step_trans_cm=args.step_trans_cm
            )
        except (EmptyInput, ValueError) as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    fileio.write_csv(args.output, ("group", "vary", "step_index", "error"), rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1 with a one-line ``error:``, like
    every other bad input, and not 2, which means a run did not converge."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser.  It is built on the first call and shared by
    later ones, so repeated in-process ``main`` calls skip the argparse
    set-up; callers must not modify it."""
    parser = _Parser(
        prog="pelical",
        description="Line-based extrinsic calibration for RGB-D camera pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic observation stream")
    p.add_argument("--spec", required=True, help="rig spec JSON")
    p.add_argument("--output", required=True, help="observation file to write")
    p.add_argument("--truth", help="optional ground-truth JSON to write")
    p.set_defaults(func=_cmd_simulate)

    def add_pipeline_flags(p):
        p.add_argument("--config", help="pipeline config JSON (overrides flags)")
        p.add_argument("--epsilon-d", dest="epsilon_d_m", type=float,
                       help="voting neighborhood radius in meters")
        p.add_argument("--cost-threshold", dest="cost_threshold", type=float,
                       help="mean refined cost accepted as converged")
        p.add_argument("--max-pairs", dest="max_pairs", type=int,
                       help="observation budget")
        p.add_argument("--inlier-ratio", dest="inlier_ratio_threshold", type=float,
                       help="classification inlier-ratio threshold")
        p.add_argument("--seed", dest="rng_seed", type=int, help="pipeline RNG seed")

    p = sub.add_parser("sweep", help="grid evaluation over rotations and baselines")
    p.add_argument("--spec", required=True, help="base rig spec JSON")
    p.add_argument("--rotations", required=True, help="comma-separated degrees")
    p.add_argument("--baselines", required=True, help="comma-separated meters")
    p.add_argument("--seeds", type=int, default=1, help="seeds per cell")
    p.add_argument("--output", required=True, help="CSV table to write")
    add_pipeline_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="run the pipeline on an observation file")
    p.add_argument("--input", required=True, help="observation file")
    p.add_argument("--output", required=True, help="calibration file to write")
    add_pipeline_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("evaluate-planes", help="plane-merge quality metrics")
    p.add_argument("--input", required=True, help="plane points JSON")
    p.add_argument("--transform", required=True, help="calibration file")
    p.add_argument("--square-mm", type=float, default=108.0,
                   help="true checkerboard square edge in mm")
    p.add_argument("--output", required=True, help="metrics JSON to write")
    p.set_defaults(func=_cmd_evaluate_planes)

    p = sub.add_parser("pose-errors", help="step errors for pose series")
    p.add_argument("--input", required=True, help="pose groups JSON")
    p.add_argument("--step-rot-deg", type=float, default=20.0)
    p.add_argument("--step-trans-cm", type=float, default=5.0)
    p.add_argument("--output", required=True, help="CSV table to write")
    p.set_defaults(func=_cmd_pose_errors)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
