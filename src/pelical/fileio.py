"""On-disk formats: canonical JSON documents and the sweep CSV table.

Writers emit a canonical byte stream -- fixed field order, no whitespace,
floats at 17 significant digits -- so identical inputs produce identical
files and a read/write round trip is byte-exact.  Readers validate against
the documented schemas and raise SchemaError with the offending field (and
byte offset, for malformed JSON).
"""

from __future__ import annotations

import contextlib
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .geometry import CameraIntrinsics, Extrinsics, Line2D, rotation_to_cgr
from .errors import NearSingularRotation
from .pipeline import CalibrationReport, LineObservation
from .simulator import GroundTruthRecord, RigSpec


def _canon(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            return "null"
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_canon(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps_canonical(obj) -> str:
    return _canon(obj) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj))


def load_json(path: str | Path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc


#: Largest magnitude a reader accepts for a point coordinate or translation
#: (m), an image endpoint or intrinsic (px), a rotation entry, or a rig spec's
#: noise and ranges: far beyond any real rig, and far enough below float64's
#: range that the products computed from them cannot overflow.
MAX_MAGNITUDE = 1e6


def _need(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise SchemaError(f"{where}: missing field '{key}'")
    return data[key]


def _number(value, where: str, limit: float = math.inf) -> float:
    """``value`` as a finite float of magnitude at most ``limit``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{where}: expected a finite number")
    if abs(number) > limit:
        raise SchemaError(f"{where}: magnitude exceeds {limit:g}")
    return number


def _integer(value, where: str, limit: float = math.inf) -> int:
    """``value`` as an int: a whole number of magnitude at most ``limit``."""
    number = _number(value, where, limit)
    if not number.is_integer():
        raise SchemaError(f"{where}: expected an integer")
    return value if isinstance(value, int) else int(number)


def _vector(value, n: int, where: str, limit: float = math.inf) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(f"{where}: expected a list of {n} numbers")
    return np.array([_number(v, where, limit) for v in value])


def _points(value, where: str) -> np.ndarray:
    """An ``(n, 3)`` array from a list of lists of 3 numbers, each of
    magnitude at most ``MAX_MAGNITUDE``.

    Shapes, value types and magnitudes are checked in bulk; only when that
    fails are the points walked one at a time, to name the offending one.
    """
    shaped = all(isinstance(p, list) and len(p) == 3 for p in value)
    if shaped and set(map(type, chain.from_iterable(value))) <= {float, int}:
        with contextlib.suppress(OverflowError):
            points = np.array(value, dtype=float)
            if (np.abs(points) <= MAX_MAGNITUDE).all():  # False for NaN
                return points
    return np.stack(
        [_vector(p, 3, f"{where}[{j}]", MAX_MAGNITUDE) for j, p in enumerate(value)]
    )


def _matrix(
    value, rows: int, cols: int, where: str, limit: float = math.inf
) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise SchemaError(f"{where}: expected {rows} rows")
    return np.stack(
        [_vector(r, cols, f"{where}[{i}]", limit) for i, r in enumerate(value)]
    )


# ---------------------------------------------------------------------------
# intrinsics / extrinsics blocks


def intrinsics_to_dict(K: CameraIntrinsics) -> dict:
    return {
        "fx": K.fx,
        "fy": K.fy,
        "cx": K.cx,
        "cy": K.cy,
        "width": K.width,
        "height": K.height,
    }


def intrinsics_from_dict(data, where: str) -> CameraIntrinsics:
    fx, fy, cx, cy = (
        _number(_need(data, key, where), f"{where}.{key}", MAX_MAGNITUDE)
        for key in ("fx", "fy", "cx", "cy")
    )
    width, height = (
        _integer(_need(data, key, where), f"{where}.{key}", MAX_MAGNITUDE)
        for key in ("width", "height")
    )
    try:
        return CameraIntrinsics(fx, fy, cx, cy, width, height)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def extrinsics_to_dict(T: Extrinsics) -> dict:
    return {
        "rotation": T.rotation.tolist(),
        "translation_m": T.translation.tolist(),
    }


def extrinsics_from_dict(data, where: str) -> Extrinsics:
    R = _matrix(_need(data, "rotation", where), 3, 3, f"{where}.rotation", MAX_MAGNITUDE)
    t = _vector(
        _need(data, "translation_m", where), 3, f"{where}.translation_m", MAX_MAGNITUDE
    )
    try:
        return Extrinsics(R, t)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# observation files


def _line2d_to_dict(line: Line2D) -> dict:
    return {"coeffs": line.coeffs.tolist(), "endpoints": line.endpoints.tolist()}


def _line2d_from_dict(data, where: str) -> Line2D:
    coeffs = _vector(_need(data, "coeffs", where), 3, f"{where}.coeffs")
    endpoints = _matrix(
        _need(data, "endpoints", where), 2, 2, f"{where}.endpoints", MAX_MAGNITUDE
    )
    try:
        return Line2D(coeffs, endpoints)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def observation_file_dict(
    target_K: CameraIntrinsics,
    source_K: CameraIntrinsics,
    observations: list[LineObservation],
) -> dict:
    obs_out = []
    for obs in observations:
        obs_out.append(
            {
                "id": obs.obs_id,
                "source_2d": _line2d_to_dict(obs.source_2d),
                "target_2d": _line2d_to_dict(obs.target_2d),
                "source_samples": obs.source_samples.tolist(),
                "target_samples": None
                if obs.target_samples is None
                else obs.target_samples.tolist(),
            }
        )
    return {
        "target_intrinsics": intrinsics_to_dict(target_K),
        "source_intrinsics": intrinsics_to_dict(source_K),
        "observations": obs_out,
    }


def write_observation_file(
    path: str | Path,
    target_K: CameraIntrinsics,
    source_K: CameraIntrinsics,
    observations: list[LineObservation],
) -> None:
    write_json(path, observation_file_dict(target_K, source_K, observations))


def read_observation_file(
    path: str | Path,
) -> tuple[CameraIntrinsics, CameraIntrinsics, list[LineObservation]]:
    data = load_json(path)
    target_K = intrinsics_from_dict(
        _need(data, "target_intrinsics", "root"), "target_intrinsics"
    )
    source_K = intrinsics_from_dict(
        _need(data, "source_intrinsics", "root"), "source_intrinsics"
    )
    raw = _need(data, "observations", "root")
    if not isinstance(raw, list):
        raise SchemaError("observations: expected a list")
    observations = []
    for i, entry in enumerate(raw):
        where = f"observations[{i}]"
        samples = _need(entry, "source_samples", where)
        if not isinstance(samples, list) or len(samples) < 2:
            raise SchemaError(f"{where}.source_samples: expected >= 2 points")
        src = _points(samples, f"{where}.source_samples")
        tgt_raw = _need(entry, "target_samples", where)
        tgt = None
        if tgt_raw is not None:
            if not isinstance(tgt_raw, list) or len(tgt_raw) < 2:
                raise SchemaError(f"{where}.target_samples: expected >= 2 points or null")
            tgt = _points(tgt_raw, f"{where}.target_samples")
        observations.append(
            LineObservation(
                obs_id=_integer(_need(entry, "id", where), f"{where}.id"),
                source_samples=src,
                target_samples=tgt,
                source_2d=_line2d_from_dict(
                    _need(entry, "source_2d", where), f"{where}.source_2d"
                ),
                target_2d=_line2d_from_dict(
                    _need(entry, "target_2d", where), f"{where}.target_2d"
                ),
            )
        )
    return target_K, source_K, observations


# ---------------------------------------------------------------------------
# calibration files


def calibration_file_dict(report: CalibrationReport) -> dict:
    R = report.extrinsics.rotation
    try:
        cgr = rotation_to_cgr(R).s.tolist()
    except NearSingularRotation:
        cgr = None
    return {
        "rotation": R.tolist(),
        "translation_m": report.extrinsics.translation.tolist(),
        "cgr": cgr,
        "final_cost": report.final_cost,
        "termination": report.termination.value,
        "accepted_pairs": report.accepted_pairs,
        "voting_inlier_ids": list(report.voting_inlier_ids),
        "trace": report.trace,
    }


def write_calibration_file(path: str | Path, report: CalibrationReport) -> None:
    write_json(path, calibration_file_dict(report))


def read_calibration_file(path: str | Path) -> dict:
    data = load_json(path)
    out = dict(data)
    R = _matrix(_need(data, "rotation", "root"), 3, 3, "rotation")
    t = _vector(_need(data, "translation_m", "root"), 3, "translation_m")
    try:
        out["extrinsics"] = Extrinsics(R, t)
    except ValueError as exc:
        raise SchemaError(f"rotation: {exc}") from exc
    if _need(data, "termination", "root") not in ("converged", "max_pairs", "aborted"):
        raise SchemaError("termination: unknown value")
    return out


# ---------------------------------------------------------------------------
# rig specs and ground truth


def rig_spec_to_dict(spec: RigSpec) -> dict:
    return {
        "truth": extrinsics_to_dict(spec.truth),
        "target_intrinsics": intrinsics_to_dict(spec.target_intrinsics),
        "source_intrinsics": intrinsics_to_dict(spec.source_intrinsics),
        "n_lines": spec.n_lines,
        "line_length_m": list(spec.line_length_m),
        "scene_depth_m": list(spec.scene_depth_m),
        "pixel_noise_sigma": spec.pixel_noise_sigma,
        "depth_noise_sigma": spec.depth_noise_sigma,
        "outlier_fraction": spec.outlier_fraction,
        "samples_per_line": spec.samples_per_line,
        "pnl_fraction": spec.pnl_fraction,
        "rng_seed": spec.rng_seed,
        "depth_noise_model": spec.depth_noise_model,
    }


def rig_spec_from_dict(data) -> RigSpec:
    where = "rig spec"
    truth = extrinsics_from_dict(_need(data, "truth", where), "truth")
    target_K = intrinsics_from_dict(
        _need(data, "target_intrinsics", where), "target_intrinsics"
    )
    source_K = intrinsics_from_dict(
        _need(data, "source_intrinsics", where), "source_intrinsics"
    )
    # The integer fields go through as read; RigSpec checks their type.
    kwargs = {
        key: data[key] for key in ("n_lines", "samples_per_line", "rng_seed") if key in data
    }
    for key in (
        "pixel_noise_sigma",
        "depth_noise_sigma",
        "outlier_fraction",
        "pnl_fraction",
    ):
        if key in data:
            kwargs[key] = _number(data[key], key, MAX_MAGNITUDE)
    for key in ("line_length_m", "scene_depth_m"):
        if key in data:
            kwargs[key] = tuple(_vector(data[key], 2, key, MAX_MAGNITUDE).tolist())
    if "depth_noise_model" in data:
        kwargs["depth_noise_model"] = str(data["depth_noise_model"])
    try:
        return RigSpec(
            truth=truth,
            target_intrinsics=target_K,
            source_intrinsics=source_K,
            **kwargs,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def read_rig_spec(path: str | Path) -> RigSpec:
    return rig_spec_from_dict(load_json(path))


def _plucker_to_dict(line) -> dict:
    return {"d": line.d.tolist(), "m": line.m.tolist()}


def write_truth_file(
    path: str | Path, truth: Extrinsics, records: list[GroundTruthRecord]
) -> None:
    doc = {
        "extrinsics": extrinsics_to_dict(truth),
        "records": [
            {
                "id": r.obs_id,
                "is_outlier": r.is_outlier,
                "is_pnl": r.is_pnl,
                "source_line": _plucker_to_dict(r.source_line),
                "target_line": _plucker_to_dict(r.target_line),
            }
            for r in records
        ],
    }
    write_json(path, doc)


# ---------------------------------------------------------------------------
# sweep CSV

SWEEP_COLUMNS = (
    "rotation_deg",
    "baseline_m",
    "seed",
    "rot_err_deg",
    "trans_err_mm",
    "converged",
)


def sweep_rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            v = row[col]
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(format(float(v), ".17g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_sweep_csv(path: str | Path, rows: list[dict]) -> None:
    Path(path).write_text(sweep_rows_to_csv(rows))
