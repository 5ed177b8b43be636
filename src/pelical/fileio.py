"""On-disk formats: canonical JSON documents and CSV tables.

Writers emit a canonical byte stream -- fixed field order, no whitespace,
floats at 17 significant digits -- so identical inputs produce identical
files and a read/write round trip is byte-exact.  One writer writes every
table.  Readers validate against the documented schemas and raise
SchemaError with the offending field (and byte offset, for malformed JSON);
one reader, :func:`_array`, checks every list of numbers.

json parses every file but observation files, which orjson parses: it
converts decimal floats about five times faster, to the same bits.  json
parses those too in three cases, so that each reads exactly as json reads it:

- the brackets nest deep enough to need more C stack than
  ``_ORJSON_STACK_BYTES``, as orjson has no depth limit (in a file with a
  backslash, where a quote may not end a string, every bracket counts; a
  file whose brackets would all fit nested at once is not scanned);
- orjson refuses the file or the checks reject it, so that every error
  message, byte offsets and the values it quotes included, is json's;
- an ``id`` comes back as a float of magnitude at least 2**63, as orjson
  turns integers outside [-2**63, 2**64) into floats.

A valid observation file is checked once, in bulk: its numbers, and the
rules of ``Line2D`` and ``LineObservation`` for all its lines at once, so
the records are built without checking themselves again.  Only a file
that fails is walked field by field, to name the first bad field.  The
garbage collector is paused while a document is parsed and read: that
makes thousands of short-lived lists but no reference cycles, so a
collection would find nothing.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gc
import io
import json
import math
import sys
from dataclasses import asdict, fields
from itertools import accumulate, chain
from pathlib import Path

import numpy as np
import orjson

from .checks import MAX_MAGNITUDE, MAX_SAMPLES
from .errors import NearSingularRotation, SchemaError
from .geometry import CameraIntrinsics, Extrinsics, Line2D, lines_2d_hold, rotation_to_cgr
from .pipeline import CalibrationReport, LineObservation
from .simulator import GroundTruthRecord, RigSpec


@functools.lru_cache(maxsize=64)
def _block_template(rows: int, cols: int) -> str:
    """The ``%`` template of ``rows`` floats or, when ``cols`` is positive,
    of ``rows`` lists of ``cols`` floats."""
    row = "[" + ",".join(["%.17g"] * (cols or rows)) + "]"
    return "[" + ",".join([row] * rows) + "]" if cols else row


def _float_block(value: list) -> str | None:
    """``value`` in canonical form, formatted with one ``%``, when it is a
    non-empty list of finite floats or of equal-length lists of them; None
    otherwise, and the walk in :func:`_canon` writes it."""
    if set(map(type, value)) == {list} and len(set(map(len, value))) == 1:
        cols, flat = len(value[0]), list(chain.from_iterable(value))
    else:
        cols, flat = 0, value
    if not flat or set(map(type, flat)) != {float}:
        return None
    text = _block_template(len(value), cols) % tuple(flat)
    # "%.17g" spells NaN and the infinities with an "n"; the walk writes null.
    return None if "n" in text else text


def _canon(value) -> str:
    if type(value) is list and (block := _float_block(value)) is not None:
        return block
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


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _parse_json(path: str | Path, raw: bytes):
    """``raw``, the bytes of ``path``, as json reads them."""
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}: {exc.reason}"
        ) from exc
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[: exc.pos].encode())  # exc.pos counts characters
        raise SchemaError(
            f"{path}: invalid JSON at byte offset {offset}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: invalid JSON: nested too deeply") from exc


def load_json(path: str | Path):
    return _parse_json(path, _read_bytes(path))


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


def _integer(value, where: str) -> int:
    """``value`` as an int: a finite whole number."""
    number = _number(value, where)
    if not number.is_integer():
        raise SchemaError(f"{where}: expected an integer")
    return value if isinstance(value, int) else int(number)


def _leaves(nodes: list, n: int) -> list | None:
    """The items of ``nodes`` in order when each node is a list of ``n``."""
    if set(map(type, nodes)) <= {list} and set(map(len, nodes)) <= {n}:
        return list(chain.from_iterable(nodes))
    return None


def _array(value, shape: tuple, where: str, limit: float = math.inf) -> np.ndarray:
    """``value``, a list of numbers or a list of lists of them, as a float
    array of ``shape`` (``(n,)`` or ``(rows, n)``; a None ``rows`` takes any
    count).  Every number is finite and of magnitude at most ``limit``.

    The whole list is checked in bulk; only when that fails is it walked,
    and the error names the innermost list that holds the bad entry.
    """
    rows, *cols = shape
    if not isinstance(value, list) or rows not in (None, len(value)):
        expected = f"{rows} rows" if cols else f"a list of {rows} numbers"
        raise SchemaError(f"{where}: expected {expected}")
    flat = _leaves(value, *cols) if cols else value
    if flat is not None and set(map(type, flat)) <= {float, int}:
        with contextlib.suppress(OverflowError):
            array = np.fromiter(flat, float, len(flat)).reshape(len(value), *cols)
            # False for NaN and, as the largest float is the cap, for inf
            if (np.abs(array) <= min(limit, sys.float_info.max)).all():
                return array
    if cols:
        return np.stack([_array(r, cols, f"{where}[{i}]", limit) for i, r in enumerate(value)])
    return np.array([_number(v, where, limit) for v in value])


# ---------------------------------------------------------------------------
# intrinsics / extrinsics blocks


def intrinsics_from_dict(data, where: str) -> CameraIntrinsics:
    """The fields of ``CameraIntrinsics`` as read, except that a whole float
    such as ``640.0`` reads as an ``int`` field's integer."""
    values = [_need(data, f.name, where) for f in fields(CameraIntrinsics)]
    values = [
        int(v) if f.type == "int" and type(v) is float and v.is_integer() else v
        for f, v in zip(fields(CameraIntrinsics), values)
    ]
    try:
        return CameraIntrinsics(*values)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def extrinsics_to_dict(T: Extrinsics) -> dict:
    return {
        "rotation": T.rotation.tolist(),
        "translation_m": T.translation.tolist(),
    }


def extrinsics_from_dict(data, where: str) -> Extrinsics:
    R = _array(_need(data, "rotation", where), (3, 3), f"{where}.rotation", MAX_MAGNITUDE)
    t = _array(_need(data, "translation_m", where), (3,), f"{where}.translation_m", MAX_MAGNITUDE)
    try:
        return Extrinsics(R, t)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# observation files


def _line2d_to_dict(line: Line2D) -> dict:
    return {"coeffs": line.coeffs.tolist(), "endpoints": line.endpoints.tolist()}


def _line2d_from_dict(data, where: str) -> Line2D:
    coeffs = _array(_need(data, "coeffs", where), (3,), f"{where}.coeffs")
    endpoints = _array(
        _need(data, "endpoints", where), (2, 2), f"{where}.endpoints", MAX_MAGNITUDE
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
        "target_intrinsics": asdict(target_K),
        "source_intrinsics": asdict(source_K),
        "observations": obs_out,
    }


def write_observation_file(
    path: str | Path,
    target_K: CameraIntrinsics,
    source_K: CameraIntrinsics,
    observations: list[LineObservation],
) -> None:
    write_json(path, observation_file_dict(target_K, source_K, observations))


def _samples(value, where: str, or_null: str) -> np.ndarray | None:
    """A sample list of 2 to ``MAX_SAMPLES`` points, or None when ``value``
    is None and ``or_null`` (the words that allow it) is not empty."""
    if value is None and or_null:
        return None
    if not isinstance(value, list) or len(value) < 2:
        raise SchemaError(f"{where}: expected >= 2 points{or_null}")
    if len(value) > MAX_SAMPLES:
        raise SchemaError(f"{where}: expected at most {MAX_SAMPLES} points")
    return _array(value, (None, 3), where, MAX_MAGNITUDE)


def _observation_from_dict(entry, where: str) -> LineObservation:
    """One entry of an observation file, checked field by field."""
    src, tgt = (
        _samples(_need(entry, key, where), f"{where}.{key}", or_null)
        for key, or_null in (("source_samples", ""), ("target_samples", " or null"))
    )
    return LineObservation(
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


def _observations_in_bulk(raw: list) -> list[LineObservation] | None:
    """The entries of ``raw`` as :func:`_observation_from_dict` reads them,
    checked and converted for the whole list at once; None when any check
    fails, so that the walk can name the first bad field.

    It accepts exactly the documents the walk accepts and returns equal
    values: each kind of leaf gets one type test, every sample and
    endpoint is converted and bounded in one array, and the lines' rules
    are checked by :func:`geometry.lines_2d_hold`.  The records' arrays are
    read-only views of two read-only arrays.
    """
    try:
        ids = [_integer(e["id"], "id") for e in raw]
        src = [e["source_samples"] for e in raw]
        tgt = [e["target_samples"] for e in raw]
        lines = [e[key] for e in raw for key in ("source_2d", "target_2d")]
        coeffs = _leaves([line["coeffs"] for line in lines], 3)
        ends = _leaves([line["endpoints"] for line in lines], 2)
    except (KeyError, TypeError, SchemaError):
        return None
    lists = src + [t for t in tgt if t is not None]
    if not (set(map(type, lists)) <= {list} and all(2 <= len(x) <= MAX_SAMPLES for x in lists)):
        return None
    points = _leaves(list(chain.from_iterable(lists)), 3)
    ends = None if ends is None else _leaves(ends, 2)
    if points is None or coeffs is None or ends is None:
        return None
    if not set(map(type, chain(points, ends, coeffs))) <= {float, int}:
        return None
    try:
        bounded = np.fromiter(chain(points, ends), float, len(points) + len(ends))
        coeffs = np.fromiter(coeffs, float, len(coeffs))
    except OverflowError:
        return None
    # The bound also rejects NaN, for which every comparison is False.
    if not ((np.abs(bounded) <= MAX_MAGNITUDE).all() and np.isfinite(coeffs).all()):
        return None
    bounded.setflags(write=False)  # so every view of it is read-only for good
    coeffs.setflags(write=False)
    xyz = bounded[: len(points)].reshape(-1, 3)
    ends = bounded[len(points) :].reshape(-1, 2, 2)
    coeffs = coeffs.reshape(-1, 3)
    if not lines_2d_hold(coeffs, ends):
        return None
    lines = [_checked(Line2D, coeffs=c, endpoints=e) for c, e in zip(coeffs, ends)]
    offsets = list(accumulate(map(len, lists), initial=0))
    arrays = iter([xyz[a:b] for a, b in zip(offsets, offsets[1:])])
    src = [next(arrays) for _ in src]
    tgt = [None if t is None else next(arrays) for t in tgt]
    return [
        _checked(
            LineObservation,
            obs_id=obs_id,
            source_samples=s,
            target_samples=t,
            source_2d=lines[2 * i],
            target_2d=lines[2 * i + 1],
        )
        for i, (obs_id, s, t) in enumerate(zip(ids, src, tgt))
    ]


def _checked(cls, **values):
    """A ``cls`` record of ``values``, which have already passed every
    check of ``cls.__post_init__``; it is not run again."""
    record = object.__new__(cls)
    record.__dict__.update(values)
    return record


def _observation_document(data) -> tuple:
    target_K = intrinsics_from_dict(
        _need(data, "target_intrinsics", "root"), "target_intrinsics"
    )
    source_K = intrinsics_from_dict(
        _need(data, "source_intrinsics", "root"), "source_intrinsics"
    )
    raw = _need(data, "observations", "root")
    if not isinstance(raw, list):
        raise SchemaError("observations: expected a list")
    observations = _observations_in_bulk(raw)
    if observations is None:
        observations = [
            _observation_from_dict(entry, f"observations[{i}]")
            for i, entry in enumerate(raw)
        ]
    return target_K, source_K, observations


#: The C stack, in bytes, that orjson may take for a file's nesting: it
#: parses with no depth limit, at about 64 bytes a nested list and 160 a
#: nested object, so this is half of a 1 MiB thread stack.  The weights were
#: measured on orjson 3.8.3; TestParserGuards must pass again after any
#: upgrade.
_ORJSON_STACK_BYTES = 2**19
_STACK_COST = np.zeros(256, np.int64)
_STACK_COST[list(b"[]{}")] = 64, -64, 160, -160
_NOT_STRUCTURAL = bytes(sorted(set(range(256)) - set(b'"[]{}')))


def _orjson_stack(raw: bytes) -> int:
    """An upper bound on the C stack orjson takes to parse ``raw``."""
    tokens = np.frombuffer(raw, np.uint8)  # numpy counts 5 times as fast as bytes.count
    count = 64 * np.count_nonzero(tokens == ord("[")) + 160 * np.count_nonzero(tokens == ord("{"))
    if count <= _ORJSON_STACK_BYTES or b"\\" in raw:
        # Every bracket nested at once already fits (a 60-line file counts
        # 335,584 bytes), or an escaped quote may not end a string.
        return int(count)
    # With no escapes each '"' opens or closes a string, so the brackets
    # outside strings are the parser's, and their running sum is its stack
    # up to the first error, where it stops.
    tokens = np.frombuffer(raw.translate(None, _NOT_STRUCTURAL), np.uint8)
    outside = np.cumsum(tokens == ord('"')) % 2 == 0
    return int(np.cumsum(_STACK_COST[tokens] * outside).max(initial=0))


def read_observation_file(
    path: str | Path,
) -> tuple[CameraIntrinsics, CameraIntrinsics, list[LineObservation]]:
    """The intrinsics and observations of ``path``, parsed by orjson, or by
    json when the result could differ from json's; the garbage collector is
    paused meanwhile (see the module notes)."""
    raw = _read_bytes(path)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if _orjson_stack(raw) <= _ORJSON_STACK_BYTES:
            with contextlib.suppress(orjson.JSONDecodeError, SchemaError):
                data = orjson.loads(raw)
                read = _observation_document(data)
                ids = [entry["id"] for entry in data["observations"]]
                if not any(type(i) is float and abs(i) >= 2**63 for i in ids):
                    return read
        return _observation_document(_parse_json(path, raw))
    finally:
        if collecting:
            gc.enable()


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
        "trace": [attempt.as_dict() for attempt in report.trace],
    }


def write_calibration_file(path: str | Path, report: CalibrationReport) -> None:
    write_json(path, calibration_file_dict(report))


def read_calibration_file(path: str | Path) -> dict:
    data = load_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    out = dict(data)
    R = _array(_need(data, "rotation", "root"), (3, 3), "rotation", MAX_MAGNITUDE)
    t = _array(_need(data, "translation_m", "root"), (3,), "translation_m", MAX_MAGNITUDE)
    try:
        out["extrinsics"] = Extrinsics(R, t)
    except ValueError as exc:
        raise SchemaError(f"rotation: {exc}") from exc
    if _need(data, "termination", "root") not in ("converged", "max_pairs", "aborted"):
        raise SchemaError("termination: unknown value")
    return out


# ---------------------------------------------------------------------------
# rig specs and ground truth


#: The rig-spec fields that are records, each read and written by its own
#: functions; RigSpec itself checks the others and refuses unknown keys.
_RIG_RECORDS = ("truth", "target_intrinsics", "source_intrinsics")
_RIG_VALUES = tuple(f.name for f in fields(RigSpec) if f.name not in _RIG_RECORDS)


def rig_spec_to_dict(spec: RigSpec) -> dict:
    doc = {
        "truth": extrinsics_to_dict(spec.truth),
        "target_intrinsics": asdict(spec.target_intrinsics),
        "source_intrinsics": asdict(spec.source_intrinsics),
    }
    for name in _RIG_VALUES:
        value = getattr(spec, name)
        doc[name] = list(value) if isinstance(value, tuple) else value
    return doc


def rig_spec_from_dict(data) -> RigSpec:
    where = "rig spec"
    truth = extrinsics_from_dict(_need(data, "truth", where), "truth")
    target_K = intrinsics_from_dict(
        _need(data, "target_intrinsics", where), "target_intrinsics"
    )
    source_K = intrinsics_from_dict(
        _need(data, "source_intrinsics", where), "source_intrinsics"
    )
    kwargs = {key: value for key, value in data.items() if key not in _RIG_RECORDS}
    try:
        return RigSpec(truth, target_K, source_K, **kwargs)
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
# CSV tables

SWEEP_COLUMNS = (
    "rotation_deg",
    "baseline_m",
    "seed",
    "rot_err_deg",
    "trans_err_mm",
    "converged",
)


def _cell(value) -> str:
    """A bool as true or false, an integer in full, a string as it is (the
    CSV writer quotes it if it must) and any other number at 17 digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return value if isinstance(value, str) else format(float(value), ".17g")


def dumps_csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    """A header line of ``columns``, then one line per row of ``rows``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[c]) for c in columns] for row in rows)
    return out.getvalue()


def write_csv(path: str | Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    Path(path).write_text(dumps_csv(columns, rows), newline="")
