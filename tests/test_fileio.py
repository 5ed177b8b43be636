"""File format tests: canonical JSON writers, schema validation, sweep CSV."""

import decimal
import functools
import gc
import json
import math
import pickle
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pelical
from pelical import (
    Extrinsics,
    PipelineConfig,
    RigSpec,
    SchemaError,
    TerminationReason,
    generate,
    rotation_about_y,
    run,
)
from pelical.checks import MAX_MAGNITUDE
from pelical.constraints import CaseKind
from pelical import fileio
from pelical.fileio import (
    _ORJSON_STACK_BYTES,
    _observation_document,
    _orjson_stack,
    SWEEP_COLUMNS,
    _float_block,
    _observation_from_dict,
    _observations_in_bulk,
    calibration_file_dict,
    dumps_canonical,
    dumps_csv,
    load_json,
    observation_file_dict,
    read_calibration_file,
    read_observation_file,
    read_rig_spec,
    rig_spec_from_dict,
    rig_spec_to_dict,
    write_calibration_file,
    write_csv,
    write_json,
    write_observation_file,
    write_truth_file,
)
from pelical.pipeline import CalibrationReport, FinalizeAttempt

from helpers import (
    DEFAULT_K,
    LINE2D_BOUNDARY_ROWS,
    canon_walk,
    make_observation,
    mutated,
    rand_truth,
)


@pytest.fixture(scope="module")
def report():
    """A converged calibration run, reused across file round-trip tests."""
    rng = np.random.default_rng(71)
    truth = rand_truth(rng)
    obs = [make_observation(rng, truth, CaseKind.FULL3D, obs_id=i) for i in range(5)]
    obs.append(make_observation(rng, truth, CaseKind.PNL, obs_id=5))
    rep = run(obs, PipelineConfig(), DEFAULT_K)
    assert rep.termination is TerminationReason.CONVERGED
    return rep


#: Floats the writer must spell exactly as ``format(x, ".17g")`` does, or as
#: null: signed zero, the smallest subnormal, huge, whole and non-finite ones.
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -3.0, 2.0**53, 1e16, 0.1]),
    st.integers(-(10**6), 10**6).map(float),
)


def double_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


BITS_OF_MAX = struct.unpack("<Q", struct.pack("<d", MAX_MAGNITUDE))[0]

#: Any finite double: hypothesis's floats, and uniform 64-bit patterns,
#: whose exponents spread evenly from the subnormals to the largest, also
#: below MAX_MAGNITUDE, where a sample is read and not rejected.
FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(double_from_bits).filter(math.isfinite),
    st.builds(math.copysign, st.integers(0, BITS_OF_MAX).map(double_from_bits),
              st.sampled_from([1.0, -1.0])),
)


def spelled(x: float, how: str, digits: int) -> str:
    """``x`` as JSON text: by ``repr`` (as json.dumps writes it), at 17
    digits (as dumps_canonical does), as its exact decimal expansion, or as
    the midpoint between it and the next double, rounded to ``digits``
    significant digits.  The last two are the long and near-halfway
    spellings a fast float parser cannot settle on its short path."""
    if how == "repr":
        return repr(x)
    if how == "%.17g":
        return "%.17g" % x
    exact = decimal.Decimal(x)
    if how == "exact":
        return str(exact)
    y = math.nextafter(x, math.inf)
    if math.isinf(y):
        y = math.nextafter(x, -math.inf)
    with decimal.localcontext(decimal.Context(prec=2000)):
        midpoint = (exact + decimal.Decimal(y)) / 2  # exact: both are binary fractions
    return str(decimal.Context(prec=digits).plus(midpoint))


#: Lists of equal-length float lists: the shape of sample and endpoint blocks.
BLOCKS = st.integers(0, 4).flatmap(
    lambda cols: st.lists(st.lists(FLOATS, min_size=cols, max_size=cols), max_size=6)
)
#: Everything a list may hold: floats, numpy floats, ints, bools, float lists,
#: blocks, and ragged, empty and deeper lists of these.
NESTED = st.recursive(
    st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(), st.booleans(),
              st.lists(FLOATS), BLOCKS),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=40,
)


class TestCanonicalJson:
    def test_scalar_forms(self):
        doc = {"a": True, "b": False, "c": 3, "d": 0.5, "e": None, "f": "x"}
        assert dumps_canonical(doc) == '{"a":true,"b":false,"c":3,"d":0.5,"e":null,"f":"x"}\n'

    def test_floats_carry_seventeen_digits(self):
        assert dumps_canonical(0.1) == "0.10000000000000001\n"
        # 17 significant digits round-trip any double exactly
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-8, 8))
            assert float(dumps_canonical(x)) == x

    def test_non_finite_floats_become_null(self):
        assert dumps_canonical(float("nan")) == "null\n"
        assert dumps_canonical(float("inf")) == "null\n"
        assert dumps_canonical(float("-inf")) == "null\n"

    def test_numpy_values_match_python_ones(self):
        assert dumps_canonical(np.float64(0.25)) == dumps_canonical(0.25)
        assert dumps_canonical(np.int64(7)) == dumps_canonical(7)
        assert dumps_canonical(np.bool_(True)) == dumps_canonical(True)
        assert dumps_canonical(np.array([[1.5, 2.0], [3.0, 4.0]])) == "[[1.5,2],[3,4]]\n"

    def test_dict_keeps_insertion_order(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"b":1,"a":2}\n'
        assert dumps_canonical({"a": 2, "b": 1}) == '{"a":2,"b":1}\n'

    def test_output_is_compact_with_trailing_newline(self):
        text = dumps_canonical({"k": [1, 2, {"n": None}]})
        assert text.endswith("\n")
        assert " " not in text and "\t" not in text

    def test_float_blocks_take_one_format(self):
        assert _float_block([0.5, -0.0, 3.0]) == "[0.5,-0,3]"
        assert _float_block([[0.5, 1e300], [5e-324, 2.0]]) == (
            "[[0.5,1.0000000000000001e+300],[4.9406564584124654e-324,2]]"
        )
        # non-finite, non-float or ragged content, and empty lists, go to the walk
        for value in ([1.0, float("nan")], [[1.0], [float("-inf")]], [1.0, 2],
                      [np.float64(1.0)], [[1.0], [2.0, 3.0]], [], [[], []], [True]):
            assert _float_block(value) is None

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(value=NESTED)
    def test_bulk_writer_matches_the_walk(self, value):
        assert dumps_canonical(value) == canon_walk(value) + "\n"

    def test_observation_file_matches_the_walk(self):
        spec = RigSpec(
            truth=Extrinsics(rotation_about_y(20.0), np.array([0.3, 0.0, 0.0])),
            target_intrinsics=DEFAULT_K, source_intrinsics=DEFAULT_K, n_lines=8,
            pixel_noise_sigma=0.5, depth_noise_sigma=0.003, pnl_fraction=0.25,
        )
        doc = observation_file_dict(DEFAULT_K, DEFAULT_K, generate(spec)[0])
        assert dumps_canonical(doc) == canon_walk(doc) + "\n"

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            dumps_canonical({"bad": {1, 2}})

    def test_write_json_is_deterministic(self, tmp_path):
        doc = {"x": [0.1, 0.2], "y": "text", "z": {"nested": True}}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, doc)
        write_json(b, doc)
        assert a.read_bytes() == b.read_bytes()


class TestLoadJson:
    def test_malformed_json_reports_byte_offset(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"a": 1,')
        with pytest.raises(SchemaError, match="byte offset 8"):
            load_json(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_json(tmp_path / "nope.json")

    def test_offset_counts_bytes(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_bytes('{"a": "\u00e9\u00e9",'.encode())  # 13 bytes, 11 characters
        with pytest.raises(SchemaError, match="byte offset 13"):
            load_json(path)

    def test_non_utf8_reports_byte_offset(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'{"a": 1}\xff\xfe')
        with pytest.raises(
            SchemaError, match=f"^{re.escape(str(path))}: invalid UTF-8 at byte offset 8: "
        ):
            load_json(path)

    def test_deep_nesting_names_the_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(
            SchemaError, match=f"^{re.escape(str(path))}: invalid JSON: nested too deeply$"
        ):
            load_json(path)


class TestObservationFile:
    @pytest.fixture()
    def observations(self, rng):
        truth = rand_truth(rng)
        obs = [make_observation(rng, truth, CaseKind.FULL3D, obs_id=i) for i in range(3)]
        obs.append(make_observation(rng, truth, CaseKind.PNL, obs_id=3))
        return obs

    def test_round_trip_preserves_values(self, tmp_path, observations):
        path = tmp_path / "obs.json"
        write_observation_file(path, DEFAULT_K, DEFAULT_K, observations)
        target_K, source_K, loaded = read_observation_file(path)
        assert target_K == DEFAULT_K and source_K == DEFAULT_K
        assert len(loaded) == len(observations)
        for got, want in zip(loaded, observations):
            assert got.obs_id == want.obs_id
            assert np.array_equal(got.source_samples, want.source_samples)
            if want.target_samples is None:
                assert got.target_samples is None
            else:
                assert np.array_equal(got.target_samples, want.target_samples)
            assert np.array_equal(got.source_2d.endpoints, want.source_2d.endpoints)
            assert np.array_equal(got.target_2d.endpoints, want.target_2d.endpoints)

    def test_write_read_write_is_byte_identical(self, tmp_path, observations):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_observation_file(first, DEFAULT_K, DEFAULT_K, observations)
        target_K, source_K, loaded = read_observation_file(first)
        write_observation_file(second, target_K, source_K, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_missing_field_names_the_path(self, tmp_path, observations):
        path = tmp_path / "obs.json"
        write_observation_file(path, DEFAULT_K, DEFAULT_K, observations)
        doc = load_json(path)
        del doc["observations"][0]["source_samples"]
        write_json(path, doc)
        with pytest.raises(SchemaError, match=r"observations\[0\].*source_samples"):
            read_observation_file(path)

    def test_short_sample_list_rejected(self, tmp_path, observations):
        path = tmp_path / "obs.json"
        write_observation_file(path, DEFAULT_K, DEFAULT_K, observations)
        doc = load_json(path)
        doc["observations"][1]["source_samples"] = doc["observations"][1]["source_samples"][:1]
        write_json(path, doc)
        with pytest.raises(SchemaError, match=r"observations\[1\].source_samples"):
            read_observation_file(path)

    def test_boolean_is_not_a_number(self, tmp_path, observations):
        path = tmp_path / "obs.json"
        write_observation_file(path, DEFAULT_K, DEFAULT_K, observations)
        doc = load_json(path)
        doc["observations"][0]["source_samples"][0][2] = True
        write_json(path, doc)
        with pytest.raises(SchemaError, match="expected a number"):
            read_observation_file(path)

    @pytest.mark.parametrize(
        "field, point, value, message",
        [
            ("source_samples", 4, ["1.0", 2.0, 3.0], "expected a number"),
            ("source_samples", 7, [1.0, 2.0], "expected a list of 3 numbers"),
            ("target_samples", 5, [1.0, 2.0, False], "expected a number"),
            ("target_samples", 2, [1.0, 10**400, 3.0], "expected a finite number"),
            ("source_samples", 0, [10**400, 2.0, 3.0], "expected a finite number"),
            ("source_samples", 9, [1.0, 2.0, float("nan")], "expected a finite number"),
        ],
    )
    def test_bad_sample_names_the_point(
        self, tmp_path, observations, field, point, value, message
    ):
        path = tmp_path / "obs.json"
        write_observation_file(path, DEFAULT_K, DEFAULT_K, observations)
        doc = load_json(path)
        doc["observations"][2][field][point] = value
        path.write_text(json.dumps(doc))  # keeps NaN, which write_json nulls
        where = rf"observations\[2\]\.{field}\[{point}\]"
        with pytest.raises(SchemaError, match=f"^{where}: {message}$"):
            read_observation_file(path)

    @pytest.mark.parametrize(
        "where, literal",
        [
            ("observations[1].id", "1" + "0" * 400),
            ("target_intrinsics.width", "1e400"),
            ("target_intrinsics.fx", "NaN"),
            ("source_intrinsics.cy", "-Infinity"),
        ],
    )
    def test_non_finite_scalar_names_the_field(self, tmp_path, observations, where, literal):
        path = tmp_path / "obs.json"
        write_observation_file(path, DEFAULT_K, DEFAULT_K, observations)
        doc = load_json(path)
        if where.startswith("observations"):
            doc["observations"][1]["id"] = "BAD"
        else:
            block, key = where.split(".")
            doc[block][key] = "BAD"
        # CameraIntrinsics checks its own fields; JSON's 1e400 reads as inf
        message = {
            "observations[1].id": "observations[1].id: expected a finite number",
            "target_intrinsics.width": "target_intrinsics: width must be an integer, got inf",
            "target_intrinsics.fx": "target_intrinsics: fx must be finite",
            "source_intrinsics.cy": "source_intrinsics: cy must be finite",
        }[where]
        path.write_text(dumps_canonical(doc).replace('"BAD"', literal))
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            read_observation_file(path)

    def test_missing_intrinsics_field(self, tmp_path, observations):
        path = tmp_path / "obs.json"
        write_observation_file(path, DEFAULT_K, DEFAULT_K, observations)
        doc = load_json(path)
        del doc["target_intrinsics"]["fx"]
        write_json(path, doc)
        with pytest.raises(SchemaError, match="target_intrinsics.*fx"):
            read_observation_file(path)

    @pytest.mark.parametrize("value", [[10**20 + 1], {"x": -(2**63) - 1}],
                             ids=["list", "object"])
    def test_bad_intrinsic_is_quoted_as_written(self, tmp_path, observations, value):
        # the message quotes the value, so a huge integer in it must not
        # come back as a float
        path = tmp_path / "obs.json"
        doc = observation_file_dict(DEFAULT_K, DEFAULT_K, observations)
        doc["target_intrinsics"]["fx"] = value
        write_json(path, doc)
        message = f"target_intrinsics: fx must be a number, got {value!r}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            read_observation_file(path)


@functools.lru_cache(maxsize=None)
def observation_text() -> str:
    """A valid observation file of three FULL3D lines and one PnL line."""
    rng = np.random.default_rng(5)
    truth = rand_truth(rng)
    kinds = [CaseKind.FULL3D] * 3 + [CaseKind.PNL]
    obs = [make_observation(rng, truth, k, obs_id=i, n_samples=6) for i, k in enumerate(kinds)]
    return dumps_canonical(observation_file_dict(DEFAULT_K, DEFAULT_K, obs))


def walk(raw: list) -> list:
    """The observations as the field-by-field walk reads them."""
    return [_observation_from_dict(e, f"observations[{i}]") for i, e in enumerate(raw)]


def outcome(read):
    """``read()`` and None, or None and the message of its SchemaError."""
    try:
        return read(), None
    except SchemaError as exc:
        return None, str(exc)


def assert_same_observations(got: list, want: list) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.obs_id) is type(w.obs_id) and g.obs_id == w.obs_id
        pairs = [(g.source_samples, w.source_samples), (g.target_samples, w.target_samples)]
        for a, b in (("source_2d", "coeffs"), ("source_2d", "endpoints"),
                     ("target_2d", "coeffs"), ("target_2d", "endpoints")):
            pairs.append((getattr(getattr(g, a), b), getattr(getattr(w, a), b)))
        for x, y in pairs:
            if y is None:
                assert x is None
            else:
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()  # the same bits, -0.0 included


def read_three_ways(observations: list, dumps=json.dumps) -> tuple:
    """The observation file of :func:`observation_text` with the list
    ``observations``, written by ``dumps``, read by ``read_observation_file``,
    by the walk and by the bulk path, the last two from the document as json
    loads it."""
    doc = {**json.loads(observation_text()), "observations": observations}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.json"
        path.write_text(dumps(doc))  # json.dumps keeps NaN and huge integers
        raw = load_json(path)["observations"]
        read = outcome(lambda: read_observation_file(path)[2])
    return read, outcome(lambda: walk(raw)), _observations_in_bulk(raw)


def off_line(observations: list) -> list:
    """The first source endpoint of observation 3 moved 10 px off its line."""
    line = observations[3]["source_2d"]
    (a, b, _), (u, v) = line["coeffs"], line["endpoints"][0]
    return [u + 10.0 * a, v + 10.0 * b]


class TestBulkRead:
    """The whole-file bulk check accepts what the walk accepts, returns the
    same values, and leaves every error to the walk."""

    def test_valid_file_takes_the_bulk_path(self):
        (read, _), (walked, error), bulk = read_three_ways(
            json.loads(observation_text())["observations"]
        )
        assert error is None and bulk is not None
        assert_same_observations(bulk, walked)
        assert_same_observations(read, walked)

    @pytest.mark.parametrize(
        "path, value, where, message",
        [
            ((1, "source_samples", 2, 0), True, "observations[1].source_samples[2]",
             "expected a number"),
            ((1, "source_samples", 2, 0), "1.0", "observations[1].source_samples[2]",
             "expected a number"),
            ((1, "source_samples", 2, 0), None, "observations[1].source_samples[2]",
             "expected a number"),
            ((1, "source_samples", 2, 1), float("nan"), "observations[1].source_samples[2]",
             "expected a finite number"),
            ((0, "target_samples", 4, 2), 10**400, "observations[0].target_samples[4]",
             "expected a finite number"),
            ((0, "target_samples", 4, 2), 1e300, "observations[0].target_samples[4]",
             "magnitude exceeds 1e+06"),
            ((1, "source_samples", 2), [1.0, 2.0], "observations[1].source_samples[2]",
             "expected a list of 3 numbers"),
            ((1, "source_samples", 2, 0), [1.0], "observations[1].source_samples[2]",
             "expected a number"),
            ((2, "id"), 1.5, "observations[2].id", "expected an integer"),
            ((2, "id"), True, "observations[2].id", "expected a number"),
            ((0, "target_2d", "coeffs", 1), float("nan"), "observations[0].target_2d.coeffs",
             "expected a finite number"),
            ((0, "target_2d", "coeffs"), [1.0, 1.0, 0.0], "observations[0].target_2d",
             "line coefficients must be normalized"),
            ((3, "source_2d", "endpoints", 0), off_line, "observations[3].source_2d",
             "endpoints must lie on the line (within 0.5 px)"),
            ((3, "target_2d", "endpoints", 1, 0), 2e6, "observations[3].target_2d.endpoints[1]",
             "magnitude exceeds 1e+06"),
            ((3, "target_2d", "endpoints", 1), [1.0], "observations[3].target_2d.endpoints[1]",
             "expected a list of 2 numbers"),
            ((0, "source_2d", "endpoints"), [[1.0, 2.0]] * 3,
             "observations[0].source_2d.endpoints", "expected 2 rows"),
            ((2, "target_2d", "coeffs"), [0.6, 0.8], "observations[2].target_2d.coeffs",
             "expected a list of 3 numbers"),
            ((2, "target_samples"), lambda obs: obs[2]["target_samples"][:1],
             "observations[2].target_samples", "expected >= 2 points or null"),
            ((1, "source_samples"), lambda obs: obs[1]["source_samples"][:1] * 10_001,
             "observations[1].source_samples", "expected at most 10000 points"),
        ],
        ids=["true", "string", "null", "nan", "huge-int", "1e300", "two-element-point",
             "nested-list", "fractional-id", "boolean-id", "nan-coefficient",
             "unnormalized", "off-line-endpoint", "huge-endpoint", "one-value-endpoint",
             "three-endpoints", "two-coefficients", "one-target-sample", "10001-samples"],
    )
    def test_bad_leaf_falls_back_to_the_walk(self, path, value, where, message):
        observations = json.loads(observation_text())["observations"]
        node = observations
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(observations) if callable(value) else value
        (_, read_error), (_, walk_error), bulk = read_three_ways(observations)
        assert bulk is None
        assert read_error == walk_error == f"{where}: {message}"

    @pytest.mark.parametrize(
        "value",
        [3.0, 1e300, 10**20, 10**20 + 1, 2**64, -(2**63) - 1],
        ids=["float", "1e300", "10**20", "10**20+1", "2**64", "-2**63-1"],
    )
    def test_whole_float_or_large_id_takes_the_bulk_path(self, value):
        # the walk accepts any whole number as an id, so the bulk path must
        # too; an integer is read exactly, also beyond 64 bits
        observations = json.loads(observation_text())["observations"]
        observations[2]["id"] = value
        (read, _), (walked, error), bulk = read_three_ways(observations)
        assert error is None and bulk is not None
        assert bulk[2].obs_id == int(value)
        assert_same_observations(bulk, walked)
        assert_same_observations(read, walked)

    @pytest.mark.parametrize("row", sorted(LINE2D_BOUNDARY_ROWS))
    def test_line_bounds_read_as_the_walk_reads_them(self, row):
        # Line2D's bounds, one ulp inside and outside: the bulk check of all
        # lines at once gives each line's own verdict
        coeffs, endpoints, message = LINE2D_BOUNDARY_ROWS[row]
        observations = json.loads(observation_text())["observations"]
        observations[1]["target_2d"] = {"coeffs": coeffs, "endpoints": endpoints}
        (read, read_error), (walked, walk_error), bulk = read_three_ways(observations)
        assert (bulk is None) == (walk_error is not None) == (message is not None)
        assert read_error == walk_error
        if message is None:
            assert_same_observations(bulk, walked)
            assert_same_observations(read, walked)
        elif not any(map(math.isnan, coeffs + endpoints[0] + endpoints[1])):
            assert walk_error == f"observations[1].target_2d: {message}"

    def test_bulk_records_hold_read_only_views(self):
        (read, _), _, _ = read_three_ways(json.loads(observation_text())["observations"])
        for obs in read:
            for array in (obs.source_samples, obs.target_samples, obs.source_2d.coeffs,
                          obs.source_2d.endpoints, obs.target_2d.coeffs, obs.target_2d.endpoints):
                if array is not None:
                    with pytest.raises(ValueError):
                        array.setflags(write=True)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fuzzed_observations_read_as_the_walk_reads_them(self, data):
        observations = data.draw(mutated(json.loads(observation_text())["observations"]))
        (read, read_error), (walked, walk_error), bulk = read_three_ways(observations)
        assert (bulk is not None) == (walk_error is None)
        assert read_error == walk_error
        if walk_error is None:
            assert_same_observations(bulk, walked)
            assert_same_observations(read, walked)

    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(values=st.lists(FINITE_DOUBLES, min_size=1, max_size=6),
           how=st.sampled_from(["midpoint", "exact", "repr", "%.17g"]),
           digits=st.integers(18, 800))
    def test_any_double_reads_as_json_reads_it(self, values, how, digits):
        # Sample coordinates written in any of the spellings of spelled():
        # read to the same bits as json, or rejected with json's message
        # when out of bounds.
        observations = json.loads(observation_text())["observations"]
        points = [p for obs in observations for p in obs["source_samples"]]
        for i in range(len(values)):
            points[i // 3][i % 3] = f"@{i}"

        def dumps(doc):
            text = json.dumps(doc)
            for i, value in enumerate(values):
                text = text.replace(f'"@{i}"', spelled(value, how, digits))
            return text

        (read, read_error), (walked, walk_error), _ = read_three_ways(observations, dumps)
        assert read_error == walk_error
        if walk_error is None:
            assert_same_observations(read, walked)


def collector_states(read, enabled: bool) -> tuple[bool, set, str | None]:
    """``read()`` run with the garbage collector ``enabled`` or not: whether
    the collector is in that state again afterwards, the states it was in
    whenever the document was read, and the message of the SchemaError
    ``read`` raised, if any."""
    during = set()
    document = fileio._observation_document

    def spy(data):
        during.add(gc.isenabled())
        return document(data)

    was = gc.isenabled()
    fileio._observation_document = spy
    try:
        gc.enable() if enabled else gc.disable()
        _, error = outcome(read)
        return gc.isenabled() is enabled, during, error
    finally:
        fileio._observation_document = document
        gc.enable() if was else gc.disable()


def collector_case(case: str) -> str:
    """The observation file of :func:`observation_text`: as it is, read in
    bulk; with a bad sample the walk names; with a lone surrogate, which
    orjson refuses and json reads; or with a NaN sample, which orjson
    refuses and the checks reject."""
    doc = json.loads(observation_text())
    if case == "walk-error":
        doc["observations"][1]["source_samples"][2][0] = True
    elif case == "orjson-refusal":
        doc["note"] = "\ud800"
    elif case == "nan-sample":
        doc["observations"][0]["source_samples"][0][1] = math.nan
    return json.dumps(doc)


class TestCollectorPause:
    """The garbage collector is off while a document is parsed and read,
    and as it was before once the read returns or raises."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "case, fails",
        [("bulk", False), ("walk-error", True), ("orjson-refusal", False), ("nan-sample", True)],
    )
    def test_collector_state_is_restored(self, tmp_path, case, fails, enabled):
        path = tmp_path / "obs.json"
        path.write_text(collector_case(case))
        restored, during, error = collector_states(lambda: read_observation_file(path), enabled)
        assert restored
        assert during == {False}
        assert (error is not None) == fails


def run_in_child(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that imports this pelical, so that a
    crash in the parser fails one test instead of the whole run."""
    package_root = Path(pelical.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)},
    )


def read_error_in_child(path: Path, thread_stack: int = 0) -> str:
    """The SchemaError message of ``read_observation_file(path)`` in a child
    interpreter, read on a thread with a stack of ``thread_stack`` bytes
    when that is not 0."""
    proc = run_in_child(
        "import threading\n"
        "from pelical.fileio import SchemaError, read_observation_file\n"
        "def read():\n"
        "    try:\n"
        f"        read_observation_file({str(path)!r})\n"
        "    except SchemaError as exc:\n"
        "        print(exc)\n"
        f"if {thread_stack}:\n"
        f"    threading.stack_size({thread_stack})\n"
        "    thread = threading.Thread(target=read)\n"
        "    thread.start()\n"
        "    thread.join()\n"
        "else:\n"
        "    read()\n"
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


#: A document nested ``n`` levels deep, and the C stack orjson takes a level.
DEEP = {
    "lists": (lambda n: "[" * n + "]" * n, 64),
    "objects": (lambda n: '{"a":' * n + "0" + "}" * n, 160),
    "mixed": (lambda n: '[{"a":' * n + "0" + "}]" * n, 64 + 160),
}
#: Documents with ``n`` opening brackets that orjson, which stops at the
#: first error, never nests ``n`` deep, and one it does nest that deep.
UNNESTED = {
    "closers-first": lambda n: "]" * n + "[" * n,
    "mismatched": lambda n: "[" + "}" * n + "[" * n + "]" * n,
    "unclosed-string": lambda n: '["' + "[" * n,
    "closers-in-a-string": lambda n: '["' + "]" * n + '",' + "[" * n + "]" * n + "]",
    "after-an-escaped-quote": lambda n: '["\\"' + "]" * n + '",' + "[" * n + "]" * n + "]",
}


def json_error(path: Path) -> str:
    """The SchemaError message of reading ``path`` with json alone."""
    return outcome(lambda: _observation_document(load_json(path)))[1]


class TestParserGuards:
    """orjson parses observation files but has no nesting limit; a file
    whose brackets could nest too deeply goes to json."""

    @pytest.mark.parametrize("kind", sorted(DEEP))
    def test_deep_document_is_nested_too_deeply(self, tmp_path, kind):
        path = tmp_path / "deep.json"
        path.write_text(DEEP[kind][0](200_000))
        message = read_error_in_child(path)
        assert message == f"{path}: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("levels", [1, 2], ids=["at-bound", "twice-bound"])
    @pytest.mark.parametrize("kind", sorted(DEEP))
    def test_deep_document_fits_a_1mib_thread_stack(self, tmp_path, kind, levels):
        # At the bound orjson parses it and the checks reject it, so json
        # reads it again; at twice the bound only json reads it, and orjson
        # would overflow the stack.
        nest, cost = DEEP[kind]
        path = tmp_path / "deep.json"
        path.write_text(nest(levels * _ORJSON_STACK_BYTES // cost))
        message = read_error_in_child(path, thread_stack=2**20)
        assert message == f"{path}: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_deep_file_read_by_json_restores_the_collector(self, tmp_path, enabled):
        # twice the bound: json alone reads it and finds it nested too deeply
        path = tmp_path / "deep.json"
        path.write_text(DEEP["lists"][0](2 * _ORJSON_STACK_BYTES // 64))
        proc = run_in_child(
            "import gc\n"
            "from pelical.fileio import SchemaError, read_observation_file\n"
            f"gc.enable() if {enabled} else gc.disable()\n"
            "try:\n"
            f"    read_observation_file({str(path)!r})\n"
            "except SchemaError as exc:\n"
            "    print(exc)\n"
            "print(gc.isenabled())\n"
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode() == f"{path}: invalid JSON: nested too deeply\n{enabled}\n"

    @pytest.mark.parametrize("kind", sorted(UNNESTED))
    def test_brackets_that_do_not_nest_read_as_json_reads_them(self, tmp_path, kind):
        # Four times the bound in brackets: the running depth, not their
        # count, decides, and only the last document nests that deep.
        path = tmp_path / "odd.json"
        path.write_text(UNNESTED[kind](4 * _ORJSON_STACK_BYTES // 64))
        message = read_error_in_child(path, thread_stack=2**20)
        assert message == json_error(path) + "\n"

    @pytest.mark.parametrize(
        "text, stack",
        [
            ("[" + "[]," * 10**5 + "[]]", 2 * 64),
            ('{"a":[' + "{}," * 10**5 + "{}]}", 2 * 160 + 64),
            ('["' + "[" * 10**5 + '"]', 64),
            ('["\\\\",' + "[]," * 10**5 + "[]]", (10**5 + 2) * 64),
        ],
        ids=["lists", "objects", "in-a-string", "with-a-backslash"],
    )
    def test_depth_not_count_is_the_stack(self, text, stack):
        # A file with a backslash counts every bracket: there a quote may
        # be escaped and not end a string.
        assert _orjson_stack(text.encode()) == stack

    def test_large_file_reads_as_json_reads_it(self, tmp_path):
        # 200 lines hold more brackets than the bound, nested 6 deep
        rng = np.random.default_rng(11)
        truth = rand_truth(rng)
        kinds = [CaseKind.FULL3D, CaseKind.PNL] * 100
        obs = [make_observation(rng, truth, k, obs_id=i) for i, k in enumerate(kinds)]
        path = tmp_path / "obs.json"
        write_observation_file(path, DEFAULT_K, DEFAULT_K, obs)
        raw = path.read_bytes()
        assert 64 * raw.count(b"[") + 160 * raw.count(b"{") > _ORJSON_STACK_BYTES
        assert _orjson_stack(raw) == 3 * 160 + 3 * 64
        proc = run_in_child(
            "import pickle, sys\n"
            "from pelical.fileio import read_observation_file\n"
            f"sys.stdout.buffer.write(pickle.dumps(read_observation_file({str(path)!r})))\n"
        )
        assert proc.returncode == 0, proc.stderr.decode()
        target_K, source_K, read = pickle.loads(proc.stdout)
        assert target_K == source_K == DEFAULT_K
        assert_same_observations(read, walk(load_json(path)["observations"]))


class TestCalibrationFile:
    def test_two_writes_are_byte_identical(self, tmp_path, report):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_calibration_file(a, report)
        write_calibration_file(b, report)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text() == dumps_canonical(calibration_file_dict(report))

    def test_read_exposes_extrinsics(self, tmp_path, report):
        path = tmp_path / "calib.json"
        write_calibration_file(path, report)
        out = read_calibration_file(path)
        assert isinstance(out["extrinsics"], Extrinsics)
        np.testing.assert_allclose(
            out["extrinsics"].rotation, report.extrinsics.rotation, atol=1e-15
        )
        np.testing.assert_allclose(
            out["extrinsics"].translation, report.extrinsics.translation, atol=1e-15
        )
        assert out["termination"] == "converged"
        assert out["accepted_pairs"] == report.accepted_pairs
        assert out["voting_inlier_ids"] == list(report.voting_inlier_ids)
        assert len(out["cgr"]) == 3

    def test_near_half_turn_rotation_writes_null_cgr(self):
        # the rational rotation parameters blow up close to 180 degrees, so
        # the writer falls back to null rather than emitting huge numbers
        rep = CalibrationReport(
            extrinsics=Extrinsics(rotation_about_y(179.999), np.zeros(3)),
            final_cost=0.0,
            termination=TerminationReason.MAX_PAIRS,
            accepted_pairs=0,
            voting_inlier_ids=(),
            trace=[],
        )
        assert calibration_file_dict(rep)["cgr"] is None

    def test_trace_entries_write_their_set_fields(self):
        # None fields and an empty eviction are left out; a False flag, a
        # NaN cost, an infinite distance and a None id are written
        trace = [
            FinalizeAttempt(5, np.inf, vote_size=2, vote_threshold=4,
                            vote_converged=False, mean_cost=np.nan),
            FinalizeAttempt(4, 0.25, note="rotation undetermined", evicted=[None]),
        ]
        rep = CalibrationReport(
            extrinsics=Extrinsics.identity(),
            final_cost=np.inf,
            termination=TerminationReason.MAX_PAIRS,
            accepted_pairs=5,
            voting_inlier_ids=(),
            trace=trace,
        )
        assert dumps_canonical(calibration_file_dict(rep)["trace"]) == (
            '[{"pairs":5,"d_so3":null,"vote_size":2,"vote_threshold":4,'
            '"vote_converged":false,"mean_cost":null},'
            '{"pairs":4,"d_so3":0.25,"note":"rotation undetermined","evicted":[null]}]\n'
        )

    def test_unknown_termination_rejected(self, tmp_path, report):
        path = tmp_path / "calib.json"
        write_calibration_file(path, report)
        doc = load_json(path)
        doc["termination"] = "bogus"
        write_json(path, doc)
        with pytest.raises(SchemaError, match="termination"):
            read_calibration_file(path)

    @pytest.mark.parametrize("root", [[1, 2], "abc"], ids=["list", "string"])
    def test_non_object_root_rejected(self, tmp_path, root):
        path = tmp_path / "calib.json"
        write_json(path, root)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: expected a JSON object$"):
            read_calibration_file(path)

    def test_bad_rotation_shape_rejected(self, tmp_path, report):
        path = tmp_path / "calib.json"
        write_calibration_file(path, report)
        doc = load_json(path)
        doc["rotation"] = doc["rotation"][:2]
        write_json(path, doc)
        with pytest.raises(SchemaError, match="rotation"):
            read_calibration_file(path)


class TestRigSpecFile:
    def spec(self):
        return RigSpec(
            truth=Extrinsics(rotation_about_y(25.0), np.array([0.3, 0.05, -0.1])),
            target_intrinsics=DEFAULT_K,
            source_intrinsics=DEFAULT_K,
            n_lines=15,
            line_length_m=(0.4, 2.5),
            scene_depth_m=(1.0, 3.5),
            pixel_noise_sigma=0.5,
            depth_noise_sigma=0.003,
            outlier_fraction=0.2,
            samples_per_line=25,
            pnl_fraction=0.25,
            rng_seed=9,
        )

    def test_round_trip(self, tmp_path):
        spec = self.spec()
        path = tmp_path / "rig.json"
        write_json(path, rig_spec_to_dict(spec))
        loaded = read_rig_spec(path)
        assert np.array_equal(loaded.truth.rotation, spec.truth.rotation)
        assert np.array_equal(loaded.truth.translation, spec.truth.translation)
        assert loaded.target_intrinsics == spec.target_intrinsics
        assert loaded.source_intrinsics == spec.source_intrinsics
        for name in (
            "n_lines",
            "line_length_m",
            "scene_depth_m",
            "pixel_noise_sigma",
            "depth_noise_sigma",
            "outlier_fraction",
            "samples_per_line",
            "pnl_fraction",
            "rng_seed",
            "depth_noise_model",
        ):
            assert getattr(loaded, name) == getattr(spec, name)

    def test_round_trip_is_byte_identical(self, tmp_path):
        spec = self.spec()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, rig_spec_to_dict(spec))
        write_json(b, rig_spec_to_dict(read_rig_spec(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_optional_fields_default(self):
        doc = rig_spec_to_dict(self.spec())
        minimal = {k: doc[k] for k in ("truth", "target_intrinsics", "source_intrinsics")}
        spec = rig_spec_from_dict(minimal)
        assert spec.n_lines == 12
        assert spec.pixel_noise_sigma == 0.0
        assert spec.outlier_fraction == 0.0
        assert spec.rng_seed == 0

    def test_missing_truth(self):
        doc = rig_spec_to_dict(self.spec())
        del doc["truth"]
        with pytest.raises(SchemaError, match="truth"):
            rig_spec_from_dict(doc)

    def test_unknown_key_rejected(self):
        # a misspelt key once left its field at the default without a word
        doc = {**rig_spec_to_dict(self.spec()), "pixel_noise_sigm": 0.5}
        with pytest.raises(SchemaError, match="^rig spec: .*'pixel_noise_sigm'$"):
            rig_spec_from_dict(doc)

    def test_invalid_fraction_rejected(self):
        doc = rig_spec_to_dict(self.spec())
        doc["outlier_fraction"] = 1.5
        with pytest.raises(SchemaError, match="rig spec"):
            rig_spec_from_dict(doc)


class TestTruthFile:
    def test_records_and_determinism(self, tmp_path):
        spec = RigSpec(
            truth=Extrinsics(rotation_about_y(20.0), np.array([0.3, 0.0, 0.0])),
            target_intrinsics=DEFAULT_K,
            source_intrinsics=DEFAULT_K,
            n_lines=8,
            outlier_fraction=0.25,
            pnl_fraction=0.25,
            rng_seed=4,
        )
        _, records = generate(spec)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_truth_file(a, spec.truth, records)
        write_truth_file(b, spec.truth, records)
        assert a.read_bytes() == b.read_bytes()
        doc = load_json(a)
        assert len(doc["records"]) == len(records)
        for entry, rec in zip(doc["records"], records):
            assert entry["id"] == rec.obs_id
            assert entry["is_outlier"] == rec.is_outlier
            assert entry["is_pnl"] == rec.is_pnl
            assert np.allclose(entry["source_line"]["d"], rec.source_line.d)


class TestSweepCsv:
    def rows(self):
        return [
            {
                "rotation_deg": 20.0,
                "baseline_m": 0.3,
                "seed": 3,
                "rot_err_deg": 0.1,
                "trans_err_mm": 2.5,
                "converged": True,
            },
            {
                "rotation_deg": 40.0,
                "baseline_m": 0.3,
                "seed": 4,
                "rot_err_deg": float("nan"),
                "trans_err_mm": float("nan"),
                "converged": False,
            },
        ]

    def test_header_matches_column_order(self):
        text = dumps_csv(SWEEP_COLUMNS, self.rows())
        assert text.splitlines()[0] == ",".join(SWEEP_COLUMNS)

    def test_cell_formatting(self):
        lines = dumps_csv(SWEEP_COLUMNS, self.rows()).splitlines()
        assert lines[1] == "20,0.29999999999999999,3,0.10000000000000001,2.5,true"
        assert lines[2] == "40,0.29999999999999999,4,nan,nan,false"

    def test_write_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, SWEEP_COLUMNS, self.rows())
        write_csv(b, SWEEP_COLUMNS, self.rows())
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")
